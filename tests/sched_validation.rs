//! End-to-end validation of the `cxu-sched` subsystem.
//!
//! Three independent checks, all against sources of truth *outside* the
//! scheduler:
//!
//! 1. **Observational soundness** — on random programs, executing the
//!    schedule with random intra-round orders is observationally
//!    equivalent to serial execution (the `gen::program` interpreter is
//!    the oracle).
//! 2. **Detector agreement** — conflict-graph verdicts agree with
//!    calling the underlying detectors (`detect::read_update_conflict`,
//!    `update_update_linear::commutativity`) directly.
//! 3. **Cache transparency** — memoized verdicts are identical to
//!    uncached ones, and repeated-shape batches actually hit the cache.
//!
//! Seeded `SplitMix64` throughout: deterministic, no external crates.

use cxu::gen::patterns::PatternParams;
use cxu::gen::program::{random_program, Program, ProgramParams, Stmt};
use cxu::gen::rng::{Rng, SplitMix64};
use cxu::gen::trees::{random_tree, TreeParams};
use cxu::prelude::*;
use cxu::sched::validate::schedule_preserves_observation;
use cxu::sched::{analyze_pair, Deadline, Detector, Op, SchedConfig, SchedStats, Scheduler};

fn sched_cfg() -> SchedConfig {
    SchedConfig {
        semantics: Semantics::Value,
        jobs: 1,
        // Keep NP-side instances cheap: oversized ones go conservative,
        // which is exactly what soundness validation should exercise.
        np_max_trees: 300,
        ..SchedConfig::default()
    }
}

fn program_params(branching: bool) -> ProgramParams {
    ProgramParams {
        len: 6,
        update_rate: 0.5,
        delete_rate: 0.4,
        pattern: PatternParams {
            nodes: 3,
            alphabet: 3,
            branch_rate: if branching { 0.4 } else { 0.0 },
            ..PatternParams::default()
        },
    }
}

fn doc_for(rng: &mut SplitMix64) -> cxu::tree::Tree {
    random_tree(
        rng,
        &TreeParams {
            nodes: 8,
            alphabet: 3,
            ..TreeParams::default()
        },
    )
}

fn shuffled(rng: &mut SplitMix64, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// Acceptance: intra-round reordering is observationally equivalent to
/// serial execution on ≥ 1000 random programs (linear and branching).
#[test]
fn intra_round_reordering_is_observationally_serial() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    let mut checked = 0usize;
    // One scheduler across all programs: recurring shapes hit the memo
    // cache, which is both the intended usage and what keeps 1000
    // programs fast.
    let mut scheduler = Scheduler::new(sched_cfg());
    for case in 0..1000 {
        let branching = case % 4 == 3;
        let p = random_program(&mut rng, &program_params(branching));
        let doc = doc_for(&mut rng);
        let out = scheduler.run_program(&p);
        // Two random intra-round orders per program.
        for _ in 0..2 {
            let intra: Vec<Vec<usize>> = out
                .schedule
                .rounds
                .iter()
                .map(|r| shuffled(&mut rng, r.len()))
                .collect();
            assert!(
                schedule_preserves_observation(&p, &out.schedule, &intra, &doc),
                "case {case}: schedule {:?} broke observational equivalence \
                 for program {:?} on doc {}",
                out.schedule.rounds,
                p.stmts.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>(),
                cxu::tree::text::to_text(&doc),
            );
            checked += 1;
        }
    }
    assert!(checked >= 2000);
}

/// Acceptance: a generated 200-op program schedules into rounds that are
/// pairwise conflict-free and cover every op exactly once.
#[test]
fn two_hundred_op_program_gets_conflict_free_rounds() {
    let mut rng = SplitMix64::seed_from_u64(42);
    let p = random_program(
        &mut rng,
        &ProgramParams {
            len: 200,
            update_rate: 0.5,
            delete_rate: 0.4,
            // A wider alphabet: fewer overlapping update pairs, so most
            // pairs take the PTIME fast path and the batch stays quick.
            pattern: PatternParams {
                nodes: 3,
                alphabet: 5,
                branch_rate: 0.0,
                ..PatternParams::default()
            },
        },
    );
    let out = Scheduler::new(sched_cfg()).run_program(&p);
    let mut seen = [false; 200];
    for round in &out.schedule.rounds {
        for (i, &a) in round.iter().enumerate() {
            assert!(
                !std::mem::replace(&mut seen[a], true),
                "op {a} scheduled twice"
            );
            for &b in &round[i + 1..] {
                assert!(
                    !out.graph.conflict(a, b),
                    "ops {a} and {b} share a round but conflict"
                );
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "every op is scheduled");
    assert!(out.stats.rounds >= 1);
}

fn random_ops(rng: &mut SplitMix64, n: usize, branching: bool) -> Vec<Op> {
    let p = random_program(
        rng,
        &ProgramParams {
            len: n,
            ..program_params(branching)
        },
    );
    cxu::sched::ops_of_program(&p)
}

/// The conflict graph agrees with the underlying detectors, pair by
/// pair, on ≥ 1000 random pairs — both against `analyze_pair` (the
/// routing layer, called directly without any interning or caching) and,
/// where a PTIME detector decided, against `detect` / `commutativity`
/// themselves.
#[test]
fn graph_agrees_with_direct_detectors() {
    use cxu::core::update_update::Budget;
    use cxu::core::update_update_linear::{commutativity_with_budget, Commutativity};

    let mut rng = SplitMix64::seed_from_u64(0xDECADE);
    let cfg = sched_cfg();
    let mut compared = 0usize;
    while compared < 1000 {
        let ops = random_ops(&mut rng, 2, compared % 3 == 2);
        let (graph, _) = Scheduler::new(cfg).analyze(&ops);
        let edge = graph.edges()[0];
        if edge.verdict.detector == Detector::Trivial {
            // Read–read or identical keys: justified without detectors.
            assert!(!edge.verdict.conflict);
            continue;
        }
        if edge.verdict.detector == Detector::PrefilterNoConflict {
            // The direct routing layer never takes the engine's batch
            // pre-filter route, so detectors differ by construction —
            // but the answers must agree: prefiltered means provably
            // conflict-free.
            assert!(!edge.verdict.conflict);
            assert!(
                !analyze_pair(&ops[0], &ops[1], &cfg).conflict,
                "prefilter disagrees with direct routing on {:?} / {:?}",
                ops[0],
                ops[1]
            );
            compared += 1;
            continue;
        }
        assert_eq!(
            edge.verdict,
            analyze_pair(&ops[0], &ops[1], &cfg),
            "graph and direct routing disagree on {:?} / {:?}",
            ops[0],
            ops[1]
        );
        match (&ops[0], &ops[1]) {
            (Op::Read(r), Op::Update(u)) | (Op::Update(u), Op::Read(r))
                if r.pattern().is_linear() =>
            {
                let direct = cxu::detect::read_update_conflict(r, u, cfg.semantics).unwrap();
                assert_eq!(edge.verdict.conflict, direct);
                assert_eq!(edge.verdict.detector, Detector::PtimeLinearRead);
            }
            (Op::Update(u1), Op::Update(u2)) => match commutativity_with_budget(
                u1,
                u2,
                Budget {
                    max_nodes: cfg.np_max_nodes,
                    max_trees: cfg.np_max_trees,
                },
            ) {
                Some(Commutativity::Commute) => assert!(!edge.verdict.conflict),
                Some(Commutativity::Conflict(_)) => assert!(edge.verdict.conflict),
                // Unknown or branching: the scheduler must not have
                // parallelized unless a search proved independence.
                _ => {
                    if !edge.verdict.conflict {
                        assert_eq!(edge.verdict.detector, Detector::WitnessSearch);
                    }
                }
            },
            _ => {}
        }
        compared += 1;
    }
}

/// Cached verdicts are bit-identical to uncached ones: a warm scheduler
/// and a cold one produce the same graph on the same batch.
#[test]
fn cached_verdicts_equal_uncached() {
    let mut rng = SplitMix64::seed_from_u64(0xFACADE);
    for case in 0..50 {
        let ops = random_ops(&mut rng, 12, case % 2 == 1);
        let mut warm = Scheduler::new(sched_cfg());
        let (cold_graph, cold_stats) = warm.analyze(&ops);
        // Second run over the same batch: everything non-trivial is a
        // cache hit, and every verdict is unchanged.
        let (warm_graph, warm_stats) = warm.analyze(&ops);
        assert_eq!(warm_stats.pairs_analyzed, 0, "case {case}");
        assert_eq!(
            warm_stats.cache_hits + warm_stats.trivial,
            warm_stats.pairs_total
        );
        assert_eq!(cold_stats.pairs_total, warm_stats.pairs_total);
        for (c, w) in cold_graph.edges().iter().zip(warm_graph.edges()) {
            assert_eq!((c.a, c.b), (w.a, w.b));
            assert_eq!(c.verdict, w.verdict, "case {case}: verdict drifted");
        }
    }
}

/// Acceptance: `SchedStats` reports cache hits on batches with repeated
/// operation shapes.
#[test]
fn repeated_shapes_hit_the_cache() {
    let mut rng = SplitMix64::seed_from_u64(7);
    // A small shape pool repeated across a 60-op batch.
    let pool = random_ops(&mut rng, 6, false);
    let ops: Vec<Op> = (0..60).map(|i| pool[i % pool.len()].clone()).collect();
    let out = Scheduler::new(sched_cfg()).run(&ops);
    assert!(
        out.stats.cache_hits > 0,
        "expected cache hits, got {:?}",
        out.stats
    );
    assert!(out.stats.pairs_analyzed <= pool.len() * (pool.len() - 1) / 2);
    assert_eq!(
        out.stats.trivial
            + out.stats.cache_hits
            + out.stats.pairs_analyzed
            + out.stats.prefilter_skips,
        out.stats.pairs_total
    );
}

/// One decision path: a batch decides every pair by lookup → task →
/// commit, as a single `check_pair` does. On seeded batches (linear,
/// mixed, with branching reads, and with repeated shapes) one worker
/// and four give the same graph, verdict and cache provenance per edge,
/// and the same stats; every edge's verdict is what a fresh scheduler's
/// `check_pair` answers for that pair.
#[test]
fn batch_edges_match_single_pair_checks_at_any_job_count() {
    let mut rng = SplitMix64::seed_from_u64(0x0DE_C1DE);
    for case in 0..6 {
        let linear = random_ops(&mut rng, 14, false);
        let branching = random_ops(&mut rng, 14, true);
        let pool = random_ops(&mut rng, 5, case % 2 == 1);
        let branching_reads: Vec<Op> = linear
            .iter()
            .filter(|op| op.is_update())
            .chain(branching.iter().filter(|op| !op.is_update()))
            .cloned()
            .collect();
        let repeated: Vec<Op> = (0..20).map(|i| pool[i % pool.len()].clone()).collect();
        for (kind, ops) in [
            ("linear", &linear),
            ("mixed", &branching),
            ("branching reads", &branching_reads),
            ("repeated shapes", &repeated),
        ] {
            let run = |jobs| {
                Scheduler::new(SchedConfig {
                    jobs,
                    ..sched_cfg()
                })
                .run(ops)
            };
            let (one, four) = (run(1), run(4));
            let ctx = format!("case {case}, {kind}");
            assert_eq!(
                one.stats,
                SchedStats {
                    jobs: 1,
                    ..four.stats
                },
                "{ctx}"
            );
            assert_eq!(one.schedule, four.schedule, "{ctx}");
            assert_eq!(one.graph.edges().len(), four.graph.edges().len(), "{ctx}");
            for (e1, e4) in one.graph.edges().iter().zip(four.graph.edges()) {
                assert_eq!(
                    (e1.a, e1.b, e1.verdict, e1.cached),
                    (e4.a, e4.b, e4.verdict, e4.cached),
                    "{ctx}"
                );
                let single = Scheduler::new(sched_cfg()).check_pair(
                    &ops[e1.a],
                    &ops[e1.b],
                    &Deadline::never(),
                );
                assert_eq!(
                    single.verdict, e1.verdict,
                    "{ctx}: pair ({}, {}) disagrees with check_pair",
                    e1.a, e1.b
                );
            }
            if kind == "repeated shapes" {
                assert!(one.stats.cache_hits > 0, "{ctx}: {:?}", one.stats);
            }
        }
    }
}

/// The schedule respects program order for every conflicting pair — the
/// structural invariant behind the observational result.
#[test]
fn conflicting_pairs_stay_ordered() {
    let mut rng = SplitMix64::seed_from_u64(0xABBA);
    for case in 0..100 {
        let p: Program = random_program(&mut rng, &program_params(case % 2 == 0));
        let out = Scheduler::new(sched_cfg()).run_program(&p);
        let round = out.schedule.round_of();
        for e in out.graph.edges() {
            if e.verdict.conflict {
                assert!(
                    round[e.a] < round[e.b],
                    "case {case}: pair ({}, {})",
                    e.a,
                    e.b
                );
            }
        }
        let n: usize = out.schedule.rounds.iter().map(Vec::len).sum();
        assert_eq!(n, p.stmts.len());
        assert!(p
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::Read(_) | Stmt::Update(_))));
    }
}
