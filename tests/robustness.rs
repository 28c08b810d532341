//! The deadline/cancellation robustness layer, end to end.
//!
//! Degradation is *observable* (new `Detector` variants, `degraded_*`
//! stats) and *sound* (degraded pairs stay ordered, so every schedule
//! produced under pressure is still observationally serial-equivalent —
//! validated against the `gen::program` interpreter, the same oracle as
//! `sched_validation.rs`).

use cxu::gen::patterns::PatternParams;
use cxu::gen::program::{random_program, ProgramParams};
use cxu::gen::rng::{Rng, SplitMix64};
use cxu::gen::trees::{random_tree, TreeParams};
use cxu::prelude::*;
use cxu::runtime::{CancelToken, Deadline};
use cxu::sched::validate::schedule_preserves_observation;
use cxu::sched::{BatchResult, SchedConfig, Scheduler};
use std::time::Duration;

fn program_params(branching: bool) -> ProgramParams {
    ProgramParams {
        len: 6,
        update_rate: 0.5,
        delete_rate: 0.4,
        pattern: PatternParams {
            nodes: 3,
            alphabet: 3,
            branch_rate: if branching { 0.5 } else { 0.0 },
            ..PatternParams::default()
        },
    }
}

fn shuffled(rng: &mut SplitMix64, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// Checks that `out` is a well-formed schedule for an `n`-op batch:
/// every op exactly once, conflicting pairs in distinct ordered rounds.
fn assert_valid_schedule(out: &BatchResult, n: usize, ctx: &str) {
    let mut seen = vec![false; n];
    for round in &out.schedule.rounds {
        for (i, &a) in round.iter().enumerate() {
            assert!(
                !std::mem::replace(&mut seen[a], true),
                "{ctx}: op {a} twice"
            );
            for &b in &round[i + 1..] {
                assert!(
                    !out.graph.conflict(a, b),
                    "{ctx}: ops {a},{b} share a round but conflict"
                );
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "{ctx}: op dropped from schedule");
    let round = out.schedule.round_of();
    for e in out.graph.edges() {
        if e.verdict.conflict {
            assert!(round[e.a] < round[e.b], "{ctx}: conflict order violated");
        }
    }
}

/// A zero deadline degrades every NP-side pair, yet every batch still
/// yields a valid, observationally serial-equivalent schedule.
#[test]
fn zero_deadline_degrades_but_stays_sound() {
    let mut rng = SplitMix64::seed_from_u64(0xDEAD11);
    let cfg = SchedConfig {
        jobs: 1,
        pair_deadline: Some(Duration::ZERO),
        np_max_trees: 300,
        ..SchedConfig::default()
    };
    let mut degraded = 0usize;
    for case in 0..200 {
        let p = random_program(&mut rng, &program_params(case % 2 == 1));
        let doc = random_tree(
            &mut rng,
            &TreeParams {
                nodes: 8,
                alphabet: 3,
                ..TreeParams::default()
            },
        );
        // Fresh scheduler: the memo cache must not rescue degraded pairs.
        let out = Scheduler::new(cfg).run_program(&p);
        assert_valid_schedule(&out, p.stmts.len(), &format!("case {case}"));
        degraded += out.stats.degraded_deadline;
        let intra: Vec<Vec<usize>> = out
            .schedule
            .rounds
            .iter()
            .map(|r| shuffled(&mut rng, r.len()))
            .collect();
        assert!(
            schedule_preserves_observation(&p, &out.schedule, &intra, &doc),
            "case {case}: degraded schedule broke observational equivalence"
        );
    }
    assert!(
        degraded > 0,
        "branching programs under a zero deadline must degrade some pairs"
    );
}

/// Cancelling a batch's token degrades its undecided NP pairs to
/// conservative conflicts; the batch completes instead of aborting.
#[test]
fn cancellation_completes_with_conservative_verdicts() {
    let mut rng = SplitMix64::seed_from_u64(0xCA11CE);
    let token = CancelToken::new();
    token.cancel();
    let cfg = SchedConfig {
        jobs: 1,
        np_max_trees: 300,
        ..SchedConfig::default()
    };
    let mut degraded = 0usize;
    for case in 0..50 {
        let p = random_program(&mut rng, &program_params(true));
        let mut s = Scheduler::new(cfg);
        let cancelled = Deadline::never().with_token(&token);
        let out = s.run_until(&cxu::sched::ops_of_program(&p), &cancelled);
        assert_valid_schedule(&out, p.stmts.len(), &format!("case {case}"));
        degraded += out.stats.degraded_deadline;
    }
    assert!(degraded > 0, "a cancelled token must degrade NP pairs");
}

/// Deadlines thread through every NP-side entry point in the workspace.
#[test]
fn deadline_reaches_every_search_layer() {
    let parse = |s: &str| cxu::pattern::xpath::parse(s).unwrap();
    // One deadline per search: the poll stride counts per handle, so a
    // shared handle would check the clock at different iterations.
    let dl = Deadline::after(Duration::ZERO);

    // core::brute
    let r = Read::new(parse("a[b][c]"));
    let u = Update::Insert(Insert::new(
        parse("a[b]"),
        cxu::tree::text::parse("c").unwrap(),
    ));
    assert!(matches!(
        cxu::core::brute::decide_outcome(&r, &u, Semantics::Node, 200_000, &dl),
        cxu::core::brute::SearchOutcome::DeadlineExceeded
    ));

    // core::update_update
    let u1 = Update::Insert(Insert::new(
        parse("a/b"),
        cxu::tree::text::parse("x").unwrap(),
    ));
    let u2 = Update::Delete(Delete::new(parse("a/c")).unwrap());
    assert!(matches!(
        cxu::core::update_update::find_noncommuting_witness_deadline(
            &u1,
            &u2,
            cxu::core::update_update::Budget::default(),
            &Deadline::after(Duration::ZERO)
        ),
        cxu::core::update_update::Outcome::DeadlineExceeded
    ));

    // schema search
    let dtd = cxu::schema::Dtd::new("a").element("a", vec![cxu::schema::ChildSpec::star("b")]);
    assert!(matches!(
        cxu::schema::find_witness_conforming_deadline(
            &Read::new(parse("a//b")),
            &u1,
            Semantics::Node,
            &dtd,
            5,
            10_000,
            &Deadline::after(Duration::ZERO)
        ),
        cxu::schema::SchemaSearchOutcome::DeadlineExceeded
    ));

    // pattern containment (canonical-model sweep)
    assert!(cxu::pattern::containment::contains_within_deadline(
        &parse("a//b//c//d//e"),
        &parse("a/e"),
        1000,
        &Deadline::after(Duration::ZERO)
    )
    .is_err());

    // An unbounded deadline changes nothing anywhere.
    let never = Deadline::never();
    assert!(
        cxu::core::brute::decide_outcome(&r, &u, Semantics::Node, 200_000, &never)
            .decided()
            .is_some()
    );
}
