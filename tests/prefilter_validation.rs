//! Soundness validation for the scheduler's batch pre-filter: every
//! pair the pre-filter discharges must be a pair the *full* detector
//! stack also proves non-conflicting, across seeded random workloads.
//!
//! The pre-filter's own in-engine `debug_assert!` cross-check covers
//! debug test runs pair-by-pair; this suite additionally checks the
//! release path, the batch-level accounting identity, and that the
//! filter is not vacuous on linear-heavy traffic.

use cxu::gen::parse::parse_program;
use cxu::gen::patterns::PatternParams;
use cxu::gen::program::{random_program, ProgramParams};
use cxu::gen::rng::SplitMix64;
use cxu::obs;
use cxu::sched::{analyze_pair, ops_of_program, Detector, Op, PairLookup, SchedConfig, Scheduler};

fn linear_batch(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let params = ProgramParams {
        len,
        pattern: PatternParams {
            nodes: 4,
            alphabet: 6,
            branch_rate: 0.0,
            ..PatternParams::default()
        },
        ..ProgramParams::default()
    };
    ops_of_program(&random_program(&mut rng, &params))
}

fn mixed_batch(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let params = ProgramParams {
        len,
        pattern: PatternParams {
            nodes: 4,
            alphabet: 5,
            branch_rate: 0.3,
            ..PatternParams::default()
        },
        ..ProgramParams::default()
    };
    ops_of_program(&random_program(&mut rng, &params))
}

fn cfg() -> SchedConfig {
    SchedConfig {
        np_max_trees: 2_000,
        ..SchedConfig::default()
    }
}

/// Every prefilter-skipped edge, re-decided by the full detector stack
/// (`analyze_pair`, which never takes the pre-filter route), must come
/// back non-conflicting.
#[test]
fn prefiltered_pairs_agree_with_full_detectors() {
    let mut skipped_edges = 0usize;
    for seed in 0..12u64 {
        let ops = if seed % 3 == 2 {
            mixed_batch(0x5EED ^ seed, 16)
        } else {
            linear_batch(0x5EED ^ seed, 16)
        };
        let out = Scheduler::new(cfg()).run(&ops);
        for e in out.graph.edges() {
            if e.verdict.detector != Detector::PrefilterNoConflict {
                continue;
            }
            skipped_edges += 1;
            assert!(!e.verdict.conflict, "prefilter verdicts are non-conflicts");
            let full = analyze_pair(&ops[e.a], &ops[e.b], &cfg());
            assert!(
                !full.conflict,
                "seed {seed}: prefilter skipped ({}, {}) but the full \
                 detector ({:?}) finds a conflict",
                e.a, e.b, full.detector
            );
        }
    }
    assert!(
        skipped_edges > 0,
        "the pre-filter should fire on linear-heavy seeded workloads"
    );
}

/// On a fresh scheduler, pre-filter skips and analyzed pairs exactly
/// partition the distinct non-trivial pair shapes: nothing is counted
/// twice and nothing escapes both.
#[test]
fn prefilter_accounting_partitions_fresh_pairs() {
    for seed in 20..28u64 {
        let ops = linear_batch(seed, 20);
        let out = Scheduler::new(cfg()).run(&ops);
        let st = &out.stats;
        assert_eq!(
            st.prefilter_skips + st.pairs_analyzed,
            st.pairs_total - st.trivial - st.cache_hits,
            "seed {seed}: distinct fresh pairs split between filter and detectors"
        );
        // Edges carry the route: prefiltered edges never conflict, and
        // their count (first occurrences only) matches the stat.
        let prefiltered_first: usize = out
            .graph
            .edges()
            .iter()
            .filter(|e| e.verdict.detector == Detector::PrefilterNoConflict && !e.cached)
            .count();
        assert_eq!(prefiltered_first, st.prefilter_skips, "seed {seed}");
    }
}

/// Pre-filter verdicts are memoized: the same batch re-run on the same
/// scheduler is served entirely from the cache, with no second skip.
#[test]
fn prefilter_verdicts_are_memoized() {
    let ops = linear_batch(0xF1F0, 20);
    let mut s = Scheduler::new(cfg());
    let first = s.run(&ops);
    assert!(first.stats.prefilter_skips > 0, "filter fired on pass one");
    let second = s.run(&ops);
    assert_eq!(second.stats.prefilter_skips, 0);
    assert_eq!(second.stats.pairs_analyzed, 0);
    // Identical verdicts either way.
    for (e1, e2) in first.graph.edges().iter().zip(second.graph.edges()) {
        assert_eq!(e1.verdict, e2.verdict);
    }
}

/// On the serving path the pre-filter runs inside `lookup_pair`: a miss
/// it decides comes back `Ready` (not cached, no detector task to run),
/// memoized, so the next lookup is a hit. It counts exactly as a
/// prefiltered miss always has: one miss, one prefilter route, one
/// `sched.pair_ns` sample.
#[test]
fn prefiltered_miss_is_answered_by_the_lookup() {
    let ops = ops_of_program(&parse_program("y = read $x/B; insert $x/C, D").unwrap());
    let (a, b) = (&ops[0], &ops[1]);
    let reg = obs::Registry::leak();
    obs::with_registry(reg, || {
        let mut s = Scheduler::new(cfg());
        let before = reg.snapshot();
        match s.lookup_pair(a, b) {
            PairLookup::Ready(d) => {
                assert!(!d.cached, "a prefiltered miss is not a cache hit");
                assert_eq!(d.verdict.detector, Detector::PrefilterNoConflict);
                assert!(!d.verdict.conflict);
            }
            PairLookup::Miss(_) => panic!("the pre-filter decides this pair at lookup"),
        }
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counter("sched.cache.lookups"), 1);
        assert_eq!(d.counter("sched.cache.misses"), 1);
        assert_eq!(d.counter("sched.route.prefilter_no_conflict"), 1);
        assert_eq!(d.histogram("sched.pair_ns").map(|h| h.count), Some(1));

        match s.lookup_pair(b, a) {
            PairLookup::Ready(d) => {
                assert!(d.cached, "the prefilter verdict was memoized");
                assert_eq!(d.verdict.detector, Detector::PrefilterNoConflict);
            }
            PairLookup::Miss(_) => panic!("a memoized pair must not miss"),
        }
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counter("sched.cache.hits"), 1);
        assert_eq!(d.counter("sched.cache.misses"), 1);
        assert_eq!(d.counter("sched.route.prefilter_no_conflict"), 1);
    });
}
