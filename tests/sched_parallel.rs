//! The parallel engine's wall-clock test, in a binary of its own: its
//! `t4 < t1` assertion compares two timed runs, so it must not share
//! the machine's CPUs with sibling tests running in parallel.

use cxu::gen::patterns::PatternParams;
use cxu::gen::program::{random_program, ProgramParams};
use cxu::gen::rng::SplitMix64;
use cxu::prelude::*;
use cxu::sched::{SchedConfig, Scheduler};

fn sched_cfg() -> SchedConfig {
    SchedConfig {
        semantics: Semantics::Value,
        jobs: 1,
        // Keep NP-side instances cheap: oversized ones go conservative.
        np_max_trees: 300,
        ..SchedConfig::default()
    }
}

/// Acceptance: on a 500-op batch the parallel engine agrees with the
/// single-worker one, and (given >1 CPU) is faster.
#[test]
fn parallel_engine_on_500_op_batch() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    // Diverse patterns so the batch holds many distinct pairs.
    let p = random_program(
        &mut rng,
        &ProgramParams {
            len: 500,
            update_rate: 0.5,
            delete_rate: 0.4,
            pattern: PatternParams {
                nodes: 4,
                alphabet: 6,
                branch_rate: 0.0,
                ..PatternParams::default()
            },
        },
    );
    let run = |jobs: usize| {
        let cfg = SchedConfig {
            jobs,
            ..sched_cfg()
        };
        let start = std::time::Instant::now();
        let out = Scheduler::new(cfg).run_program(&p);
        (out, start.elapsed())
    };
    let (serial, t1) = run(1);
    let (parallel, t4) = run(4);
    assert_eq!(serial.schedule, parallel.schedule);
    assert_eq!(serial.stats.conflict_edges, parallel.stats.conflict_edges);
    for (a, b) in serial.graph.edges().iter().zip(parallel.graph.edges()) {
        assert_eq!(a.verdict, b.verdict);
    }
    assert!(serial.stats.pairs_analyzed > 100, "{:?}", serial.stats);
    // Wall-clock comparison only means something with real parallelism
    // available; single-core runners still verify agreement above.
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    if cores > 1 {
        assert!(
            t4 < t1,
            "4 workers ({t4:?}) should beat 1 worker ({t1:?}) on {cores} cores"
        );
    }
}
