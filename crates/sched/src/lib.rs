//! # cxu-sched — batch conflict-graph scheduling
//!
//! Takes a *batch* of XML read/update operations (a pidgin
//! [`cxu_gen::program::Program`] or a plain op list) and schedules it
//! into **conflict-free rounds**: operations inside a round are pairwise
//! proven independent and may execute concurrently or in any order;
//! rounds execute in sequence. The schedule is observationally
//! equivalent to serial execution under the paper's value semantics.
//!
//! Pipeline:
//!
//! 1. **Intern** ([`intern`]) — operations are hash-consed into
//!    canonical keys (pattern shape up to unordered-sibling reorder,
//!    payload shape, op kind), so repeated shapes share one identity.
//! 2. **Pairwise analysis** ([`pairwise`]) — each distinct pair key is
//!    decided once: PTIME detectors when applicable (§4 read–update for
//!    linear reads, §6 linear update–update), bounded NP-side witness
//!    search otherwise (§5, Lemma 11), conservative conflict when the
//!    budget runs out. Every pair, batched or single, is decided by
//!    lookup → task → commit ([`engine::Scheduler`]): verdicts are
//!    memoized across batches, and a batch's distinct misses run as
//!    [`PairTask`]s over `std::thread::scope` workers.
//! 3. **Conflict graph** ([`graph`]) — every pair recorded with its
//!    verdict, deciding detector, and cache provenance; Graphviz export.
//! 4. **Rounds** ([`rounds`]) — ASAP greedy coloring preserving the
//!    program order of every conflicting pair.
//! 5. **Validation** ([`validate`]) — interpreter-based check that any
//!    schedule-compatible order observes the same values as serial.
//!
//! ```
//! use cxu_sched::Scheduler;
//! use cxu_gen::parse::parse_program;
//!
//! let p = parse_program("y = read $x//A; insert $x/B, C; z = read $x//C").unwrap();
//! let out = Scheduler::default().run_program(&p);
//! assert_eq!(out.schedule.rounds, vec![vec![0, 1], vec![2]]);
//! assert_eq!(out.stats.conflict_edges, 1);
//! ```

pub mod engine;
pub mod graph;
pub mod intern;
pub mod op;
pub mod pairwise;
pub mod rounds;
pub mod validate;

pub use cxu_runtime as runtime;
pub use cxu_runtime::{CancelToken, Deadline};
pub use engine::{BatchResult, PairDecision, PairLookup, PairTask, Scheduler};
pub use graph::{ConflictGraph, Edge};
pub use intern::{op_route_hash, pair_route_hash, OpInfo, PairKey};
pub use op::{ops_of_program, Op};
pub use pairwise::{analyze_pair, analyze_pair_deadline, prefilter_no_conflict, Detector, Verdict};
pub use rounds::{schedule, Schedule};

use cxu_ops::Semantics;
use std::time::Duration;

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Conflict semantics for read–update pairs. `Value` matches the
    /// observational-equivalence guarantee the scheduler advertises
    /// (reads observe value multisets); it is also the paper's notion
    /// under which linear reads make Node/Tree/Value coincide (Lemma 2).
    pub semantics: Semantics,
    /// Worker threads for pairwise analysis (≥ 1).
    pub jobs: usize,
    /// NP-side budget: maximum witness-tree node count for the
    /// update–update bounded search.
    pub np_max_nodes: usize,
    /// NP-side budget: maximum candidate trees enumerated per search.
    pub np_max_trees: u128,
    /// Per-pair time slice for a batch's NP-side searches. A pair whose
    /// analysis outlives its slice (or the batch's own deadline, see
    /// [`Scheduler::run_until`]) degrades to a *conservative conflict*
    /// ([`pairwise::Detector::ConservativeDeadline`]) instead of
    /// stalling the batch. `None` (the default) runs unbounded.
    pub pair_deadline: Option<Duration>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            semantics: Semantics::Value,
            jobs: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            np_max_nodes: 5,
            np_max_trees: 200_000,
            pair_deadline: None,
        }
    }
}

/// Counters for one analyzed batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Operations in the batch.
    pub ops: usize,
    /// Total pairs (`n·(n−1)/2`).
    pub pairs_total: usize,
    /// Pairs decided without any detector (read–read, identical keys).
    pub trivial: usize,
    /// Distinct pair keys actually run through a detector.
    pub pairs_analyzed: usize,
    /// Pairs served from the memo cache (within-batch repeats and
    /// previous batches).
    pub cache_hits: usize,
    /// Distinct pair keys discharged by the sound batch pre-filter
    /// (proven non-conflicts that never entered a detector).
    pub prefilter_skips: usize,
    /// Edges decided by the §4 PTIME read–update detector.
    pub ptime_linear_read: usize,
    /// Edges decided by the §6 linear update–update analysis.
    pub ptime_linear_updates: usize,
    /// Edges decided by bounded NP-side witness search.
    pub witness_search: usize,
    /// Edges conservatively marked conflicting, for any reason (the sum
    /// of the `degraded_*` breakdown plus undecidable routes).
    pub conservative: usize,
    /// Conservative edges caused by candidate-count budget exhaustion.
    pub degraded_budget: usize,
    /// Conservative edges caused by an expired pair deadline or a fired
    /// cancellation token.
    pub degraded_deadline: usize,
    /// Conservative edges caused by a detector panic (isolated by the
    /// engine's `catch_unwind` guard).
    pub degraded_panic: usize,
    /// Conflicting pairs.
    pub conflict_edges: usize,
    /// Rounds in the resulting schedule.
    pub rounds: usize,
    /// Distinct interned pattern shapes seen so far.
    pub distinct_shapes: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl std::fmt::Display for SchedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "ops:                  {}", self.ops)?;
        writeln!(f, "pairs:                {}", self.pairs_total)?;
        writeln!(f, "  trivial:            {}", self.trivial)?;
        writeln!(f, "  analyzed:           {}", self.pairs_analyzed)?;
        writeln!(f, "  cache hits:         {}", self.cache_hits)?;
        writeln!(f, "  prefilter skips:    {}", self.prefilter_skips)?;
        writeln!(f, "detectors (by edge):")?;
        writeln!(f, "  ptime read-update:  {}", self.ptime_linear_read)?;
        writeln!(f, "  ptime update-update:{}", self.ptime_linear_updates)?;
        writeln!(f, "  witness search:     {}", self.witness_search)?;
        writeln!(f, "  conservative:       {}", self.conservative)?;
        writeln!(f, "    budget exhausted: {}", self.degraded_budget)?;
        writeln!(f, "    deadline expired: {}", self.degraded_deadline)?;
        writeln!(f, "    detector panic:   {}", self.degraded_panic)?;
        writeln!(f, "conflict edges:       {}", self.conflict_edges)?;
        writeln!(f, "rounds:               {}", self.rounds)?;
        writeln!(f, "distinct shapes:      {}", self.distinct_shapes)?;
        write!(f, "jobs:                 {}", self.jobs)
    }
}
