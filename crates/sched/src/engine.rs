//! The batch analysis engine. Every pair, batched or single, is decided
//! by lookup → task → commit: [`Scheduler::lookup_pair`] answers trivial
//! pairs, memo hits and pre-filtered misses, a remaining miss becomes a
//! [`PairTask`] that runs with no scheduler state, and
//! [`Scheduler::commit_pair`] memoizes its verdict. A batch interns each
//! op once, looks every pair up, fans its distinct misses out over
//! worker threads, and assembles the conflict graph, schedule and stats.

use crate::graph::{ConflictGraph, Edge};
use crate::intern::{Interner, OpInfo, OpKey, PairKey};
use crate::op::{ops_of_program, Op};
use crate::pairwise::{analyze_pair_info, prefilter_no_conflict, Detector, Verdict};
use crate::rounds::{schedule, Schedule};
use crate::{SchedConfig, SchedStats};
use cxu_gen::program::Program;
use cxu_runtime::{failpoints, Deadline};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bumps the `sched.route.*` counter matching the deciding detector.
/// One increment per *analyzed* pair (cache hits never re-enter a
/// detector, so summing these counters equals `pairs_analyzed` summed
/// over batches — the invariant `tests/obs_validation.rs` checks).
fn record_route(v: Verdict) {
    match v.detector {
        Detector::Trivial => cxu_obs::counter!("sched.route.trivial").inc(),
        Detector::PrefilterNoConflict => {
            cxu_obs::counter!("sched.route.prefilter_no_conflict").inc()
        }
        Detector::PtimeLinearRead => cxu_obs::counter!("sched.route.ptime_linear_read").inc(),
        Detector::PtimeLinearUpdates => cxu_obs::counter!("sched.route.ptime_linear_updates").inc(),
        Detector::WitnessSearch => cxu_obs::counter!("sched.route.witness_search").inc(),
        Detector::ConservativeUndecided => {
            cxu_obs::counter!("sched.route.conservative_undecided").inc()
        }
        Detector::ConservativeBudget => cxu_obs::counter!("sched.route.conservative_budget").inc(),
        Detector::ConservativeDeadline => {
            cxu_obs::counter!("sched.route.conservative_deadline").inc()
        }
        Detector::ConservativePanic => cxu_obs::counter!("sched.route.conservative_panic").inc(),
    }
}

/// Runs the sound pre-filter on a cache miss. When it fires, the pair is
/// decided with no detector at all: the route is recorded, the decision
/// counts as one `sched.pair_ns` sample (the histogram covers every
/// distinct pair decided, filtered or analyzed), and debug builds
/// cross-check it against the full detectors.
fn prefilter(
    a: &Op,
    ia: Option<&OpInfo>,
    b: &Op,
    ib: Option<&OpInfo>,
    sem: cxu_ops::Semantics,
) -> Option<Verdict> {
    let t_pair = std::time::Instant::now();
    if !prefilter_no_conflict(a, ia, b, ib, sem) {
        return None;
    }
    let verdict = Verdict {
        conflict: false,
        detector: Detector::PrefilterNoConflict,
    };
    record_route(verdict);
    cxu_obs::histogram!("sched.pair_ns").record_since(t_pair);
    debug_assert!(
        prefilter_cross_check(a, b, sem),
        "prefilter skipped a pair the full detector finds conflicting"
    );
    Some(verdict)
}

/// Debug-only oracle behind the pre-filter's `debug_assert!`: re-derives
/// a skipped pair's verdict with the full detectors and returns true iff
/// they agree the pair cannot conflict. Deliberately calls the
/// *uninstrumented* `read_delete_conflict` / `read_insert_conflict`
/// entry points — routing through the instrumented `read_update_conflict`
/// wrapper here would inflate the `core.detect.linear` counters that
/// `tests/obs_validation.rs` ties to the scheduler's route mix. For
/// update–update pairs this mirrors `commutativity_deadline`'s cross
/// checks: each update read back as a pattern under `Node` semantics
/// against the other update; both silent ⇒ commute.
fn prefilter_cross_check(a: &Op, b: &Op, sem: cxu_ops::Semantics) -> bool {
    use cxu_core::detect::{read_delete_conflict, read_insert_conflict};
    use cxu_ops::{Read, Semantics, Update};
    fn silent(r: &Read, u: &Update, sem: Semantics) -> bool {
        let fired = match u {
            Update::Insert(i) => read_insert_conflict(r, i, sem),
            Update::Delete(d) => read_delete_conflict(r, d, sem),
        };
        matches!(fired, Ok(false))
    }
    match (a, b) {
        (Op::Read(_), Op::Read(_)) => true,
        (Op::Read(r), Op::Update(u)) | (Op::Update(u), Op::Read(r)) => silent(r, u, sem),
        (Op::Update(u1), Op::Update(u2)) => {
            let r1 = Read::new(u1.pattern().clone());
            let r2 = Read::new(u2.pattern().clone());
            silent(&r1, u2, Semantics::Node) && silent(&r2, u1, Semantics::Node)
        }
    }
}

/// The outcome of a single-pair check ([`Scheduler::check_pair`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairDecision {
    /// The verdict (conflict flag + deciding detector).
    pub verdict: Verdict,
    /// Whether the verdict was served from the memo cache rather than
    /// computed by a detector on this call. Trivial pairs report
    /// `false`: they never touch the cache in either direction.
    pub cached: bool,
}

/// The outcome of [`Scheduler::lookup_pair`]: either an answer that was
/// available under the brief scheduler lock (trivial shape, memo-cache
/// hit, or a miss the sound pre-filter decides), or a detached
/// [`PairTask`] the caller runs with **no** scheduler lock held and then
/// feeds back through [`Scheduler::commit_pair`].
///
/// This split is what makes the scheduler shardable: a sharded server
/// keeps lock hold times bounded by the lookup (interning + one hash-map
/// probe), while detector invocations — including NP-side witness
/// searches — run outside any lock and may even run on a *different*
/// shard's worker (work stealing). The commit step serializes cache
/// writes back on the owning scheduler.
#[derive(Debug)]
pub enum PairLookup {
    /// Decided without running a detector.
    Ready(PairDecision),
    /// Cache miss: run the task lock-free, then commit its verdict.
    Miss(Box<PairTask>),
}

/// A detached unit of pair-deciding work produced by
/// [`Scheduler::lookup_pair`] on a cache miss. Owns clones of both
/// operations, their compiled [`OpInfo`]s, and the scheduler's config,
/// so it holds no borrow of the scheduler and can be executed on any
/// thread.
#[derive(Debug)]
pub struct PairTask {
    key: PairKey,
    a: Op,
    ia: Option<OpInfo>,
    b: Op,
    ib: Option<OpInfo>,
    cfg: SchedConfig,
}

impl PairTask {
    /// The normalized cache key this task's verdict commits under.
    pub fn key(&self) -> PairKey {
        self.key
    }

    /// Decides the pair under `deadline` with the full detector stack
    /// (the sound pre-filter already ran in [`Scheduler::lookup_pair`]).
    /// Touches no scheduler state. A detector panic is caught and
    /// degrades the pair to [`Detector::ConservativePanic`], and the
    /// `sched::pair` fault-injection site fires here.
    pub fn run(&self, deadline: &Deadline) -> Verdict {
        let t0 = std::time::Instant::now();
        // `Op`, `OpInfo` and `SchedConfig` are plain data (no interior
        // mutability), and the deadline's poll counter is at worst stale
        // after an unwind, so observing them across the catch is safe.
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            if failpoints::fire("sched::pair") {
                return Verdict::conservative(Detector::ConservativeBudget);
            }
            analyze_pair_info(
                &self.a,
                self.ia.as_ref(),
                &self.b,
                self.ib.as_ref(),
                &self.cfg,
                deadline,
            )
        }))
        .unwrap_or_else(|_| Verdict::conservative(Detector::ConservativePanic));
        record_route(verdict);
        cxu_obs::histogram!("sched.pair_ns").record_since(t0);
        if cxu_obs::trace::enabled() {
            cxu_obs::trace::event(
                "sched.pair",
                &[
                    ("route", verdict.detector.name().into()),
                    ("conflict", verdict.conflict.into()),
                ],
            );
        }
        verdict
    }
}

/// Runs a batch's tasks over up to `jobs` scoped threads, handed out
/// through an atomic cursor so a stray expensive NP-side pair cannot
/// idle the other workers behind a fixed chunking. Each task stops at
/// the earlier of `deadline` and its own `pair_deadline` slice. The
/// verdicts come back in task order.
fn run_tasks(tasks: &[Box<PairTask>], jobs: usize, deadline: &Deadline) -> Vec<Verdict> {
    let run =
        |task: &PairTask, deadline: &Deadline| task.run(&deadline.capped(task.cfg.pair_deadline));
    let jobs = jobs.max(1).min(tasks.len());
    if jobs <= 1 {
        return tasks.iter().map(|task| run(task, deadline)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Verdict)>> = Mutex::new(Vec::with_capacity(tasks.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            // A deadline handle is not `Sync`: each worker takes its own.
            let deadline = deadline.clone();
            let (cursor, results) = (&cursor, &results);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else {
                        break;
                    };
                    local.push((i, run(task, &deadline)));
                }
                results
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
            });
        }
    });
    let mut done = results.into_inner().unwrap_or_else(|e| e.into_inner());
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// The result of analyzing one batch.
#[derive(Debug)]
pub struct BatchResult {
    /// The full conflict graph (every pair decided and annotated).
    pub graph: ConflictGraph,
    /// The conflict-free round schedule.
    pub schedule: Schedule,
    /// Counters for this batch.
    pub stats: SchedStats,
}

/// A stateful batch scheduler. The pattern interner and the pairwise
/// verdict cache persist across batches, so steady traffic with
/// recurring operation shapes converges to pure cache lookups.
pub struct Scheduler {
    cfg: SchedConfig,
    interner: Interner,
    cache: HashMap<PairKey, Verdict>,
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new(SchedConfig::default())
    }
}

impl Scheduler {
    /// A scheduler with the given configuration.
    pub fn new(cfg: SchedConfig) -> Scheduler {
        Scheduler {
            cfg,
            interner: Interner::new(),
            cache: HashMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Replaces the configuration on a live scheduler.
    ///
    /// The pairwise verdict cache is keyed by operation-pair shape only,
    /// so any memoized verdict is implicitly *relative to the config it
    /// was computed under*: a `ConservativeBudget` verdict reached with
    /// `np_max_trees = 10` must not survive a raise to 200 000, or the
    /// pair stays frozen conservative forever. If any verdict-affecting
    /// field changes (`semantics`, `np_max_nodes`, `np_max_trees`), the
    /// cache is flushed and the next batch re-analyzes; resource-envelope
    /// fields (`jobs`, `pair_deadline`) never reach a memoized verdict —
    /// deadline and panic degradations are excluded from the cache — so
    /// changing them keeps it.
    pub fn set_config(&mut self, cfg: SchedConfig) {
        let invalidates = self.cfg.semantics != cfg.semantics
            || self.cfg.np_max_nodes != cfg.np_max_nodes
            || self.cfg.np_max_trees != cfg.np_max_trees;
        if invalidates && !self.cache.is_empty() {
            cxu_obs::counter!("sched.cache.invalidate").add(self.cache.len() as u64);
            cxu_obs::trace::event(
                "sched.cache.invalidate",
                &[("dropped", self.cache.len().into())],
            );
            self.cache.clear();
        }
        self.cfg = cfg;
    }

    /// Number of memoized pairwise verdicts.
    pub fn cached_verdicts(&self) -> usize {
        self.cache.len()
    }

    /// Decides one pair under a caller-supplied deadline — the serving
    /// hot path (`check` route): no graph, no rounds, no thread fan-out,
    /// just interner + memo cache + one detector invocation.
    ///
    /// The batch path's lookup → task → commit, for one pair: every
    /// non-trivial pair costs one `sched.cache.lookups`; hits are served
    /// from memory; misses run the sound pre-filter, then the detectors;
    /// exact and budget verdicts are memoized while transient
    /// degradations (expired deadline, panic) are skipped
    /// (`sched.cache.skips`) so a later call retries them.
    pub fn check_pair(&mut self, a: &Op, b: &Op, deadline: &Deadline) -> PairDecision {
        match self.lookup_pair(a, b) {
            PairLookup::Ready(d) => d,
            PairLookup::Miss(task) => {
                let verdict = self.commit_pair(task.key(), task.run(deadline));
                PairDecision {
                    verdict,
                    cached: false,
                }
            }
        }
    }

    /// The lock-friendly half of [`Scheduler::check_pair`]: interns both
    /// operations, probes the memo cache and, on a miss, runs the sound
    /// pre-filter on the interned summaries (a few comparisons). It
    /// returns a ready decision — trivial, cached, or prefiltered and
    /// memoized — or a detached [`PairTask`]. Callers holding this
    /// scheduler behind a mutex release it before running the task and
    /// re-take it only for [`Scheduler::commit_pair`], so a slow
    /// (NP-side) pair never head-of-line-blocks other lookups on the
    /// same shard.
    pub fn lookup_pair(&mut self, a: &Op, b: &Op) -> PairLookup {
        let ka = self.interner.intern_op(a);
        let kb = self.interner.intern_op(b);
        self.lookup(ka, kb, a, b)
    }

    /// [`Scheduler::lookup_pair`] for two ops already interned as `ka`
    /// and `kb`.
    fn lookup(&mut self, ka: OpKey, kb: OpKey, a: &Op, b: &Op) -> PairLookup {
        // Identical keys commute with themselves (both orders are the
        // same sequence), and reads never conflict: no detector or cache
        // entry needed.
        if ka == kb || (!a.is_update() && !b.is_update()) {
            return PairLookup::Ready(PairDecision {
                verdict: Verdict::trivial(),
                cached: false,
            });
        }
        let pk = PairKey::new(ka, kb);
        cxu_obs::counter!("sched.cache.lookups").inc();
        if let Some(&verdict) = self.cache.get(&pk) {
            cxu_obs::counter!("sched.cache.hits").inc();
            return PairLookup::Ready(PairDecision {
                verdict,
                cached: true,
            });
        }
        cxu_obs::counter!("sched.cache.misses").inc();
        let (ia, ib) = (self.interner.info(ka), self.interner.info(kb));
        if let Some(verdict) = prefilter(a, ia, b, ib, self.cfg.semantics) {
            // Exact for the pair shape under this config, so memoized.
            self.cache.insert(pk, verdict);
            return PairLookup::Ready(PairDecision {
                verdict,
                cached: false,
            });
        }
        PairLookup::Miss(Box::new(PairTask {
            key: pk,
            a: a.clone(),
            ia: ia.cloned(),
            b: b.clone(),
            ib: ib.cloned(),
            cfg: self.cfg,
        }))
    }

    /// Feeds a [`PairTask`]'s verdict back into the memo cache and
    /// returns the cache's authoritative verdict for the pair.
    ///
    /// First writer wins: if another worker (or a steal) already
    /// committed this key, the existing entry is kept and returned —
    /// the cache can never hold two conflicting verdicts for one pair,
    /// which is the soundness invariant the work-stealing path relies
    /// on. Transient degradations (expired deadline, detector panic)
    /// are never memoized (`sched.cache.skips`), matching
    /// [`Scheduler::check_pair`]'s discipline, so a later call retries
    /// them.
    pub fn commit_pair(&mut self, key: PairKey, verdict: Verdict) -> Verdict {
        if let Some(&existing) = self.cache.get(&key) {
            return existing;
        }
        if matches!(
            verdict.detector,
            Detector::ConservativeDeadline | Detector::ConservativePanic
        ) {
            cxu_obs::counter!("sched.cache.skips").inc();
        } else {
            self.cache.insert(key, verdict);
        }
        verdict
    }

    /// Analyzes a batch and schedules it into conflict-free rounds.
    pub fn run(&mut self, ops: &[Op]) -> BatchResult {
        self.run_until(ops, &Deadline::never())
    }

    /// [`Scheduler::run`] under a batch deadline: each pair's analysis
    /// stops at the earlier of `deadline` and its
    /// [`SchedConfig::pair_deadline`] slice, so the batch ends close to
    /// `deadline`. A pair cut short — by the clock or by the deadline's
    /// cancel token — degrades to a conservative conflict
    /// ([`Detector::ConservativeDeadline`]); the batch still completes
    /// with a valid (more serial) schedule.
    pub fn run_until(&mut self, ops: &[Op], deadline: &Deadline) -> BatchResult {
        let (graph, mut stats) = self.analyze_inner(ops, deadline);
        let t0 = std::time::Instant::now();
        let round_span = cxu_obs::span("sched.rounds");
        let sched = schedule(&graph);
        drop(round_span);
        cxu_obs::histogram!("sched.rounds_ns").record_since(t0);
        stats.rounds = sched.len();
        cxu_obs::counter!("sched.batches").inc();
        if cxu_obs::trace::enabled() {
            cxu_obs::trace::event(
                "sched.batch",
                &[
                    ("ops", stats.ops.into()),
                    ("pairs_total", stats.pairs_total.into()),
                    ("pairs_analyzed", stats.pairs_analyzed.into()),
                    ("cache_hits", stats.cache_hits.into()),
                    ("prefilter_skips", stats.prefilter_skips.into()),
                    ("conflict_edges", stats.conflict_edges.into()),
                    ("degraded_budget", stats.degraded_budget.into()),
                    ("degraded_deadline", stats.degraded_deadline.into()),
                    ("degraded_panic", stats.degraded_panic.into()),
                    ("rounds", stats.rounds.into()),
                ],
            );
        }
        BatchResult {
            graph,
            schedule: sched,
            stats,
        }
    }

    /// [`Scheduler::run`] over a pidgin program's statements.
    pub fn run_program(&mut self, p: &Program) -> BatchResult {
        self.run(&ops_of_program(p))
    }

    /// Builds the conflict graph for a batch: intern every op, look
    /// every pair up, run the distinct misses in parallel, commit.
    pub fn analyze(&mut self, ops: &[Op]) -> (ConflictGraph, SchedStats) {
        self.analyze_inner(ops, &Deadline::never())
    }

    fn analyze_inner(&mut self, ops: &[Op], deadline: &Deadline) -> (ConflictGraph, SchedStats) {
        let n = ops.len();
        let t0 = std::time::Instant::now();
        let analyze_span = cxu_obs::span("sched.analyze");
        let mut stats = SchedStats {
            ops: n,
            pairs_total: n * n.saturating_sub(1) / 2,
            jobs: self.cfg.jobs.max(1),
            ..SchedStats::default()
        };

        // One intern (and compile-cache probe) per op, not per pair.
        let keys: Vec<OpKey> = ops.iter().map(|op| self.interner.intern_op(op)).collect();
        stats.distinct_shapes = self.interner.distinct_patterns();

        // Look every pair up. Trivial pairs, cache hits and pre-filtered
        // misses come back decided; each distinct remaining key becomes
        // one task. A later occurrence of a queued key is served by that
        // task's verdict, so it counts as a cache hit, like a repeat of
        // a memoized one — across any run, lookups = hits + misses and
        // misses = pairs analyzed + pairs prefiltered.
        let mut edges: Vec<Edge> = Vec::with_capacity(stats.pairs_total);
        let mut tasks: Vec<Box<PairTask>> = Vec::new();
        let mut queued: HashMap<PairKey, usize> = HashMap::new();
        // (a, b, task index, cached): only a task's first edge paid for
        // its analysis.
        let mut pending: Vec<(usize, usize, usize, bool)> = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if let Some(&t) = queued.get(&PairKey::new(keys[a], keys[b])) {
                    cxu_obs::counter!("sched.cache.lookups").inc();
                    cxu_obs::counter!("sched.cache.hits").inc();
                    stats.cache_hits += 1;
                    pending.push((a, b, t, true));
                    continue;
                }
                match self.lookup(keys[a], keys[b], &ops[a], &ops[b]) {
                    PairLookup::Ready(d) => {
                        if d.cached {
                            stats.cache_hits += 1;
                        } else if d.verdict.detector == Detector::Trivial {
                            stats.trivial += 1;
                        } else {
                            stats.prefilter_skips += 1;
                        }
                        edges.push(Edge {
                            a,
                            b,
                            verdict: d.verdict,
                            cached: d.cached,
                        });
                    }
                    PairLookup::Miss(task) => {
                        queued.insert(task.key(), tasks.len());
                        pending.push((a, b, tasks.len(), false));
                        tasks.push(task);
                    }
                }
            }
        }
        stats.pairs_analyzed = tasks.len();

        // Commit in task order. Transient degradations (expired
        // deadline, cancellation, detector panic) are not memoized — they
        // reflect this batch's resource envelope, not the pair itself —
        // but still decide this batch's edges.
        let verdicts: Vec<Verdict> = run_tasks(&tasks, self.cfg.jobs, deadline)
            .into_iter()
            .zip(&tasks)
            .map(|(verdict, task)| self.commit_pair(task.key(), verdict))
            .collect();
        for (a, b, t, cached) in pending {
            edges.push(Edge {
                a,
                b,
                verdict: verdicts[t],
                cached,
            });
        }
        edges.sort_unstable_by_key(|e| (e.a, e.b));
        for e in &edges {
            match e.verdict.detector {
                Detector::Trivial => {}
                Detector::PrefilterNoConflict => {}
                Detector::PtimeLinearRead => stats.ptime_linear_read += 1,
                Detector::PtimeLinearUpdates => stats.ptime_linear_updates += 1,
                Detector::WitnessSearch => stats.witness_search += 1,
                Detector::ConservativeUndecided => stats.conservative += 1,
                Detector::ConservativeBudget => {
                    stats.conservative += 1;
                    stats.degraded_budget += 1;
                }
                Detector::ConservativeDeadline => {
                    stats.conservative += 1;
                    stats.degraded_deadline += 1;
                }
                Detector::ConservativePanic => {
                    stats.conservative += 1;
                    stats.degraded_panic += 1;
                }
            }
            if e.verdict.conflict {
                stats.conflict_edges += 1;
            }
        }

        // Edge-level degradation breakdown (counts *edges*, unlike the
        // per-analysis `sched.route.*` counters: one starved analysis
        // repeated across a batch degrades many edges).
        cxu_obs::counter!("sched.degraded.budget").add(stats.degraded_budget as u64);
        cxu_obs::counter!("sched.degraded.deadline").add(stats.degraded_deadline as u64);
        cxu_obs::counter!("sched.degraded.panic").add(stats.degraded_panic as u64);
        cxu_obs::histogram!("sched.analyze_ns").record_since(t0);
        analyze_span.close_with(&[
            ("ops", stats.ops.into()),
            ("pairs_analyzed", stats.pairs_analyzed.into()),
        ]);

        (ConflictGraph::new(n, edges), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_gen::parse::parse_program;
    use cxu_ops::{Insert, Read, Update};
    use cxu_pattern::xpath::parse;
    use cxu_tree::text;

    fn read(p: &str) -> Op {
        Op::Read(Read::new(parse(p).unwrap()))
    }

    fn ins(p: &str, x: &str) -> Op {
        Op::Update(Update::Insert(Insert::new(
            parse(p).unwrap(),
            text::parse(x).unwrap(),
        )))
    }

    #[test]
    fn section1_batch() {
        let p = parse_program("y = read $x//A; insert $x/B, C; z = read $x//C").unwrap();
        let mut s = Scheduler::default();
        let out = s.run_program(&p);
        assert_eq!(out.stats.pairs_total, 3);
        // read//A vs insert: independent; insert vs read//C: conflict;
        // the two reads: trivial.
        assert!(out.graph.conflict(1, 2));
        assert!(!out.graph.conflict(0, 1));
        assert_eq!(out.stats.trivial, 1);
        assert_eq!(out.schedule.rounds, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn repeats_hit_the_cache_within_a_batch() {
        // Ten copies of the same read/update shapes: one real analysis.
        let mut ops = Vec::new();
        for _ in 0..5 {
            ops.push(read("x//C"));
            ops.push(ins("x/B", "C"));
        }
        let mut s = Scheduler::default();
        let out = s.run(&ops);
        assert_eq!(out.stats.pairs_total, 45);
        assert_eq!(out.stats.pairs_analyzed, 1, "one distinct pair shape");
        assert!(out.stats.cache_hits > 0);
        // 5 read-read pairs + 10 insert-insert identical pairs = trivial.
        assert_eq!(out.stats.trivial, 20);
        assert_eq!(
            out.stats.pairs_analyzed + out.stats.cache_hits + out.stats.trivial,
            out.stats.pairs_total
        );
    }

    #[test]
    fn cache_persists_across_batches() {
        let batch = vec![read("x//C"), ins("x/B", "C")];
        let mut s = Scheduler::default();
        let first = s.run(&batch);
        assert_eq!(first.stats.pairs_analyzed, 1);
        assert_eq!(first.stats.cache_hits, 0);
        let second = s.run(&batch);
        assert_eq!(second.stats.pairs_analyzed, 0);
        assert_eq!(second.stats.cache_hits, 1);
        // Verdicts are identical either way.
        assert_eq!(
            first.graph.edges()[0].verdict,
            second.graph.edges()[0].verdict
        );
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let p = parse_program(
            "y = read $x//A; insert $x/B, C; z = read $x//C; delete $x/B/C; \
             w = read $x/B; insert $x/D, E; v = read $x//E",
        )
        .unwrap();
        let cfg1 = SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        };
        let cfg4 = SchedConfig {
            jobs: 4,
            ..SchedConfig::default()
        };
        let out1 = Scheduler::new(cfg1).run_program(&p);
        let out4 = Scheduler::new(cfg4).run_program(&p);
        assert_eq!(out1.schedule, out4.schedule);
        for (e1, e4) in out1.graph.edges().iter().zip(out4.graph.edges()) {
            assert_eq!((e1.a, e1.b), (e4.a, e4.b));
            assert_eq!(e1.verdict, e4.verdict);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let mut s = Scheduler::default();
        let out = s.run(&[]);
        assert_eq!(out.stats.pairs_total, 0);
        assert!(out.schedule.is_empty());
        let out1 = s.run(&[read("a/b")]);
        assert_eq!(out1.schedule.rounds, vec![vec![0]]);
    }

    #[test]
    fn zero_deadline_degrades_np_pairs_but_still_schedules() {
        // A branching read forces the NP route; with no time at all it
        // degrades to a conservative conflict, and the batch still
        // produces a (more serial) schedule.
        let ops = vec![read("a[b][c]"), ins("a[b]", "c"), read("x//Q")];
        let cfg = SchedConfig {
            pair_deadline: Some(std::time::Duration::ZERO),
            jobs: 1,
            ..SchedConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        let out = s.run(&ops);
        assert!(out.stats.degraded_deadline > 0);
        assert_eq!(out.stats.rounds, out.schedule.len());
        // Every op is scheduled exactly once.
        let mut seen: Vec<usize> = out.schedule.rounds.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn degraded_verdicts_are_not_memoized() {
        let ops = vec![read("a[b][c]"), ins("a[b]", "c")];
        let cfg = SchedConfig {
            pair_deadline: Some(std::time::Duration::ZERO),
            jobs: 1,
            ..SchedConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        let first = s.run(&ops);
        assert_eq!(first.stats.degraded_deadline, 1);
        assert_eq!(
            s.cached_verdicts(),
            0,
            "a deadline degradation must not poison the cache"
        );
        // Re-running re-analyzes the pair instead of serving the stale
        // conservative answer.
        let second = s.run(&ops);
        assert_eq!(second.stats.pairs_analyzed, 1);
        assert_eq!(second.stats.cache_hits, 0);
    }

    #[test]
    fn cancelled_batch_degrades_remaining_pairs() {
        use cxu_runtime::CancelToken;
        let token = CancelToken::new();
        token.cancel(); // cancel before the batch even starts
        let ops = vec![read("a[b][c]"), ins("a[b]", "c")];
        let cfg = SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        let out = s.run_until(&ops, &Deadline::never().with_token(&token));
        assert_eq!(out.stats.degraded_deadline, 1);
        assert!(out.graph.conflict(0, 1), "degraded pair must stay ordered");
        // Without the token the same pair is decided exactly.
        let out2 = s.run(&ops);
        assert_eq!(out2.stats.degraded_deadline, 0);
    }

    #[test]
    fn raising_the_budget_upgrades_conservative_verdicts() {
        // Regression: budget verdicts ARE memoized (they are a property
        // of pair + budget, stable while the config stands), so raising
        // the budget on a reused scheduler must flush them — otherwise
        // the pair stays frozen in ConservativeBudget forever.
        let ops = vec![read("a[b][c]"), ins("d", "f")];
        let starved = SchedConfig {
            np_max_trees: 10,
            jobs: 1,
            ..SchedConfig::default()
        };
        let mut s = Scheduler::new(starved);
        let first = s.run(&ops);
        assert_eq!(
            first.graph.edges()[0].verdict.detector,
            Detector::ConservativeBudget
        );
        assert!(first.graph.conflict(0, 1));
        assert_eq!(s.cached_verdicts(), 1, "budget verdicts are memoized");
        // Same config: the stale-but-valid verdict is served from cache.
        let again = s.run(&ops);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.stats.pairs_analyzed, 0);

        // Raise the budget: the cache must flush and the pair re-analyze
        // to the exact answer.
        s.set_config(SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        });
        assert_eq!(s.cached_verdicts(), 0, "config change flushes the cache");
        let third = s.run(&ops);
        assert_eq!(third.stats.pairs_analyzed, 1);
        assert_eq!(
            third.graph.edges()[0].verdict.detector,
            Detector::WitnessSearch
        );
        assert!(
            !third.graph.conflict(0, 1),
            "exact search proves independence"
        );

        // Changing only resource-envelope fields keeps the cache.
        let mut same_budget = *s.config();
        same_budget.jobs = 2;
        same_budget.pair_deadline = Some(std::time::Duration::from_secs(5));
        s.set_config(same_budget);
        assert_eq!(
            s.cached_verdicts(),
            1,
            "jobs/deadline change keeps verdicts"
        );
    }

    #[test]
    fn check_pair_matches_batch_verdicts() {
        let ops = vec![
            read("x//C"),
            ins("x/B", "C"),
            read("a[b][c]"),
            ins("d", "f"),
        ];
        let mut batch = Scheduler::new(SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        });
        let out = batch.run(&ops);
        let mut single = Scheduler::new(SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        });
        let deadline = Deadline::never();
        for e in out.graph.edges() {
            let d = single.check_pair(&ops[e.a], &ops[e.b], &deadline);
            assert_eq!(
                d.verdict, e.verdict,
                "pair ({}, {}) disagrees with the batch path",
                e.a, e.b
            );
        }
    }

    #[test]
    fn check_pair_memoizes_and_reports_cache_provenance() {
        let mut s = Scheduler::default();
        let (a, b) = (read("x//C"), ins("x/B", "C"));
        let deadline = Deadline::never();
        let first = s.check_pair(&a, &b, &deadline);
        assert!(!first.cached);
        assert!(first.verdict.conflict);
        let second = s.check_pair(&a, &b, &deadline);
        assert!(second.cached, "second call must be a cache hit");
        assert_eq!(second.verdict, first.verdict);
        // Order-normalized key: the swapped pair hits the same entry.
        let swapped = s.check_pair(&b, &a, &deadline);
        assert!(swapped.cached);
        // Trivial pairs never touch the cache.
        let rr = s.check_pair(&read("p/q"), &read("r//s"), &deadline);
        assert_eq!(rr.verdict.detector, Detector::Trivial);
        assert!(!rr.cached);
    }

    #[test]
    fn check_pair_deadline_degradations_are_not_memoized() {
        let mut s = Scheduler::new(SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        });
        let (a, b) = (read("a[b][c]"), ins("a[b]", "c"));
        let expired = Deadline::after(std::time::Duration::ZERO);
        let starved = s.check_pair(&a, &b, &expired);
        assert_eq!(starved.verdict.detector, Detector::ConservativeDeadline);
        assert!(starved.verdict.conflict, "degraded pair stays ordered");
        assert_eq!(s.cached_verdicts(), 0);
        // With time, the same pair is decided exactly and memoized.
        let exact = s.check_pair(&a, &b, &Deadline::never());
        assert!(!exact.cached);
        assert_ne!(exact.verdict.detector, Detector::ConservativeDeadline);
        assert_eq!(s.cached_verdicts(), 1);
    }

    #[test]
    fn identical_updates_share_a_round() {
        // Self-feeding insert whose pairwise analysis would be Unknown —
        // but identical keys are trivially commuting.
        let ops = vec![ins("a//b", "b"), ins("a//b", "b")];
        let mut s = Scheduler::default();
        let out = s.run(&ops);
        assert!(!out.graph.conflict(0, 1));
        assert_eq!(out.schedule.len(), 1);
        assert_eq!(out.stats.trivial, 1);
    }
}
