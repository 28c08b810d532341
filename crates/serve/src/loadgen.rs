//! Seeded load generator: closed-loop (optionally pipelined) and
//! open-loop (fixed arrival rate) modes.
//!
//! Replays a generated operation pool against a running server. The
//! default mode is **closed-loop**: `connections` client threads, each
//! with its own socket, each keeping at most `pipeline` requests in
//! flight (one batched write per window, responses drained in order) —
//! offered load adapts to service rate, so the measured throughput is
//! the sustained one. The pool and the request sequence derive from one
//! seed: same seed, same workload.
//!
//! **Open-loop** mode (`rate`) sends at a fixed arrival schedule
//! instead: request *k* is due at `t₀ + k/rate` regardless of how the
//! server is doing, which is how real independent clients behave. Open
//! loop measures latency two ways and reports both:
//!
//! * **corrected** — from the *intended* arrival time. When the server
//!   (or a backpressured socket) stalls the sender, every request that
//!   should have been sent during the stall still charges the stall to
//!   its latency. This is the honest number under load.
//! * **raw** — from the actual send, the classic closed-loop
//!   measurement. Comparing the two makes **coordinated omission**
//!   visible instead of silently flattering the server: a saturated
//!   server can show a calm raw p99 while the corrected p99 explodes.
//!
//! After the run, when `validate` is set, every distinct pair that got
//! a non-degraded server verdict is re-checked against an in-process
//! [`Scheduler`] with the same semantics; a disagreement between two
//! *exact* verdicts is a correctness failure (degraded verdicts are
//! resource-envelope answers and legitimately differ). The CI
//! `serve-smoke` job asserts `disagreements == 0`.

use cxu_gen::json::Json;
use cxu_gen::patterns::PatternParams;
use cxu_gen::program::{random_program, ProgramParams};
use cxu_gen::rng::{Rng, SplitMix64};
use cxu_gen::trees::{random_tree, TreeParams};
use cxu_gen::wire;
use cxu_ops::Semantics;
use cxu_sched::{ops_of_program, Deadline, Op, SchedConfig, Scheduler};
use cxu_tree::text;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workload shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadProfile {
    /// Linear patterns only (`branch_rate = 0`): every pair stays on
    /// the PTIME detectors — the throughput profile.
    Linear,
    /// A quarter of pattern nodes branch: a mix of PTIME and NP-side
    /// pairs — the degradation profile.
    Mixed,
    /// Concurrent editors racing `doc_put` against shared documents
    /// with (deliberately) stale base revisions — the document-store
    /// profile. Measures auto-merge vs. branch vs. reject rates.
    Store,
    /// Closed-loop `doc_check` traffic against static shared documents:
    /// read/update pairs judged by the document-grounded detector over
    /// the store's cached structural index — the index-serving profile.
    Grounded,
    /// Concurrent editors racing atomic multi-op transactions (the
    /// one-shot `txn` route) against shared documents, guarding at
    /// their last-seen winners — the transaction profile. Measures
    /// commit / conflict / retry rates and latency; with `validate`,
    /// replays every acked transaction's revisions against the store
    /// for all-or-nothing visibility.
    Txn,
}

impl LoadProfile {
    /// The profile name as spelled on the CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            LoadProfile::Linear => "linear",
            LoadProfile::Mixed => "mixed",
            LoadProfile::Store => "store",
            LoadProfile::Grounded => "grounded",
            LoadProfile::Txn => "txn",
        }
    }

    /// Parses a CLI spelling.
    pub fn from_name(s: &str) -> Result<LoadProfile, String> {
        match s {
            "linear" => Ok(LoadProfile::Linear),
            "mixed" => Ok(LoadProfile::Mixed),
            "store" => Ok(LoadProfile::Store),
            "grounded" => Ok(LoadProfile::Grounded),
            "txn" => Ok(LoadProfile::Txn),
            other => Err(format!(
                "unknown profile {other:?} (linear|mixed|store|grounded|txn)"
            )),
        }
    }

    fn branch_rate(self) -> f64 {
        match self {
            LoadProfile::Linear => 0.0,
            LoadProfile::Mixed => 0.25,
            // Mostly-linear update patterns keep most merge checks on
            // the exact PTIME detectors while still exercising the
            // conservative-verdict-must-branch rung now and then.
            LoadProfile::Store => 0.15,
            // Enough branching reads to exercise the index's table
            // (postings-join) path alongside the linear chain path.
            LoadProfile::Grounded => 0.2,
            // Same rationale as the store profile: mostly-exact merge
            // and cross-pair checks, with occasional conservative ones.
            LoadProfile::Txn => 0.15,
        }
    }
}

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Wall-clock run budget.
    pub duration: Duration,
    /// Optional per-connection request cap (whichever stop criterion
    /// hits first ends that connection's loop).
    pub requests_per_conn: Option<u64>,
    /// Workload seed.
    pub seed: u64,
    /// Workload shape.
    pub profile: LoadProfile,
    /// Semantics sent with every request.
    pub semantics: Semantics,
    /// Per-request deadline override (`deadline_ms` field), if any.
    pub deadline_ms: Option<u64>,
    /// Artificial worker-side delay per request (overload testing).
    pub delay_ms: u64,
    /// Re-check verdicts against an in-process scheduler after the run.
    pub validate: bool,
    /// Operations in the generated pool.
    pub pool_len: usize,
    /// Shared documents in the `store` profile (ignored elsewhere).
    /// Fewer documents ⇒ more editors per document ⇒ staler bases.
    pub docs: usize,
    /// Retry budget per request: `overloaded` answers and transport
    /// errors back off and resend up to this many times (0 = today's
    /// fail-fast behavior). Safe end to end because a resent `doc_put`
    /// replays idempotently server-side.
    pub retries: u32,
    /// Base backoff before the first retry; attempt `n` waits
    /// `base × 2ⁿ` plus a seeded jitter of up to one base.
    pub backoff_ms: u64,
    /// Closed-loop pipelining window: requests kept in flight per
    /// connection (1 = classic request/response lockstep). Each window
    /// is one buffered write; responses are drained in order. Retries
    /// apply only at window 1.
    pub pipeline: usize,
    /// Open-loop mode: total intended arrival rate in requests/second,
    /// spread evenly across connections. `None` (default) runs closed
    /// loop. Open-loop latencies are reported both raw and
    /// coordinated-omission-corrected.
    pub rate: Option<f64>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: String::new(),
            connections: 8,
            duration: Duration::from_millis(1500),
            requests_per_conn: None,
            seed: 42,
            profile: LoadProfile::Linear,
            semantics: Semantics::Value,
            deadline_ms: None,
            delay_ms: 0,
            validate: false,
            pool_len: 60,
            docs: 4,
            retries: 0,
            backoff_ms: 25,
            pipeline: 1,
            rate: None,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// `ok: true` responses.
    pub completed: u64,
    /// `overloaded` rejections (final, after any retries).
    pub overloaded: u64,
    /// Any other failure (errors, short reads, disconnects), final.
    pub failed: u64,
    /// Attempts that were retried after backoff. Each retried attempt
    /// also counts in `sent`, so
    /// `sent == completed + overloaded + failed + retries`.
    pub retries: u64,
    /// Wall-clock time from first send to last response.
    pub elapsed: Duration,
    /// Completed-response latency percentiles, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: u64,
    /// Distinct pairs re-checked during validation (for the `store`
    /// profile: documents and feed pages cross-checked).
    pub checked_pairs: usize,
    /// Exact-vs-exact verdict mismatches found by validation (for the
    /// `store` profile: changes-feed / winner consistency failures).
    pub disagreements: usize,
    /// Store profile: `doc_put` outcomes by result, as reported by the
    /// server (`created` counts resurrections too).
    pub store: StoreTallies,
    /// Txn profile: one-shot transaction outcomes by result.
    pub txn: TxnTallies,
    /// Echo of the run parameters.
    pub seed: u64,
    /// Echo: connections used.
    pub connections: usize,
    /// Echo: profile name.
    pub profile: &'static str,
    /// Echo: closed-loop pipelining window (1 = lockstep).
    pub pipeline: usize,
    /// Open-loop target arrival rate, if the run was open loop.
    pub open_loop_rate: Option<f64>,
    /// Open loop only: percentiles measured from the *intended* arrival
    /// time (coordinated-omission corrected). Zero in closed loop.
    pub corrected_p50_us: u64,
    /// Corrected 99th percentile (open loop only).
    pub corrected_p99_us: u64,
    /// Corrected worst case (open loop only).
    pub corrected_max_us: u64,
    /// Corrected mean (open loop only).
    pub corrected_mean_us: u64,
}

/// `doc_put` / `doc_delete` outcome tallies (store profile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreTallies {
    /// `result: "created"` responses (creations and resurrections).
    pub created: u64,
    /// `result: "applied"` — uncontended fast-path puts.
    pub applied: u64,
    /// `result: "noop"` — idempotent replays.
    pub noop: u64,
    /// `result: "merged"` — stale base, provably commuting.
    pub merged: u64,
    /// `result: "branched"` — stale base, conflicting or unproven.
    pub branched: u64,
    /// `result: "rejected"` — answered rejections (tombstoned winner,
    /// unknown revision, and similar).
    pub rejected: u64,
}

impl StoreTallies {
    fn total(&self) -> u64 {
        self.created + self.applied + self.noop + self.merged + self.branched + self.rejected
    }

    fn add(&mut self, other: &StoreTallies) {
        self.created += other.created;
        self.applied += other.applied;
        self.noop += other.noop;
        self.merged += other.merged;
        self.branched += other.branched;
        self.rejected += other.rejected;
    }

    fn record(&mut self, result: &str) {
        match result {
            "created" => self.created += 1,
            "applied" => self.applied += 1,
            "noop" => self.noop += 1,
            "merged" => self.merged += 1,
            "branched" => self.branched += 1,
            _ => self.rejected += 1,
        }
    }
}

/// One-shot `txn` outcome tallies (txn profile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnTallies {
    /// `result: "applied"` with `replayed: false` — first-attempt commits.
    pub applied: u64,
    /// `result: "applied"` with `replayed: true` — idempotent replays of
    /// transactions whose first attempt actually committed.
    pub replayed: u64,
    /// `result: "conflict"` — retryable optimistic-concurrency losses
    /// (stale guards that do not commute with the winning edits).
    pub conflicted: u64,
    /// `result: "rejected"` — non-retryable refusals.
    pub rejected: u64,
    /// Conflict-driven resubmissions: each one refreshed its guards
    /// from the server's winners and sent the same program again.
    pub conflict_retries: u64,
}

impl TxnTallies {
    fn total(&self) -> u64 {
        self.applied + self.replayed + self.conflicted + self.rejected
    }

    fn add(&mut self, other: &TxnTallies) {
        self.applied += other.applied;
        self.replayed += other.replayed;
        self.conflicted += other.conflicted;
        self.rejected += other.rejected;
        self.conflict_retries += other.conflict_retries;
    }
}

impl LoadReport {
    /// Completed requests per second of elapsed time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of sent requests rejected by admission control.
    pub fn rejection_rate(&self) -> f64 {
        if self.sent > 0 {
            self.overloaded as f64 / self.sent as f64
        } else {
            0.0
        }
    }

    /// Renders the `BENCH_SERVE.json` document — or `BENCH_STORE.json`
    /// when the run used the `store` profile, in which case the extra
    /// `store` object breaks completed puts down by outcome and gives
    /// the headline merge / branch / reject rates.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            (
                "bench",
                Json::str(match self.profile {
                    "store" => "store",
                    "grounded" => "grounded",
                    "txn" => "txn",
                    _ => "serve",
                }),
            ),
            ("profile", Json::str(self.profile)),
            ("seed", Json::from(self.seed)),
            ("connections", Json::from(self.connections)),
            (
                "duration_ms",
                Json::from(self.elapsed.as_millis().min(u64::MAX as u128) as u64),
            ),
            ("pipeline", Json::from(self.pipeline.max(1))),
            (
                "mode",
                Json::str(if self.open_loop_rate.is_some() {
                    "open-loop"
                } else {
                    "closed-loop"
                }),
            ),
            ("sent", Json::from(self.sent)),
            ("completed", Json::from(self.completed)),
            ("overloaded", Json::from(self.overloaded)),
            ("failed", Json::from(self.failed)),
            ("retries", Json::from(self.retries)),
            ("throughput_rps", Json::from(self.throughput_rps())),
            ("rejection_rate", Json::from(self.rejection_rate())),
            (
                "latency_us",
                Json::obj(vec![
                    ("p50", Json::from(self.p50_us)),
                    ("p99", Json::from(self.p99_us)),
                    ("max", Json::from(self.max_us)),
                    ("mean", Json::from(self.mean_us)),
                ]),
            ),
            ("checked_pairs", Json::from(self.checked_pairs)),
            ("disagreements", Json::from(self.disagreements)),
        ];
        if let Some(rate) = self.open_loop_rate {
            members.push(("target_rate_rps", Json::from(rate)));
            // The raw `latency_us` above times from the actual send; the
            // corrected block times from the intended arrival — the gap
            // between the two is the coordinated omission the raw number
            // hides.
            members.push((
                "latency_corrected_us",
                Json::obj(vec![
                    ("p50", Json::from(self.corrected_p50_us)),
                    ("p99", Json::from(self.corrected_p99_us)),
                    ("max", Json::from(self.corrected_max_us)),
                    ("mean", Json::from(self.corrected_mean_us)),
                ]),
            ));
        }
        if self.profile == "store" {
            let s = &self.store;
            let total = s.total();
            let stale = s.merged + s.branched;
            let rate = |n: u64, d: u64| if d > 0 { n as f64 / d as f64 } else { 0.0 };
            members.push((
                "store",
                Json::obj(vec![
                    ("puts", Json::from(total)),
                    ("created", Json::from(s.created)),
                    ("applied", Json::from(s.applied)),
                    ("noop", Json::from(s.noop)),
                    ("merged", Json::from(s.merged)),
                    ("branched", Json::from(s.branched)),
                    ("rejected", Json::from(s.rejected)),
                    // Of the puts that arrived with a stale base, how
                    // many the detectors proved safe to merge.
                    ("merge_rate", Json::from(rate(s.merged, stale))),
                    ("branch_rate", Json::from(rate(s.branched, stale))),
                    ("reject_rate", Json::from(rate(s.rejected, total))),
                ]),
            ));
        }
        if self.profile == "txn" {
            let t = &self.txn;
            let total = t.total();
            let decided = t.applied + t.conflicted;
            let rate = |n: u64, d: u64| if d > 0 { n as f64 / d as f64 } else { 0.0 };
            members.push((
                "txn",
                Json::obj(vec![
                    ("txns", Json::from(total)),
                    ("applied", Json::from(t.applied)),
                    ("replayed", Json::from(t.replayed)),
                    ("conflicted", Json::from(t.conflicted)),
                    ("rejected", Json::from(t.rejected)),
                    ("conflict_retries", Json::from(t.conflict_retries)),
                    // Of the first-attempt commit/conflict decisions, how
                    // many the optimistic path admitted outright.
                    ("commit_rate", Json::from(rate(t.applied, decided))),
                    ("conflict_rate", Json::from(rate(t.conflicted, decided))),
                    ("retry_rate", Json::from(rate(t.conflict_retries, total))),
                ]),
            ));
        }
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
        .to_string()
    }
}

/// Renders a `BENCH_SERVE.json` with a saturation sweep attached: the
/// headline (closed-loop) run's fields plus a `sweep` array, one entry
/// per open-loop rate point, each reporting throughput, rejections, and
/// both raw and corrected latency percentiles. Graceful degradation
/// reads directly off the array: corrected p99 stays flat and
/// `overloaded` stays at zero up to the knee, and past it the rejection
/// rate — not the latency of accepted requests — absorbs the overload.
pub fn sweep_to_json(headline: &LoadReport, points: &[LoadReport]) -> String {
    let mut members = match Json::parse(&headline.to_json()) {
        Ok(Json::Obj(m)) => m,
        _ => Vec::new(),
    };
    let pts: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj(vec![
                (
                    "target_rate_rps",
                    Json::from(p.open_loop_rate.unwrap_or(0.0)),
                ),
                ("throughput_rps", Json::from(p.throughput_rps())),
                ("sent", Json::from(p.sent)),
                ("completed", Json::from(p.completed)),
                ("overloaded", Json::from(p.overloaded)),
                ("failed", Json::from(p.failed)),
                ("rejection_rate", Json::from(p.rejection_rate())),
                (
                    "latency_us",
                    Json::obj(vec![
                        ("p50", Json::from(p.p50_us)),
                        ("p99", Json::from(p.p99_us)),
                        ("max", Json::from(p.max_us)),
                    ]),
                ),
                (
                    "latency_corrected_us",
                    Json::obj(vec![
                        ("p50", Json::from(p.corrected_p50_us)),
                        ("p99", Json::from(p.corrected_p99_us)),
                        ("max", Json::from(p.corrected_max_us)),
                    ]),
                ),
            ])
        })
        .collect();
    members.push(("sweep".to_owned(), Json::Arr(pts)));
    Json::Obj(members).to_string()
}

fn sem_name(s: Semantics) -> &'static str {
    match s {
        Semantics::Node => "node",
        Semantics::Tree => "tree",
        Semantics::Value => "value",
    }
}

/// One connection's tallies, merged after the join.
#[derive(Default)]
struct ConnResult {
    sent: u64,
    completed: u64,
    overloaded: u64,
    failed: u64,
    retries: u64,
    latencies_us: Vec<u64>,
    /// Open loop only: latencies from the *intended* arrival time.
    corrected_us: Vec<u64>,
    /// `(i, j, conflict)` for non-degraded `ok` verdicts, by pool index.
    observations: Vec<(usize, usize, bool)>,
    /// Store-profile outcome tallies.
    store: StoreTallies,
    /// Txn-profile outcome tallies.
    txn: TxnTallies,
    /// Txn profile with `validate`: the `(doc, rev)` sets the server
    /// acked as applied, one entry per committed transaction.
    acked_txns: Vec<Vec<(String, String)>>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the workload and gathers the report.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, String> {
    if cfg.profile == LoadProfile::Store {
        return run_store(cfg);
    }
    if cfg.profile == LoadProfile::Grounded {
        return run_grounded(cfg);
    }
    if cfg.profile == LoadProfile::Txn {
        return run_txn(cfg);
    }
    // The pool is generated once from the seed; each connection derives
    // its own request stream from seed ⊕ connection index.
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = cfg.profile.branch_rate();
    let params = ProgramParams {
        len: cfg.pool_len.max(2),
        update_rate: 0.5,
        delete_rate: 0.4,
        pattern,
    };
    let program = random_program(&mut rng, &params);
    let ops: Vec<Op> = ops_of_program(&program);
    let op_json: Vec<String> = program
        .stmts
        .iter()
        .map(|s| wire::stmt_to_json(s).to_string())
        .collect();

    // Probe the address once before spawning the fleet, for a clean
    // error instead of `connections` copies of it.
    TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;

    let rate_per_conn = cfg.rate.map(|r| r.max(1.0) / cfg.connections.max(1) as f64);
    let t0 = Instant::now();
    let end = t0 + cfg.duration;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|c| {
                let op_json = &op_json;
                scope.spawn(move || match rate_per_conn {
                    Some(rate) => open_loop_conn(cfg, c as u64, op_json, end, rate),
                    None if cfg.pipeline > 1 => pipelined_loop(cfg, c as u64, op_json, end),
                    None => connection_loop(cfg, c as u64, op_json, end),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = t0.elapsed();

    let mut report = LoadReport {
        elapsed,
        seed: cfg.seed,
        connections: cfg.connections.max(1),
        profile: cfg.profile.name(),
        pipeline: cfg.pipeline.max(1),
        open_loop_rate: cfg.rate,
        ..LoadReport::default()
    };
    let mut observations: Vec<(usize, usize, bool)> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut corrected: Vec<u64> = Vec::new();
    for r in results {
        report.sent += r.sent;
        report.completed += r.completed;
        report.overloaded += r.overloaded;
        report.failed += r.failed;
        report.retries += r.retries;
        latencies.extend(r.latencies_us);
        corrected.extend(r.corrected_us);
        observations.extend(r.observations);
    }
    fill_latencies(&mut report, latencies, corrected);

    if cfg.validate {
        let (checked, disagreements) = validate(&ops, &observations, cfg.semantics);
        report.checked_pairs = checked;
        report.disagreements = disagreements;
    }
    Ok(report)
}

fn fill_latencies(report: &mut LoadReport, mut raw: Vec<u64>, mut corrected: Vec<u64>) {
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0
        } else {
            v.iter().sum::<u64>() / v.len() as u64
        }
    };
    raw.sort_unstable();
    report.p50_us = percentile(&raw, 0.50);
    report.p99_us = percentile(&raw, 0.99);
    report.max_us = raw.last().copied().unwrap_or(0);
    report.mean_us = mean(&raw);
    corrected.sort_unstable();
    report.corrected_p50_us = percentile(&corrected, 0.50);
    report.corrected_p99_us = percentile(&corrected, 0.99);
    report.corrected_max_us = corrected.last().copied().unwrap_or(0);
    report.corrected_mean_us = mean(&corrected);
}

/// A line-oriented NDJSON client (setup and validation passes of the
/// store profile, and the crash harness's probes).
pub(crate) struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    pub(crate) fn connect(addr: &str) -> Result<LineClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(LineClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    pub(crate) fn roundtrip(&mut self, req: &str) -> Result<Json, String> {
        self.writer
            .write_all(req.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            other => return Err(format!("read: {other:?}")),
        }
        Json::parse(line.trim_end()).map_err(|e| format!("bad response line: {e}"))
    }
}

/// A [`LineClient`] with bounded retry: an `overloaded` answer or a
/// transport error sleeps a jittered exponential backoff and resends
/// (reconnecting first for transport errors), up to `retries` times.
/// The end-to-end safety argument is the store's replay idempotence: a
/// resent `doc_put` whose original actually committed resolves to a
/// noop at the originally minted revision, never a second apply.
struct RetryClient {
    addr: String,
    client: Option<LineClient>,
    retries: u32,
    backoff: Duration,
    /// Attempts that were retried (each also counted as sent).
    retried: u64,
}

impl RetryClient {
    fn connect(cfg: &LoadConfig) -> Result<RetryClient, String> {
        Ok(RetryClient {
            addr: cfg.addr.clone(),
            client: Some(LineClient::connect(&cfg.addr)?),
            retries: cfg.retries,
            backoff: Duration::from_millis(cfg.backoff_ms.max(1)),
            retried: 0,
        })
    }

    fn sleep_before(&self, attempt: u32, rng: &mut SplitMix64) {
        let exp = self.backoff * (1u32 << (attempt - 1).min(6));
        let base_ms = self.backoff.as_millis().max(1) as usize;
        let jitter = Duration::from_millis(rng.gen_range(0..base_ms) as u64);
        std::thread::sleep(exp + jitter);
    }

    /// Sends one request, retrying per policy. `sent` is bumped for
    /// every attempt (the caller already counted the first one).
    /// `Err` means the transport died with the budget exhausted.
    fn roundtrip(
        &mut self,
        req: &str,
        rng: &mut SplitMix64,
        sent: &mut u64,
    ) -> Result<Json, String> {
        let mut attempt = 0u32;
        loop {
            let resp = match self.client.as_mut() {
                Some(c) => c.roundtrip(req),
                None => Err("not connected".to_owned()),
            };
            match resp {
                Ok(v) => {
                    let overloaded = v.get("ok").and_then(Json::as_bool) != Some(true)
                        && v.get("error").and_then(Json::as_str) == Some("overloaded");
                    if overloaded && attempt < self.retries {
                        attempt += 1;
                        self.retried += 1;
                        *sent += 1;
                        self.sleep_before(attempt, rng);
                        continue;
                    }
                    return Ok(v);
                }
                Err(e) => {
                    self.client = None;
                    if attempt < self.retries {
                        attempt += 1;
                        self.retried += 1;
                        *sent += 1;
                        self.sleep_before(attempt, rng);
                        self.client = LineClient::connect(&self.addr).ok();
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// The store-profile run: seeded concurrent editors racing `doc_put`
/// against `cfg.docs` shared documents. Each editor tracks the winner
/// revision it last saw per document and uses it as `base_rev` — under
/// concurrency that view is naturally stale, which is precisely the
/// workload the auto-merge rung exists for.
fn run_store(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = cfg.profile.branch_rate();
    let params = ProgramParams {
        len: cfg.pool_len.max(2),
        // Update-only: the put path rejects reads at the parser.
        update_rate: 1.0,
        delete_rate: 0.3,
        pattern,
    };
    let program = random_program(&mut rng, &params);
    let op_json: Vec<String> = program
        .stmts
        .iter()
        .map(|s| wire::stmt_to_json(s).to_string())
        .collect();

    let extras = request_extras(cfg);
    let docs = cfg.docs.max(1);

    // Setup pass: create the shared documents, collecting their initial
    // revisions. The document trees share the update pool's label
    // alphabet, so patterns actually touch them.
    let tparams = TreeParams {
        nodes: 12,
        alphabet: 6,
        ..TreeParams::default()
    };
    let mut setup = LineClient::connect(&cfg.addr)?;
    let mut init_revs: Vec<String> = Vec::with_capacity(docs);
    for d in 0..docs {
        let content = text::to_text(&random_tree(&mut rng, &tparams));
        let v = setup.roundtrip(&format!(
            "{{\"route\": \"doc_put\", \"doc\": \"doc-{d}\", \"content\": \"{content}\"{extras}}}"
        ))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("setup put for doc-{d} failed: {v}"));
        }
        let rev = v
            .get("rev")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("setup put for doc-{d} returned no rev"))?;
        init_revs.push(rev.to_owned());
    }

    let t0 = Instant::now();
    let end = t0 + cfg.duration;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|c| {
                let op_json = &op_json;
                let init_revs = &init_revs;
                scope.spawn(move || store_editor_loop(cfg, c as u64, op_json, init_revs, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = t0.elapsed();

    let mut report = LoadReport {
        elapsed,
        seed: cfg.seed,
        connections: cfg.connections.max(1),
        profile: cfg.profile.name(),
        pipeline: 1,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for r in results {
        report.sent += r.sent;
        report.completed += r.completed;
        report.overloaded += r.overloaded;
        report.failed += r.failed;
        report.retries += r.retries;
        report.store.add(&r.store);
        latencies.extend(r.latencies_us);
    }
    fill_latencies(&mut report, latencies, Vec::new());

    if cfg.validate {
        let (checked, disagreements) = validate_store(cfg, &extras)?;
        report.checked_pairs = checked;
        report.disagreements = disagreements;
    }
    Ok(report)
}

fn request_extras(cfg: &LoadConfig) -> String {
    let mut extras = String::new();
    extras.push_str(&format!(", \"semantics\": \"{}\"", sem_name(cfg.semantics)));
    if let Some(ms) = cfg.deadline_ms {
        extras.push_str(&format!(", \"deadline_ms\": {ms}"));
    }
    if cfg.delay_ms > 0 {
        extras.push_str(&format!(", \"delay_ms\": {}", cfg.delay_ms));
    }
    extras
}

/// One editor thread: race `doc_put`s (and occasional `doc_delete`s)
/// against the shared documents, updating the local view of each
/// document's winner from the server's own responses.
fn store_editor_loop(
    cfg: &LoadConfig,
    conn: u64,
    op_json: &[String],
    init_revs: &[String],
    end: Instant,
) -> ConnResult {
    let mut out = ConnResult::default();
    let Ok(mut client) = RetryClient::connect(cfg) else {
        out.failed += 1;
        return out;
    };
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let extras = request_extras(cfg);
    let docs = init_revs.len();
    let mut revs: Vec<String> = init_revs.to_vec();
    // Content used to resurrect a document this editor finds deleted.
    let tparams = TreeParams {
        nodes: 8,
        alphabet: 6,
        ..TreeParams::default()
    };
    let resurrect = text::to_text(&random_tree(&mut rng, &tparams));
    let n = op_json.len();
    let mut req = String::new();
    while Instant::now() < end {
        if let Some(cap) = cfg.requests_per_conn {
            if out.sent >= cap {
                break;
            }
        }
        let d = rng.gen_range(0..docs);
        req.clear();
        req.push_str("{\"route\": ");
        if rng.gen_bool(0.05) {
            // Occasional whole-document delete: exercises tombstones,
            // the reject rung (edits against the tombstone), and
            // resurrection below.
            req.push_str("\"doc_delete\", \"doc\": \"doc-");
            req.push_str(&d.to_string());
            req.push_str("\", \"rev\": \"");
            req.push_str(&revs[d]);
            req.push('"');
        } else {
            req.push_str("\"doc_put\", \"doc\": \"doc-");
            req.push_str(&d.to_string());
            req.push_str("\", \"base_rev\": \"");
            req.push_str(&revs[d]);
            req.push_str("\", \"op\": ");
            req.push_str(&op_json[rng.gen_range(0..n)]);
        }
        req.push_str(&extras);
        req.push('}');
        let t_req = Instant::now();
        out.sent += 1;
        let v = match client.roundtrip(&req, &mut rng, &mut out.sent) {
            Ok(v) => v,
            Err(_) => {
                out.failed += 1;
                break;
            }
        };
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                out.completed += 1;
                out.latencies_us
                    .push(t_req.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let result = v.get("result").and_then(Json::as_str).unwrap_or("rejected");
                out.store.record(result);
                if let Some(w) = v.get("winner").and_then(Json::as_str) {
                    revs[d] = w.to_owned();
                }
                let deleted_winner = v.get("winner_deleted").and_then(Json::as_bool) == Some(true);
                if result == "rejected" || deleted_winner {
                    // Refresh the local view; resurrect if the document
                    // is gone (every editor may try — creation is
                    // idempotent for identical content, and a racing
                    // different-content create is just a rejection).
                    out.sent += 1;
                    let refresh = if deleted_winner {
                        format!(
                            "{{\"route\": \"doc_put\", \"doc\": \"doc-{d}\", \"content\": \"{resurrect}\"{extras}}}"
                        )
                    } else {
                        format!("{{\"route\": \"doc_get\", \"doc\": \"doc-{d}\"{extras}}}")
                    };
                    match client.roundtrip(&refresh, &mut rng, &mut out.sent) {
                        Ok(r) => {
                            out.completed += 1;
                            if let Some(result) = r.get("result").and_then(Json::as_str) {
                                out.store.record(result);
                            }
                            if let Some(w) = r
                                .get("winner")
                                .or_else(|| r.get("rev"))
                                .and_then(Json::as_str)
                            {
                                revs[d] = w.to_owned();
                            }
                        }
                        Err(_) => {
                            out.failed += 1;
                            break;
                        }
                    }
                }
            }
            _ => {
                if v.get("error").and_then(Json::as_str) == Some("overloaded") {
                    out.overloaded += 1;
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    out.retries = client.retried;
    out
}

/// The grounded profile: a setup pass creates `cfg.docs` shared
/// documents, then `connections` closed-loop clients fire `doc_check`
/// requests — seeded read/update pairs judged against the stored
/// document's structural index. The documents are never mutated, so
/// after the first check per document every request is served from the
/// store's warm index cache; this profile measures exactly the
/// index-grounded serving path.
///
/// With `validate`, every distinct `(doc, read, update)` verdict is
/// re-checked against the in-process Lemma 1 witness walk on the same
/// tree. Grounded answers are exact (never degraded), so *any*
/// disagreement is a correctness failure.
fn run_grounded(cfg: &LoadConfig) -> Result<LoadReport, String> {
    use cxu_gen::program::Stmt;

    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = cfg.profile.branch_rate();
    let params = ProgramParams {
        len: cfg.pool_len.max(8),
        update_rate: 0.5,
        delete_rate: 0.4,
        pattern,
    };
    let program = random_program(&mut rng, &params);
    let mut reads: Vec<(cxu_ops::Read, String)> = Vec::new();
    let mut updates: Vec<(cxu_ops::Update, String)> = Vec::new();
    for s in &program.stmts {
        let json = wire::stmt_to_json(s).to_string();
        match s {
            Stmt::Read(r) => reads.push((r.clone(), json)),
            Stmt::Update(u) => updates.push((u.clone(), json)),
        }
    }
    if reads.is_empty() || updates.is_empty() {
        return Err("grounded pool generated no reads or no updates; raise the pool size".into());
    }

    let extras = request_extras(cfg);
    let docs = cfg.docs.max(1);

    // Setup pass: create the shared documents. Trees share the pattern
    // pool's alphabet so reads and updates actually select something.
    let tparams = TreeParams {
        nodes: 40,
        alphabet: 6,
        ..TreeParams::default()
    };
    let mut setup = LineClient::connect(&cfg.addr)?;
    let mut trees: Vec<cxu_tree::Tree> = Vec::with_capacity(docs);
    for d in 0..docs {
        let tree = random_tree(&mut rng, &tparams);
        let content = text::to_text(&tree);
        let v = setup.roundtrip(&format!(
            "{{\"route\": \"doc_put\", \"doc\": \"doc-{d}\", \"content\": \"{content}\"{extras}}}"
        ))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("setup put for doc-{d} failed: {v}"));
        }
        trees.push(tree);
    }

    let t0 = Instant::now();
    let end = t0 + cfg.duration;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|c| {
                let reads = &reads;
                let updates = &updates;
                scope.spawn(move || grounded_check_loop(cfg, c as u64, reads, updates, docs, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = t0.elapsed();

    let mut report = LoadReport {
        elapsed,
        seed: cfg.seed,
        connections: cfg.connections.max(1),
        profile: cfg.profile.name(),
        pipeline: 1,
        ..LoadReport::default()
    };
    let mut observations: Vec<(usize, usize, bool)> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    for r in results {
        report.sent += r.sent;
        report.completed += r.completed;
        report.overloaded += r.overloaded;
        report.failed += r.failed;
        report.retries += r.retries;
        latencies.extend(r.latencies_us);
        observations.extend(r.observations);
    }
    fill_latencies(&mut report, latencies, Vec::new());

    if cfg.validate {
        // Observations encode (doc, read) in the first index; decode
        // and re-derive every distinct verdict with the witness walk.
        let mut by_key: HashMap<(usize, usize), bool> = HashMap::new();
        let mut disagreements = 0usize;
        for &(dr, ui, conflict) in &observations {
            if let Some(&earlier) = by_key.get(&(dr, ui)) {
                if earlier != conflict {
                    disagreements += 1; // self-contradiction across repeats
                }
                continue;
            }
            by_key.insert((dr, ui), conflict);
        }
        for (&(dr, ui), &server_conflict) in &by_key {
            let (d, ri) = (dr / reads.len(), dr % reads.len());
            let expect = cxu_ops::witness::witnesses_update_conflict(
                &reads[ri].0,
                &updates[ui].0,
                &trees[d],
                cfg.semantics,
            );
            if expect != server_conflict {
                disagreements += 1;
            }
        }
        report.checked_pairs = by_key.len();
        report.disagreements = disagreements;
    }
    Ok(report)
}

/// One grounded-profile client: fire `doc_check` requests for random
/// (document, read, update) triples, tallying verdicts. Observations
/// pack `(doc * reads.len() + read, update)` into the shared
/// `(i, j, conflict)` shape.
fn grounded_check_loop(
    cfg: &LoadConfig,
    conn: u64,
    reads: &[(cxu_ops::Read, String)],
    updates: &[(cxu_ops::Update, String)],
    docs: usize,
    end: Instant,
) -> ConnResult {
    let mut out = ConnResult::default();
    let Ok(mut client) = RetryClient::connect(cfg) else {
        out.failed += 1;
        return out;
    };
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let extras = request_extras(cfg);
    let mut req = String::new();
    while Instant::now() < end {
        if let Some(cap) = cfg.requests_per_conn {
            if out.sent >= cap {
                break;
            }
        }
        let d = rng.gen_range(0..docs);
        let ri = rng.gen_range(0..reads.len());
        let ui = rng.gen_range(0..updates.len());
        req.clear();
        req.push_str("{\"route\": \"doc_check\", \"id\": ");
        req.push_str(&out.sent.to_string());
        req.push_str(", \"doc\": \"doc-");
        req.push_str(&d.to_string());
        req.push_str("\", \"read\": ");
        req.push_str(&reads[ri].1);
        req.push_str(", \"update\": ");
        req.push_str(&updates[ui].1);
        req.push_str(&extras);
        req.push('}');
        let t_req = Instant::now();
        out.sent += 1;
        let v = match client.roundtrip(&req, &mut rng, &mut out.sent) {
            Ok(v) => v,
            Err(_) => {
                out.failed += 1;
                break;
            }
        };
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                out.completed += 1;
                out.latencies_us
                    .push(t_req.elapsed().as_micros().min(u64::MAX as u128) as u64);
                if cfg.validate {
                    if let Some(conflict) = v.get("conflict").and_then(Json::as_bool) {
                        out.observations.push((d * reads.len() + ri, ui, conflict));
                    }
                }
            }
            _ => {
                if v.get("error").and_then(Json::as_str) == Some("overloaded") {
                    out.overloaded += 1;
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    out.retries = client.retried;
    out
}

/// The store profile's `--validate` pass, over the live server:
/// changes-feed monotonicity, one entry per document, winner agreement
/// with `doc_get`, and cursor replay (mid-stream resume and
/// limit-paging both reconstruct the same suffix). Returns
/// `(checks, disagreements)`.
fn validate_store(cfg: &LoadConfig, extras: &str) -> Result<(usize, usize), String> {
    let mut client = LineClient::connect(&cfg.addr)?;
    let mut checked = 0usize;
    let mut bad = 0usize;

    let full = client.roundtrip(&format!("{{\"route\": \"doc_changes\"{extras}}}"))?;
    let entries = full
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("doc_changes returned no results array")?
        .to_vec();
    let seq_of = |e: &Json| e.get("seq").and_then(Json::as_u64).unwrap_or(0);

    // Monotonicity and per-document uniqueness.
    checked += 1;
    if !entries.windows(2).all(|w| seq_of(&w[0]) < seq_of(&w[1])) {
        bad += 1;
    }
    checked += 1;
    let mut seen = std::collections::HashSet::new();
    if !entries
        .iter()
        .all(|e| seen.insert(e.get("doc").and_then(Json::as_str).unwrap_or("").to_owned()))
    {
        bad += 1;
    }

    // Every feed row names the document's current winner.
    for e in &entries {
        let doc = e.get("doc").and_then(Json::as_str).unwrap_or("");
        let g = client.roundtrip(&format!(
            "{{\"route\": \"doc_get\", \"doc\": \"{doc}\"{extras}}}"
        ))?;
        checked += 1;
        let feed_rev = e.get("rev").and_then(Json::as_str);
        let feed_del = e.get("deleted").and_then(Json::as_bool);
        if g.get("found").and_then(Json::as_bool) != Some(true)
            || g.get("rev").and_then(Json::as_str) != feed_rev
            || g.get("deleted").and_then(Json::as_bool) != feed_del
        {
            bad += 1;
        }
    }

    // Cursor replay from the middle of the feed.
    if let Some(mid) = entries.get(entries.len() / 2).map(&seq_of) {
        let tail = client.roundtrip(&format!(
            "{{\"route\": \"doc_changes\", \"since\": {mid}{extras}}}"
        ))?;
        let tail = tail
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("doc_changes returned no results array")?
            .to_vec();
        let expect: Vec<&Json> = entries.iter().filter(|e| seq_of(e) > mid).collect();
        checked += 1;
        if tail.len() != expect.len()
            || tail
                .iter()
                .zip(&expect)
                .any(|(a, b)| a.to_string() != b.to_string())
        {
            bad += 1;
        }
    }

    // Limit-paging reconstructs the full feed.
    let mut cursor = 0u64;
    let mut paged: Vec<Json> = Vec::new();
    loop {
        let page = client.roundtrip(&format!(
            "{{\"route\": \"doc_changes\", \"since\": {cursor}, \"limit\": 1{extras}}}"
        ))?;
        let rows = page
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("doc_changes returned no results array")?
            .to_vec();
        if rows.is_empty() {
            break;
        }
        paged.extend(rows);
        let next = page
            .get("last_seq")
            .and_then(Json::as_u64)
            .unwrap_or(cursor);
        if next <= cursor {
            bad += 1;
            break;
        }
        cursor = next;
        if paged.len() > entries.len() + 1 {
            // The feed moved under us (it should not: editors stopped)
            // or paging is broken; either way stop and flag it.
            bad += 1;
            break;
        }
    }
    checked += 1;
    if paged.len() != entries.len()
        || paged
            .iter()
            .zip(&entries)
            .any(|(a, b)| a.to_string() != b.to_string())
    {
        bad += 1;
    }

    Ok((checked, bad))
}

/// The txn-profile run: seeded concurrent editors racing atomic
/// multi-op transactions (the one-shot `txn` route) against `cfg.docs`
/// shared documents, guarding every touched document at the winner the
/// editor last saw. Under concurrency those guards are naturally stale,
/// which is exactly the workload the commutativity-aware optimistic
/// admission exists for: commuting transactions interleave and commit,
/// conflicting ones lose retryably and resubmit with refreshed guards.
fn run_txn(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = cfg.profile.branch_rate();
    let params = ProgramParams {
        len: cfg.pool_len.max(2),
        // Update-only: transaction writes reject reads at the parser.
        update_rate: 1.0,
        delete_rate: 0.3,
        pattern,
    };
    let program = random_program(&mut rng, &params);
    let op_json: Vec<String> = program
        .stmts
        .iter()
        .map(|s| wire::stmt_to_json(s).to_string())
        .collect();

    let extras = request_extras(cfg);
    let docs = cfg.docs.max(1);

    // Setup pass: create the shared documents, collecting their initial
    // revisions (the editors' first guards).
    let tparams = TreeParams {
        nodes: 12,
        alphabet: 6,
        ..TreeParams::default()
    };
    let mut setup = LineClient::connect(&cfg.addr)?;
    let mut init_revs: Vec<String> = Vec::with_capacity(docs);
    for d in 0..docs {
        let content = text::to_text(&random_tree(&mut rng, &tparams));
        let v = setup.roundtrip(&format!(
            "{{\"route\": \"doc_put\", \"doc\": \"doc-{d}\", \"content\": \"{content}\"{extras}}}"
        ))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("setup put for doc-{d} failed: {v}"));
        }
        let rev = v
            .get("rev")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("setup put for doc-{d} returned no rev"))?;
        init_revs.push(rev.to_owned());
    }

    let t0 = Instant::now();
    let end = t0 + cfg.duration;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|c| {
                let op_json = &op_json;
                let init_revs = &init_revs;
                scope.spawn(move || txn_editor_loop(cfg, c as u64, op_json, init_revs, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = t0.elapsed();

    let mut report = LoadReport {
        elapsed,
        seed: cfg.seed,
        connections: cfg.connections.max(1),
        profile: cfg.profile.name(),
        pipeline: 1,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    let mut acked: Vec<Vec<(String, String)>> = Vec::new();
    for r in results {
        report.sent += r.sent;
        report.completed += r.completed;
        report.overloaded += r.overloaded;
        report.failed += r.failed;
        report.retries += r.retries;
        report.txn.add(&r.txn);
        latencies.extend(r.latencies_us);
        acked.extend(r.acked_txns);
    }
    fill_latencies(&mut report, latencies, Vec::new());

    if cfg.validate {
        let (checked, disagreements) = validate_txn(cfg, &extras, &acked)?;
        report.checked_pairs = checked;
        report.disagreements = disagreements;
    }
    Ok(report)
}

/// One txn-profile editor: build a transaction of 1–3 update writes
/// over 1–2 shared documents, guard every touched document at the
/// winner this editor last saw, and send it as a one-shot `txn`
/// request. Applied answers advance the local winner view from the
/// acked revisions; retryable conflicts refresh the view from the
/// server and resubmit the same program (bounded attempts, tallied as
/// `conflict_retries`).
fn txn_editor_loop(
    cfg: &LoadConfig,
    conn: u64,
    op_json: &[String],
    init_revs: &[String],
    end: Instant,
) -> ConnResult {
    let mut out = ConnResult::default();
    let Ok(mut client) = RetryClient::connect(cfg) else {
        out.failed += 1;
        return out;
    };
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let extras = request_extras(cfg);
    let docs = init_revs.len();
    let mut revs: Vec<String> = init_revs.to_vec();
    let n = op_json.len();
    let mut req = String::new();
    'run: while Instant::now() < end {
        if let Some(cap) = cfg.requests_per_conn {
            if out.sent >= cap {
                break;
            }
        }
        // Pick the program once; conflict retries resend it verbatim
        // (with fresh guards), which is the documented retry story.
        let d1 = rng.gen_range(0..docs);
        let span = if docs > 1 && rng.gen_bool(0.5) { 2 } else { 1 };
        let d2 = if span == 2 {
            let mut d = rng.gen_range(0..docs - 1);
            if d >= d1 {
                d += 1;
            }
            d
        } else {
            d1
        };
        let n_ops = 1 + rng.gen_range(0..3);
        let writes: Vec<(usize, usize)> = (0..n_ops)
            .map(|k| {
                let doc = if span == 2 && k % 2 == 1 { d2 } else { d1 };
                (doc, rng.gen_range(0..n))
            })
            .collect();
        let mut touched: Vec<usize> = vec![d1];
        if span == 2 {
            touched.push(d2);
        }

        // Bounded optimistic retry: first attempt plus up to two
        // guard-refreshing resubmissions after retryable conflicts.
        for attempt in 0..3u32 {
            req.clear();
            req.push_str("{\"route\": \"txn\", \"guards\": [");
            for (k, &d) in touched.iter().enumerate() {
                if k > 0 {
                    req.push_str(", ");
                }
                req.push_str("{\"doc\": \"doc-");
                req.push_str(&d.to_string());
                req.push_str("\", \"rev\": \"");
                req.push_str(&revs[d]);
                req.push_str("\"}");
            }
            req.push_str("], \"ops\": [");
            for (k, &(d, op)) in writes.iter().enumerate() {
                if k > 0 {
                    req.push_str(", ");
                }
                req.push_str("{\"doc\": \"doc-");
                req.push_str(&d.to_string());
                req.push_str("\", \"op\": ");
                req.push_str(&op_json[op]);
                req.push('}');
            }
            req.push(']');
            req.push_str(&extras);
            req.push('}');
            let t_req = Instant::now();
            out.sent += 1;
            if attempt > 0 {
                out.txn.conflict_retries += 1;
            }
            let v = match client.roundtrip(&req, &mut rng, &mut out.sent) {
                Ok(v) => v,
                Err(_) => {
                    out.failed += 1;
                    break 'run;
                }
            };
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                if v.get("error").and_then(Json::as_str) == Some("overloaded") {
                    out.overloaded += 1;
                } else {
                    out.failed += 1;
                }
                break;
            }
            out.completed += 1;
            out.latencies_us
                .push(t_req.elapsed().as_micros().min(u64::MAX as u128) as u64);
            match v.get("result").and_then(Json::as_str) {
                Some("applied") => {
                    if v.get("replayed").and_then(Json::as_bool) == Some(true) {
                        out.txn.replayed += 1;
                    } else {
                        out.txn.applied += 1;
                    }
                    let mut minted: Vec<(String, String)> = Vec::new();
                    if let Some(rows) = v.get("revs").and_then(Json::as_arr) {
                        for row in rows {
                            let doc = row.get("doc").and_then(Json::as_str).unwrap_or("");
                            let rev = row.get("rev").and_then(Json::as_str).unwrap_or("");
                            // The last acked revision per document is
                            // the new winner this editor observed.
                            if let Some(idx) = doc
                                .strip_prefix("doc-")
                                .and_then(|s| s.parse::<usize>().ok())
                            {
                                if idx < docs {
                                    revs[idx] = rev.to_owned();
                                }
                            }
                            minted.push((doc.to_owned(), rev.to_owned()));
                        }
                    }
                    if cfg.validate && !minted.is_empty() {
                        out.acked_txns.push(minted);
                    }
                    break;
                }
                Some("conflict") => {
                    out.txn.conflicted += 1;
                    // Refresh every touched document's winner before the
                    // resubmission (or before the next fresh program when
                    // the retry budget is spent).
                    for &d in &touched {
                        out.sent += 1;
                        let refresh =
                            format!("{{\"route\": \"doc_get\", \"doc\": \"doc-{d}\"{extras}}}");
                        match client.roundtrip(&refresh, &mut rng, &mut out.sent) {
                            Ok(r) => {
                                out.completed += 1;
                                if let Some(w) = r.get("rev").and_then(Json::as_str) {
                                    revs[d] = w.to_owned();
                                }
                            }
                            Err(_) => {
                                out.failed += 1;
                                break 'run;
                            }
                        }
                    }
                }
                _ => {
                    out.txn.rejected += 1;
                    break;
                }
            }
        }
    }
    out.retries = client.retried;
    out
}

/// The txn profile's `--validate` pass: replay the changes feed for the
/// usual consistency checks (monotone seqs, one row per document, every
/// row naming the live winner), then probe every revision of every
/// acked transaction with an explicit-rev `doc_get` — all-or-nothing
/// visibility means every acked set is fully present; a transaction
/// with some revisions durable and some missing is a torn commit.
/// Returns `(checks, disagreements)`.
fn validate_txn(
    cfg: &LoadConfig,
    extras: &str,
    acked: &[Vec<(String, String)>],
) -> Result<(usize, usize), String> {
    let mut client = LineClient::connect(&cfg.addr)?;
    let mut checked = 0usize;
    let mut bad = 0usize;

    let full = client.roundtrip(&format!("{{\"route\": \"doc_changes\"{extras}}}"))?;
    let entries = full
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("doc_changes returned no results array")?
        .to_vec();
    let seq_of = |e: &Json| e.get("seq").and_then(Json::as_u64).unwrap_or(0);

    checked += 1;
    if !entries.windows(2).all(|w| seq_of(&w[0]) < seq_of(&w[1])) {
        bad += 1;
    }
    checked += 1;
    let mut seen = std::collections::HashSet::new();
    if !entries
        .iter()
        .all(|e| seen.insert(e.get("doc").and_then(Json::as_str).unwrap_or("").to_owned()))
    {
        bad += 1;
    }
    for e in &entries {
        let doc = e.get("doc").and_then(Json::as_str).unwrap_or("");
        let g = client.roundtrip(&format!(
            "{{\"route\": \"doc_get\", \"doc\": \"{doc}\"{extras}}}"
        ))?;
        checked += 1;
        if g.get("found").and_then(Json::as_bool) != Some(true)
            || g.get("rev").and_then(Json::as_str) != e.get("rev").and_then(Json::as_str)
        {
            bad += 1;
        }
    }

    // All-or-nothing: every revision the server acked inside one
    // transaction must be individually readable. Probe each (doc, rev)
    // once — transactions often re-ack a shared revision on replay.
    let mut present: HashMap<(String, String), bool> = HashMap::new();
    for txn in acked {
        checked += 1;
        let mut found = 0usize;
        for (doc, rev) in txn {
            let key = (doc.clone(), rev.clone());
            let ok = match present.get(&key) {
                Some(&ok) => ok,
                None => {
                    let g = client.roundtrip(&format!(
                        "{{\"route\": \"doc_get\", \"doc\": \"{doc}\", \"rev\": \"{rev}\"{extras}}}"
                    ))?;
                    let ok = g.get("found").and_then(Json::as_bool) == Some(true);
                    present.insert(key, ok);
                    ok
                }
            };
            if ok {
                found += 1;
            }
        }
        // A fully-missing set is a lost commit; a mixed set is a torn
        // one. Both violate atomic visibility.
        if found != txn.len() {
            bad += 1;
        }
    }

    Ok((checked, bad))
}

/// One client thread: connect, fire `check` requests for random
/// distinct pool pairs, tally responses.
fn connection_loop(cfg: &LoadConfig, conn: u64, op_json: &[String], end: Instant) -> ConnResult {
    let mut out = ConnResult::default();
    let Ok(mut client) = RetryClient::connect(cfg) else {
        out.failed += 1;
        return out;
    };
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n = op_json.len();
    let extras = request_extras(cfg);
    let mut req = String::new();
    while Instant::now() < end {
        if let Some(cap) = cfg.requests_per_conn {
            if out.sent >= cap {
                break;
            }
        }
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        req.clear();
        req.push_str("{\"route\": \"check\", \"id\": ");
        req.push_str(&out.sent.to_string());
        req.push_str(", \"a\": ");
        req.push_str(&op_json[i]);
        req.push_str(", \"b\": ");
        req.push_str(&op_json[j]);
        req.push_str(&extras);
        req.push('}');
        let t_req = Instant::now();
        out.sent += 1;
        let v = match client.roundtrip(&req, &mut rng, &mut out.sent) {
            Ok(v) => v,
            Err(_) => {
                out.failed += 1;
                break;
            }
        };
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                out.completed += 1;
                out.latencies_us
                    .push(t_req.elapsed().as_micros().min(u64::MAX as u128) as u64);
                if cfg.validate && v.get("degraded").and_then(Json::as_bool) == Some(false) {
                    if let Some(conflict) = v.get("conflict").and_then(Json::as_bool) {
                        out.observations.push((i, j, conflict));
                    }
                }
            }
            _ => {
                if v.get("error").and_then(Json::as_str) == Some("overloaded") {
                    out.overloaded += 1;
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    out.retries = client.retried;
    out
}

/// Renders one seeded `check` request (no trailing newline) into `req`
/// and returns the chosen distinct pool pair.
fn render_check_req(
    req: &mut String,
    rng: &mut SplitMix64,
    op_json: &[String],
    extras: &str,
    id: u64,
) -> (usize, usize) {
    let n = op_json.len();
    let i = rng.gen_range(0..n);
    let mut j = rng.gen_range(0..n - 1);
    if j >= i {
        j += 1;
    }
    req.push_str("{\"route\": \"check\", \"id\": ");
    req.push_str(&id.to_string());
    req.push_str(", \"a\": ");
    req.push_str(&op_json[i]);
    req.push_str(", \"b\": ");
    req.push_str(&op_json[j]);
    req.push_str(extras);
    req.push('}');
    (i, j)
}

/// Tallies one `check` response; returns whether it completed (and so
/// should contribute a latency sample).
fn tally_response(out: &mut ConnResult, v: &Json, i: usize, j: usize, validate: bool) -> bool {
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            out.completed += 1;
            if validate && v.get("degraded").and_then(Json::as_bool) == Some(false) {
                if let Some(conflict) = v.get("conflict").and_then(Json::as_bool) {
                    out.observations.push((i, j, conflict));
                }
            }
            true
        }
        _ => {
            if v.get("error").and_then(Json::as_str) == Some("overloaded") {
                out.overloaded += 1;
            } else {
                out.failed += 1;
            }
            false
        }
    }
}

/// Closed-loop pipelined client: one buffered write per window of
/// `pipeline` requests, then the window's responses drained in order.
/// One write syscall carries the whole window and the server's event
/// loop answers warm-cache checks inline, so the per-request syscall
/// and wakeup overhead — the closed-loop lockstep bottleneck — is
/// amortized `pipeline`-fold.
fn pipelined_loop(cfg: &LoadConfig, conn: u64, op_json: &[String], end: Instant) -> ConnResult {
    let mut out = ConnResult::default();
    let Ok(writer) = TcpStream::connect(&cfg.addr) else {
        out.failed += 1;
        return out;
    };
    let _ = writer.set_nodelay(true);
    let _ = writer.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(rstream) = writer.try_clone() else {
        out.failed += 1;
        return out;
    };
    let mut writer = writer;
    let mut reader = BufReader::new(rstream);
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let window = cfg.pipeline.max(1) as u64;
    let extras = request_extras(cfg);
    let mut batch = String::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut line = String::new();
    'run: while Instant::now() < end {
        let room = match cfg.requests_per_conn {
            Some(cap) => cap.saturating_sub(out.sent).min(window),
            None => window,
        };
        if room == 0 {
            break;
        }
        batch.clear();
        pairs.clear();
        for _ in 0..room {
            let pair = render_check_req(&mut batch, &mut rng, op_json, &extras, out.sent);
            batch.push('\n');
            pairs.push(pair);
            out.sent += 1;
        }
        let t_send = Instant::now();
        if writer.write_all(batch.as_bytes()).is_err() {
            out.failed += room;
            break;
        }
        for (k, &(i, j)) in pairs.iter().enumerate() {
            line.clear();
            let v = match reader.read_line(&mut line) {
                Ok(n) if n > 0 => Json::parse(line.trim_end()).ok(),
                _ => None,
            };
            let Some(v) = v else {
                out.failed += room - k as u64;
                break 'run;
            };
            if tally_response(&mut out, &v, i, j, cfg.validate) {
                out.latencies_us
                    .push(t_send.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
        }
    }
    out
}

/// Open-loop client: a paced writer sends request *k* at `t₀ + k/rate`
/// — batching everything already due into one write when it falls
/// behind — while the connection thread drains responses in order.
///
/// This is where the coordinated-omission fix lives: each response's
/// latency is recorded from its **intended** arrival time (corrected)
/// *and* from the actual send (raw). Under backpressure the old
/// closed-loop measurement simply stops sending — the requests that
/// would have observed the stall are never timed, so the percentiles
/// only sample the server's good moods. The corrected clock charges the
/// stall to every request that was due during it.
fn open_loop_conn(
    cfg: &LoadConfig,
    conn: u64,
    op_json: &[String],
    end: Instant,
    rate: f64,
) -> ConnResult {
    let mut out = ConnResult::default();
    let Ok(wstream) = TcpStream::connect(&cfg.addr) else {
        out.failed += 1;
        return out;
    };
    let _ = wstream.set_nodelay(true);
    let _ = wstream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = wstream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(rstream) = wstream.try_clone() else {
        out.failed += 1;
        return out;
    };
    let mut reader = BufReader::new(rstream);
    // (intended, sent_at, i, j) per in-flight request, FIFO — responses
    // come back in request order on one connection.
    let pending: Mutex<VecDeque<(Instant, Instant, usize, usize)>> = Mutex::new(VecDeque::new());
    let done_sending = AtomicBool::new(false);
    let mut line = String::new();
    std::thread::scope(|scope| {
        let pending = &pending;
        let done_sending = &done_sending;
        let writer_handle = scope.spawn(move || {
            let mut writer = wstream;
            let mut rng =
                SplitMix64::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let extras = request_extras(cfg);
            let interval = 1.0 / rate.max(1e-9);
            let t0 = Instant::now();
            let mut k: u64 = 0;
            let mut sent: u64 = 0;
            let mut batch = String::new();
            loop {
                if cfg.requests_per_conn.is_some_and(|cap| sent >= cap) {
                    break;
                }
                let intended = t0 + Duration::from_secs_f64(k as f64 * interval);
                if intended >= end {
                    break;
                }
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                // Send everything due by now as one write (catch-up
                // batching keeps the *schedule* fixed even when the
                // sender was stalled — the backlog goes out immediately,
                // it is not rescheduled).
                batch.clear();
                let now = Instant::now();
                let mut metas: Vec<(Instant, usize, usize)> = Vec::new();
                loop {
                    let due = t0 + Duration::from_secs_f64(k as f64 * interval);
                    if due > now || due >= end || metas.len() >= 1024 {
                        break;
                    }
                    if cfg
                        .requests_per_conn
                        .is_some_and(|cap| sent + metas.len() as u64 >= cap)
                    {
                        break;
                    }
                    let (i, j) = render_check_req(&mut batch, &mut rng, op_json, &extras, k);
                    batch.push('\n');
                    metas.push((due, i, j));
                    k += 1;
                }
                if metas.is_empty() {
                    continue;
                }
                let send_at = Instant::now();
                {
                    let mut q = pending.lock().unwrap_or_else(|e| e.into_inner());
                    for &(due, i, j) in &metas {
                        q.push_back((due, send_at, i, j));
                    }
                }
                sent += metas.len() as u64;
                if writer.write_all(batch.as_bytes()).is_err() {
                    break;
                }
            }
            done_sending.store(true, Ordering::Release);
            sent
        });

        loop {
            let meta = pending
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some((intended, sent_at, i, j)) = meta else {
                if done_sending.load(Ordering::Acquire)
                    && pending.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
                {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            line.clear();
            let v = match reader.read_line(&mut line) {
                Ok(n) if n > 0 => Json::parse(line.trim_end()).ok(),
                _ => None,
            };
            let Some(v) = v else {
                let stranded = pending.lock().unwrap_or_else(|e| e.into_inner()).len();
                out.failed += 1 + stranded as u64;
                break;
            };
            let t_resp = Instant::now();
            if tally_response(&mut out, &v, i, j, cfg.validate) {
                out.latencies_us.push(
                    t_resp
                        .saturating_duration_since(sent_at)
                        .as_micros()
                        .min(u64::MAX as u128) as u64,
                );
                out.corrected_us.push(
                    t_resp
                        .saturating_duration_since(intended)
                        .as_micros()
                        .min(u64::MAX as u128) as u64,
                );
            }
        }
        out.sent = writer_handle.join().unwrap_or(0);
    });
    out
}

/// Re-checks every distinct observed pair against an in-process
/// scheduler. Returns `(checked, disagreements)`.
fn validate(
    ops: &[Op],
    observations: &[(usize, usize, bool)],
    semantics: Semantics,
) -> (usize, usize) {
    let mut by_pair: HashMap<(usize, usize), bool> = HashMap::new();
    let mut disagreements = 0;
    for &(i, j, conflict) in observations {
        let key = (i.min(j), i.max(j));
        if let Some(&earlier) = by_pair.get(&key) {
            if earlier != conflict {
                // The server contradicted itself across repeats of the
                // same pair — count it without needing the oracle.
                disagreements += 1;
            }
            continue;
        }
        by_pair.insert(key, conflict);
    }
    let mut local = Scheduler::new(SchedConfig {
        semantics,
        jobs: 1,
        ..SchedConfig::default()
    });
    let deadline = Deadline::never();
    for (&(i, j), &server_conflict) in &by_pair {
        let d = local.check_pair(&ops[i], &ops[j], &deadline);
        if !d.verdict.detector.is_conservative() && d.verdict.conflict != server_conflict {
            disagreements += 1;
        }
    }
    (by_pair.len(), disagreements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_roundtrip() {
        for p in [
            LoadProfile::Linear,
            LoadProfile::Mixed,
            LoadProfile::Store,
            LoadProfile::Grounded,
            LoadProfile::Txn,
        ] {
            assert_eq!(LoadProfile::from_name(p.name()).unwrap(), p);
        }
        assert!(LoadProfile::from_name("warp").is_err());
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn report_json_shape() {
        let report = LoadReport {
            sent: 10,
            completed: 8,
            overloaded: 2,
            elapsed: Duration::from_secs(2),
            p50_us: 100,
            p99_us: 900,
            max_us: 1000,
            mean_us: 200,
            seed: 42,
            connections: 4,
            profile: "linear",
            ..LoadReport::default()
        };
        let v = Json::parse(&report.to_json()).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("serve"));
        assert_eq!(v.get("completed").and_then(Json::as_u64), Some(8));
        assert_eq!(v.get("throughput_rps").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("rejection_rate").and_then(Json::as_f64), Some(0.2));
        let lat = v.get("latency_us").unwrap();
        assert_eq!(lat.get("p99").and_then(Json::as_u64), Some(900));
    }

    #[test]
    fn txn_report_json_shape() {
        let report = LoadReport {
            sent: 12,
            completed: 10,
            elapsed: Duration::from_secs(1),
            seed: 7,
            connections: 2,
            profile: "txn",
            txn: TxnTallies {
                applied: 6,
                replayed: 1,
                conflicted: 2,
                rejected: 1,
                conflict_retries: 2,
            },
            ..LoadReport::default()
        };
        let v = Json::parse(&report.to_json()).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("txn"));
        let t = v.get("txn").unwrap();
        assert_eq!(t.get("txns").and_then(Json::as_u64), Some(10));
        assert_eq!(t.get("replayed").and_then(Json::as_u64), Some(1));
        assert_eq!(t.get("conflict_retries").and_then(Json::as_u64), Some(2));
        // 6 applied of 8 first-attempt commit/conflict decisions.
        assert_eq!(t.get("commit_rate").and_then(Json::as_f64), Some(0.75));
        assert_eq!(t.get("conflict_rate").and_then(Json::as_f64), Some(0.25));
    }

    #[test]
    fn validation_counts_disagreements() {
        let program =
            cxu_gen::parse::parse_program("y = read $x//C; insert $x/B, C; z = read $x//Q")
                .unwrap();
        let ops = ops_of_program(&program);
        // Pair (0, 1) conflicts, pair (1, 2) does not.
        let obs = vec![(0, 1, true), (1, 2, false)];
        assert_eq!(validate(&ops, &obs, Semantics::Value), (2, 0));
        let wrong = vec![(0, 1, false), (2, 1, true), (1, 0, true)];
        // (0,1) lied once and then contradicted itself; (1,2) lied.
        assert_eq!(validate(&ops, &wrong, Semantics::Value), (2, 3));
    }
}
