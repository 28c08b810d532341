//! Seeded load generator: the traffic the repository's scripts and CI
//! drive against a running server, one [`LoadProfile`] each.
//!
//! * `linear` fires `check` requests for pairs drawn from a generated
//!   operation pool. By default it runs **closed loop**: `connections`
//!   client threads, each with its own socket, each keeping `pipeline`
//!   requests in flight (one batched write per window, responses drained
//!   in order; a window of 1 is request/response lockstep). Offered load
//!   adapts to service rate, so the measured throughput is the sustained
//!   one.
//! * `store` races editors issuing `doc_put`s with stale base revisions
//!   against shared documents.
//! * `txn` races editors issuing guarded one-shot transactions against
//!   shared documents.
//!
//! The pool and every request sequence derive from one seed: same seed,
//! same workload.
//!
//! **Open loop** (`rate`, set for each of the CLI's `--sweep` points)
//! sends `linear` requests on a fixed arrival schedule instead: request
//! *k* is due at `t₀ + k/rate` regardless of how the server is doing,
//! which is how real independent clients behave. Open loop measures
//! latency two ways and reports both:
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
//! With `validate`, a `linear` run re-checks every distinct pair that
//! got a non-degraded server verdict against an in-process
//! [`Scheduler`]; a disagreement between two *exact* verdicts is a
//! correctness failure (degraded verdicts are resource-envelope answers
//! and legitimately differ). The editor profiles instead replay the
//! changes feed and probe every acked transaction's revisions.

use cxu_gen::json::Json;
use cxu_gen::patterns::PatternParams;
use cxu_gen::program::{random_program, Program, ProgramParams};
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

/// Operations in each generated pool.
const POOL_LEN: usize = 60;

/// Workload shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadProfile {
    /// `check` requests over linear patterns only (`branch_rate = 0`):
    /// every pair stays on the PTIME detectors — the throughput profile.
    Linear,
    /// Concurrent editors racing `doc_put` against shared documents
    /// with (deliberately) stale base revisions — the document-store
    /// profile. Measures auto-merge vs. branch vs. reject rates.
    Store,
    /// Concurrent editors racing atomic multi-op transactions (the
    /// one-shot `txn` route) against shared documents, guarding at
    /// their last-seen winners — the transaction profile. Measures
    /// commit / conflict / retry rates and latency.
    Txn,
}

impl LoadProfile {
    /// The profile name as spelled on the CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            LoadProfile::Linear => "linear",
            LoadProfile::Store => "store",
            LoadProfile::Txn => "txn",
        }
    }

    /// Parses a CLI spelling.
    pub fn from_name(s: &str) -> Result<LoadProfile, String> {
        match s {
            "linear" => Ok(LoadProfile::Linear),
            "store" => Ok(LoadProfile::Store),
            "txn" => Ok(LoadProfile::Txn),
            other => Err(format!("unknown profile {other:?} (linear|store|txn)")),
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
    /// Workload seed.
    pub seed: u64,
    /// Workload shape.
    pub profile: LoadProfile,
    /// Artificial worker-side delay per request (overload testing).
    pub delay_ms: u64,
    /// Validate the server's answers after the run.
    pub validate: bool,
    /// Shared documents the `store` and `txn` editors race over.
    /// Fewer documents ⇒ more editors per document ⇒ staler bases.
    pub docs: usize,
    /// Closed-loop pipelining window of the `linear` profile: requests
    /// kept in flight per connection (1 = request/response lockstep).
    pub pipeline: usize,
    /// Open-loop `linear` run: total intended arrival rate in
    /// requests/second, spread evenly across connections. `None`
    /// (default) runs closed loop.
    pub rate: Option<f64>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: String::new(),
            connections: 8,
            duration: Duration::from_millis(1500),
            seed: 42,
            profile: LoadProfile::Linear,
            delay_ms: 0,
            validate: false,
            docs: 4,
            pipeline: 1,
            rate: None,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent. In closed loop,
    /// `sent == completed + overloaded + failed`.
    pub sent: u64,
    /// `ok: true` responses.
    pub completed: u64,
    /// `overloaded` rejections.
    pub overloaded: u64,
    /// Any other failure (errors, short reads, disconnects).
    pub failed: u64,
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
    /// Distinct pairs re-checked during validation (for the editor
    /// profiles: feed, winner and transaction checks).
    pub checked_pairs: usize,
    /// Exact-vs-exact verdict mismatches found by validation (for the
    /// editor profiles: failed feed, winner and transaction checks).
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

    /// Renders the `BENCH_SERVE.json` document — or `BENCH_STORE.json` /
    /// `BENCH_TXN.json` for the editor profiles, whose extra `store` /
    /// `txn` object breaks completed requests down by outcome and gives
    /// the headline merge / commit rates.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            (
                "bench",
                Json::str(match self.profile {
                    "store" => "store",
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
        let rate = |n: u64, d: u64| if d > 0 { n as f64 / d as f64 } else { 0.0 };
        if self.profile == "store" {
            let s = &self.store;
            let total = s.total();
            let stale = s.merged + s.branched;
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

/// One connection's tallies, merged after the join.
#[derive(Default)]
struct ConnResult {
    sent: u64,
    completed: u64,
    overloaded: u64,
    failed: u64,
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

impl ConnResult {
    fn absorb(&mut self, other: ConnResult) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.overloaded += other.overloaded;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.corrected_us.extend(other.corrected_us);
        self.observations.extend(other.observations);
        self.store.add(&other.store);
        self.txn.add(&other.txn);
        self.acked_txns.extend(other.acked_txns);
    }

    /// Tallies one response that is not `ok: true`.
    fn refused(&mut self, v: &Json) {
        if v.get("error").and_then(Json::as_str) == Some("overloaded") {
            self.overloaded += 1;
        } else {
            self.failed += 1;
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Runs the workload and gathers the report.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, String> {
    match cfg.profile {
        LoadProfile::Linear => run_check(cfg),
        LoadProfile::Store | LoadProfile::Txn => run_editors(cfg),
    }
}

/// The seeded operation pool. The `linear` pool mixes reads and updates
/// over linear patterns, so every `check` pair stays on the PTIME
/// detectors. The editors' pools are update-only (writes reject reads at
/// the parser) and mostly linear: most merge and cross-pair checks stay
/// exact, while the conservative-verdict-must-branch path still runs now
/// and then.
fn pool(profile: LoadProfile, rng: &mut SplitMix64) -> Program {
    let editors = profile != LoadProfile::Linear;
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = if editors { 0.15 } else { 0.0 };
    let params = ProgramParams {
        len: POOL_LEN,
        update_rate: if editors { 1.0 } else { 0.5 },
        delete_rate: if editors { 0.3 } else { 0.4 },
        pattern,
    };
    random_program(rng, &params)
}

fn op_lines(program: &Program) -> Vec<String> {
    program
        .stmts
        .iter()
        .map(|s| wire::stmt_to_json(s).to_string())
        .collect()
}

/// Connection `conn`'s own request stream, derived from the run seed.
fn conn_rng(cfg: &LoadConfig, conn: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fields appended to every request: value semantics, plus the
/// worker-side delay when one is set.
fn request_extras(cfg: &LoadConfig) -> String {
    let mut extras = String::from(", \"semantics\": \"value\"");
    if cfg.delay_ms > 0 {
        extras.push_str(&format!(", \"delay_ms\": {}", cfg.delay_ms));
    }
    extras
}

/// Runs `conn` on `cfg.connections` threads until `cfg.duration` has
/// passed, and merges what they tallied into the report and one
/// [`ConnResult`].
fn drive(
    cfg: &LoadConfig,
    conn: impl Fn(u64, Instant) -> ConnResult + Sync,
) -> (LoadReport, ConnResult) {
    let t0 = Instant::now();
    let end = t0 + cfg.duration;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let conn = &conn;
        let handles: Vec<_> = (0..cfg.connections.max(1) as u64)
            .map(|c| scope.spawn(move || conn(c, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut all = ConnResult::default();
    for r in results {
        all.absorb(r);
    }
    let mut report = LoadReport {
        sent: all.sent,
        completed: all.completed,
        overloaded: all.overloaded,
        failed: all.failed,
        elapsed,
        store: all.store,
        txn: all.txn,
        seed: cfg.seed,
        connections: cfg.connections.max(1),
        profile: cfg.profile.name(),
        pipeline: cfg.pipeline.max(1),
        open_loop_rate: cfg.rate,
        ..LoadReport::default()
    };
    let mut raw = std::mem::take(&mut all.latencies_us);
    let mut corrected = std::mem::take(&mut all.corrected_us);
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
    (report, all)
}

/// The `linear` run: closed-loop (or, with `rate`, open-loop) `check`
/// traffic over the seeded pool.
fn run_check(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let program = pool(cfg.profile, &mut SplitMix64::seed_from_u64(cfg.seed));
    let ops: Vec<Op> = ops_of_program(&program);
    let op_json = op_lines(&program);

    // Probe the address once before spawning the fleet, for a clean
    // error instead of `connections` copies of it.
    TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;

    let rate_per_conn = cfg.rate.map(|r| r.max(1.0) / cfg.connections.max(1) as f64);
    let (mut report, all) = drive(cfg, |c, end| match rate_per_conn {
        Some(rate) => open_loop_conn(cfg, c, &op_json, end, rate),
        None => closed_loop_conn(cfg, c, &op_json, end),
    });
    if cfg.validate {
        (report.checked_pairs, report.disagreements) = validate(&ops, &all.observations);
    }
    Ok(report)
}

/// A line-oriented NDJSON client (the editors, their setup and
/// validation passes, and the crash harness's probes).
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

/// The editor runs (`store` and `txn`): a setup pass creates
/// `cfg.docs` shared documents, then seeded concurrent editors race
/// writes against them, each using the winner revision it last saw as
/// its base or guard. Under concurrency that view is naturally stale,
/// which is precisely the workload the auto-merge rung and the
/// commutativity-aware transaction admission exist for.
fn run_editors(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let op_json = op_lines(&pool(cfg.profile, &mut rng));
    let extras = request_extras(cfg);

    // Setup pass: create the shared documents, collecting their initial
    // revisions. The document trees share the update pool's label
    // alphabet, so the ops actually touch them. A document an earlier
    // run left on the server refuses a create; the fresh content then
    // goes on its current winner instead.
    let tparams = TreeParams {
        nodes: 12,
        alphabet: 6,
        ..TreeParams::default()
    };
    let mut setup = LineClient::connect(&cfg.addr)?;
    let mut init_revs: Vec<String> = Vec::with_capacity(cfg.docs.max(1));
    for d in 0..cfg.docs.max(1) {
        let content = text::to_text(&random_tree(&mut rng, &tparams));
        let put = |setup: &mut LineClient, base: &str| -> Result<Json, String> {
            let v = setup.roundtrip(&format!(
                "{{\"route\": \"doc_put\", \"doc\": \"doc-{d}\"{base}, \"content\": \"{content}\"{extras}}}"
            ))?;
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("setup put for doc-{d} failed: {v}"));
            }
            Ok(v)
        };
        let mut v = put(&mut setup, "")?;
        if v.get("rev").is_none() {
            let got = setup.roundtrip(&format!(
                "{{\"route\": \"doc_get\", \"doc\": \"doc-{d}\"{extras}}}"
            ))?;
            let winner = got
                .get("rev")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("setup put for doc-{d} was refused: {v}"))?;
            v = put(&mut setup, &format!(", \"base_rev\": \"{winner}\""))?;
        }
        let rev = v
            .get("rev")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("setup put for doc-{d} returned no rev: {v}"))?;
        init_revs.push(rev.to_owned());
    }

    let (mut report, all) = drive(cfg, |c, end| {
        let Ok(client) = LineClient::connect(&cfg.addr) else {
            return ConnResult {
                failed: 1,
                ..ConnResult::default()
            };
        };
        let editor = Editor {
            validate: cfg.validate,
            client,
            rng: conn_rng(cfg, c),
            extras: extras.clone(),
            revs: init_revs.clone(),
            out: ConnResult::default(),
        };
        match cfg.profile {
            LoadProfile::Store => editor.store_loop(&op_json, end),
            _ => editor.txn_loop(&op_json, end),
        }
    });
    if cfg.validate {
        (report.checked_pairs, report.disagreements) =
            validate_feed(cfg, &extras, &all.acked_txns)?;
    }
    Ok(report)
}

/// One editor thread's connection and its view of the documents.
struct Editor {
    /// Record acked transactions for the validation pass.
    validate: bool,
    client: LineClient,
    rng: SplitMix64,
    extras: String,
    /// The winner revision this editor last saw, per document.
    revs: Vec<String>,
    out: ConnResult,
}

impl Editor {
    /// Sends one request, counting it as sent; `None` means the
    /// transport failed (tallied, and the editor should stop).
    fn send(&mut self, req: &str) -> Option<Json> {
        self.out.sent += 1;
        match self.client.roundtrip(req) {
            Ok(v) => Some(v),
            Err(_) => {
                self.out.failed += 1;
                None
            }
        }
    }

    /// Race `doc_put`s (and occasional `doc_delete`s) against the shared
    /// documents, updating the local view of each document's winner from
    /// the server's own responses.
    fn store_loop(mut self, op_json: &[String], end: Instant) -> ConnResult {
        let docs = self.revs.len();
        // Content used to resurrect a document this editor finds deleted.
        let tparams = TreeParams {
            nodes: 8,
            alphabet: 6,
            ..TreeParams::default()
        };
        let resurrect = text::to_text(&random_tree(&mut self.rng, &tparams));
        let extras = self.extras.clone();
        let mut req = String::new();
        while Instant::now() < end {
            let d = self.rng.gen_range(0..docs);
            req.clear();
            req.push_str("{\"route\": ");
            if self.rng.gen_bool(0.05) {
                // Occasional whole-document delete: exercises tombstones,
                // the reject rung (edits against the tombstone), and
                // resurrection below.
                req.push_str("\"doc_delete\", \"doc\": \"doc-");
                req.push_str(&d.to_string());
                req.push_str("\", \"rev\": \"");
                req.push_str(&self.revs[d]);
                req.push('"');
            } else {
                req.push_str("\"doc_put\", \"doc\": \"doc-");
                req.push_str(&d.to_string());
                req.push_str("\", \"base_rev\": \"");
                req.push_str(&self.revs[d]);
                req.push_str("\", \"op\": ");
                req.push_str(&op_json[self.rng.gen_range(0..op_json.len())]);
            }
            req.push_str(&extras);
            req.push('}');
            let t_req = Instant::now();
            let Some(v) = self.send(&req) else { break };
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                self.out.refused(&v);
                continue;
            }
            self.out.completed += 1;
            self.out.latencies_us.push(micros(t_req.elapsed()));
            let result = v.get("result").and_then(Json::as_str).unwrap_or("rejected");
            self.out.store.record(result);
            if let Some(w) = v.get("winner").and_then(Json::as_str) {
                self.revs[d] = w.to_owned();
            }
            let deleted_winner = v.get("winner_deleted").and_then(Json::as_bool) == Some(true);
            if result == "rejected" || deleted_winner {
                // Refresh the local view; resurrect if the document is
                // gone (every editor may try — creation is idempotent for
                // identical content, and a racing different-content
                // create is just a rejection).
                let refresh = if deleted_winner {
                    format!(
                        "{{\"route\": \"doc_put\", \"doc\": \"doc-{d}\", \"content\": \"{resurrect}\"{extras}}}"
                    )
                } else {
                    format!("{{\"route\": \"doc_get\", \"doc\": \"doc-{d}\"{extras}}}")
                };
                let Some(r) = self.send(&refresh) else { break };
                self.out.completed += 1;
                if let Some(result) = r.get("result").and_then(Json::as_str) {
                    self.out.store.record(result);
                }
                if let Some(w) = r
                    .get("winner")
                    .or_else(|| r.get("rev"))
                    .and_then(Json::as_str)
                {
                    self.revs[d] = w.to_owned();
                }
            }
        }
        self.out
    }

    /// Build a transaction of 1–3 update writes over 1–2 shared
    /// documents, guard every touched document at the winner this editor
    /// last saw, and send it as a one-shot `txn` request. Applied answers
    /// advance the local winner view from the acked revisions; retryable
    /// conflicts refresh the view from the server and resubmit the same
    /// program (bounded attempts, tallied as `conflict_retries`).
    fn txn_loop(mut self, op_json: &[String], end: Instant) -> ConnResult {
        let docs = self.revs.len();
        let extras = self.extras.clone();
        let mut req = String::new();
        'run: while Instant::now() < end {
            // Pick the program once; conflict retries resend it verbatim
            // (with fresh guards), which is the documented retry story.
            let d1 = self.rng.gen_range(0..docs);
            let span = if docs > 1 && self.rng.gen_bool(0.5) {
                2
            } else {
                1
            };
            let d2 = if span == 2 {
                let mut d = self.rng.gen_range(0..docs - 1);
                if d >= d1 {
                    d += 1;
                }
                d
            } else {
                d1
            };
            let n_ops = 1 + self.rng.gen_range(0..3);
            let writes: Vec<(usize, usize)> = (0..n_ops)
                .map(|k| {
                    let doc = if span == 2 && k % 2 == 1 { d2 } else { d1 };
                    (doc, self.rng.gen_range(0..op_json.len()))
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
                    req.push_str(&self.revs[d]);
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
                if attempt > 0 {
                    self.out.txn.conflict_retries += 1;
                }
                let Some(v) = self.send(&req) else {
                    break 'run;
                };
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    self.out.refused(&v);
                    break;
                }
                self.out.completed += 1;
                self.out.latencies_us.push(micros(t_req.elapsed()));
                match v.get("result").and_then(Json::as_str) {
                    Some("applied") => {
                        if v.get("replayed").and_then(Json::as_bool) == Some(true) {
                            self.out.txn.replayed += 1;
                        } else {
                            self.out.txn.applied += 1;
                        }
                        let mut minted: Vec<(String, String)> = Vec::new();
                        for row in v.get("revs").and_then(Json::as_arr).unwrap_or(&[]) {
                            let doc = row.get("doc").and_then(Json::as_str).unwrap_or("");
                            let rev = row.get("rev").and_then(Json::as_str).unwrap_or("");
                            // The last acked revision per document is the
                            // new winner this editor observed.
                            if let Some(idx) = doc
                                .strip_prefix("doc-")
                                .and_then(|s| s.parse::<usize>().ok())
                            {
                                if idx < docs {
                                    self.revs[idx] = rev.to_owned();
                                }
                            }
                            minted.push((doc.to_owned(), rev.to_owned()));
                        }
                        if self.validate && !minted.is_empty() {
                            self.out.acked_txns.push(minted);
                        }
                        break;
                    }
                    Some("conflict") => {
                        self.out.txn.conflicted += 1;
                        // Refresh every touched document's winner before
                        // the resubmission (or before the next fresh
                        // program when the retry budget is spent).
                        for &d in &touched {
                            let refresh =
                                format!("{{\"route\": \"doc_get\", \"doc\": \"doc-{d}\"{extras}}}");
                            let Some(r) = self.send(&refresh) else {
                                break 'run;
                            };
                            self.out.completed += 1;
                            if let Some(w) = r.get("rev").and_then(Json::as_str) {
                                self.revs[d] = w.to_owned();
                            }
                        }
                    }
                    _ => {
                        self.out.txn.rejected += 1;
                        break;
                    }
                }
            }
        }
        self.out
    }
}

/// The editor profiles' `--validate` pass, over the live server once
/// the editors have stopped. Returns `(checks, disagreements)`:
///
/// * changes-feed sequences strictly increase, with one row per
///   document;
/// * every feed row names the document's current winner (`doc_get`
///   agrees on the revision and on whether it is deleted);
/// * cursor replay: resuming from the middle of the feed, and paging it
///   one row at a time, both reconstruct the same rows;
/// * all-or-nothing visibility: every revision of every acked
///   transaction is readable. A fully missing set is a lost commit; a
///   mixed set is a torn one.
fn validate_feed(
    cfg: &LoadConfig,
    extras: &str,
    acked: &[Vec<(String, String)>],
) -> Result<(usize, usize), String> {
    let mut client = LineClient::connect(&cfg.addr)?;
    let mut checked = 0usize;
    let mut bad = 0usize;
    let mut check = |ok: bool| {
        checked += 1;
        if !ok {
            bad += 1;
        }
    };
    let feed = |client: &mut LineClient, params: &str| -> Result<(Vec<Json>, Json), String> {
        let page = client.roundtrip(&format!("{{\"route\": \"doc_changes\"{params}{extras}}}"))?;
        let rows = page
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("doc_changes returned no results array")?
            .to_vec();
        Ok((rows, page))
    };
    let seq_of = |e: &Json| e.get("seq").and_then(Json::as_u64).unwrap_or(0);
    let same = |a: &[Json], b: &[&Json]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_string() == y.to_string())
    };

    let (entries, _) = feed(&mut client, "")?;
    check(entries.windows(2).all(|w| seq_of(&w[0]) < seq_of(&w[1])));
    let mut seen = std::collections::HashSet::new();
    check(
        entries
            .iter()
            .all(|e| seen.insert(e.get("doc").and_then(Json::as_str).unwrap_or("").to_owned())),
    );

    for e in &entries {
        let doc = e.get("doc").and_then(Json::as_str).unwrap_or("");
        let g = client.roundtrip(&format!(
            "{{\"route\": \"doc_get\", \"doc\": \"{doc}\"{extras}}}"
        ))?;
        check(
            g.get("found").and_then(Json::as_bool) == Some(true)
                && g.get("rev").and_then(Json::as_str) == e.get("rev").and_then(Json::as_str)
                && g.get("deleted").and_then(Json::as_bool)
                    == e.get("deleted").and_then(Json::as_bool),
        );
    }

    if let Some(mid) = entries.get(entries.len() / 2).map(seq_of) {
        let (tail, _) = feed(&mut client, &format!(", \"since\": {mid}"))?;
        let expect: Vec<&Json> = entries.iter().filter(|e| seq_of(e) > mid).collect();
        check(same(&tail, &expect));
    }

    let mut cursor = 0u64;
    let mut paged: Vec<Json> = Vec::new();
    let mut paging_ok = true;
    loop {
        let (rows, page) = feed(&mut client, &format!(", \"since\": {cursor}, \"limit\": 1"))?;
        if rows.is_empty() {
            break;
        }
        paged.extend(rows);
        let next = page
            .get("last_seq")
            .and_then(Json::as_u64)
            .unwrap_or(cursor);
        // A cursor that does not advance, or more rows than the feed
        // holds (it should not move: the editors stopped), is broken
        // paging either way.
        if next <= cursor || paged.len() > entries.len() {
            paging_ok = false;
            break;
        }
        cursor = next;
    }
    check(paging_ok && same(&paged, &entries.iter().collect::<Vec<_>>()));

    // Probe each (doc, rev) once — transactions often re-ack a shared
    // revision on replay.
    let mut present: HashMap<(String, String), bool> = HashMap::new();
    for txn in acked {
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
            found += usize::from(ok);
        }
        check(found == txn.len());
    }

    Ok((checked, bad))
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
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        out.refused(v);
        return false;
    }
    out.completed += 1;
    if validate && v.get("degraded").and_then(Json::as_bool) == Some(false) {
        if let Some(conflict) = v.get("conflict").and_then(Json::as_bool) {
            out.observations.push((i, j, conflict));
        }
    }
    true
}

/// Closed-loop client: one buffered write per window of `pipeline`
/// requests, then the window's responses drained in order, each timed
/// from the window's send. At window 1 this is request/response
/// lockstep; wider windows amortize the per-request syscall and wakeup
/// overhead `pipeline`-fold (the server's event loop answers warm-cache
/// checks inline).
fn closed_loop_conn(cfg: &LoadConfig, conn: u64, op_json: &[String], end: Instant) -> ConnResult {
    let mut out = ConnResult::default();
    let Ok(mut writer) = TcpStream::connect(&cfg.addr) else {
        out.failed += 1;
        return out;
    };
    let _ = writer.set_nodelay(true);
    let _ = writer.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(rstream) = writer.try_clone() else {
        out.failed += 1;
        return out;
    };
    let mut reader = BufReader::new(rstream);
    let mut rng = conn_rng(cfg, conn);
    let window = cfg.pipeline.max(1) as u64;
    let extras = request_extras(cfg);
    let mut batch = String::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut line = String::new();
    'run: while Instant::now() < end {
        batch.clear();
        pairs.clear();
        for _ in 0..window {
            let pair = render_check_req(&mut batch, &mut rng, op_json, &extras, out.sent);
            batch.push('\n');
            pairs.push(pair);
            out.sent += 1;
        }
        let t_send = Instant::now();
        if writer.write_all(batch.as_bytes()).is_err() {
            out.failed += window;
            break;
        }
        for (k, &(i, j)) in pairs.iter().enumerate() {
            line.clear();
            let v = match reader.read_line(&mut line) {
                Ok(n) if n > 0 => Json::parse(line.trim_end()).ok(),
                _ => None,
            };
            let Some(v) = v else {
                out.failed += window - k as u64;
                break 'run;
            };
            if tally_response(&mut out, &v, i, j, cfg.validate) {
                out.latencies_us.push(micros(t_send.elapsed()));
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
/// *and* from the actual send (raw). Under backpressure a closed-loop
/// measurement simply stops sending — the requests that would have
/// observed the stall are never timed, so the percentiles only sample
/// the server's good moods. The corrected clock charges the stall to
/// every request that was due during it.
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
            let mut rng = conn_rng(cfg, conn);
            let extras = request_extras(cfg);
            let interval = 1.0 / rate.max(1e-9);
            let t0 = Instant::now();
            let mut k: u64 = 0;
            let mut sent: u64 = 0;
            let mut batch = String::new();
            loop {
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
                out.latencies_us
                    .push(micros(t_resp.saturating_duration_since(sent_at)));
                out.corrected_us
                    .push(micros(t_resp.saturating_duration_since(intended)));
            }
        }
        out.sent = writer_handle.join().unwrap_or(0);
    });
    out
}

/// Re-checks every distinct observed pair against an in-process
/// scheduler (value semantics, as every request asks). Returns
/// `(checked, disagreements)`.
fn validate(ops: &[Op], observations: &[(usize, usize, bool)]) -> (usize, usize) {
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
        semantics: Semantics::Value,
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
        for p in [LoadProfile::Linear, LoadProfile::Store, LoadProfile::Txn] {
            assert_eq!(LoadProfile::from_name(p.name()).unwrap(), p);
        }
        assert!(LoadProfile::from_name("warp").is_err());
        assert!(LoadProfile::from_name("grounded").is_err());
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
        assert_eq!(validate(&ops, &obs), (2, 0));
        let wrong = vec![(0, 1, false), (2, 1, true), (1, 0, true)];
        // (0,1) lied once and then contradicted itself; (1,2) lied.
        assert_eq!(validate(&ops, &wrong), (2, 3));
    }
}
