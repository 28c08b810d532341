//! What every workload shares: the run context, server set-up, measured
//! phases, the end-to-end metrics, and the per-layer metrics read from
//! the server's `metrics` route.

use crate::client::{Conn, LoopStats};
use crate::report::Outcome;
use crate::server::{Metrics, ServerProc};
use crate::stats::{median, quantile, summarize, Fnv, LatencySummary};
use crate::trace::Tracer;
use cxu::gen::json::Json;
use cxu::sched::SchedConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The run's settings.
pub struct Ctx {
    /// The `cxu` binary under test.
    pub cxu: PathBuf,
    /// Scratch and report directory.
    pub out: PathBuf,
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    pub trace: bool,
    /// 1.0, or 1/20 in smoke mode: scales document sizes and counts.
    pub scale: f64,
    /// Hard wall-clock cap for one workload.
    pub deadline: Instant,
}

impl Ctx {
    pub fn dur(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// `n` scaled, never below `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }

    /// A fingerprint of the run's settings — workload, seed, measured
    /// seconds, scale — for the workload to extend with its inputs.
    pub fn fingerprint(&self, workload: &str) -> Fnv {
        let mut f = Fnv::default();
        f.str(workload);
        f.u64(self.seed);
        f.u64(self.seconds.to_bits());
        f.u64(self.scale.to_bits());
        f
    }

    /// Fails when the workload has outlived its wall-clock cap.
    pub fn in_time(&self, what: &str) -> Result<(), String> {
        if Instant::now() > self.deadline {
            Err(format!("wall-clock cap exceeded before {what}"))
        } else {
            Ok(())
        }
    }
}

/// Spawns-and-seeds the server `times` times, stopping all but the last;
/// returns the last server and the median set-up time. Set-up is
/// repeated so that `setup_s` is a median, not one noisy sample.
pub fn setup(
    times: usize,
    mut once: impl FnMut(usize) -> Result<ServerProc, String>,
) -> Result<(ServerProc, f64), String> {
    let mut secs = Vec::with_capacity(times);
    for i in 0..times {
        let t = Instant::now();
        let server = once(i)?;
        secs.push(t.elapsed().as_secs_f64());
        if i + 1 == times {
            return Ok((server, median(&secs)));
        }
        server.stop()?;
    }
    Err("setup ran zero times".to_owned())
}

fn fetch_metrics(server: &ServerProc) -> Result<Metrics, String> {
    let v = Conn::connect(&server.addr)?.call_ok(r#"{"route": "metrics"}"#)?;
    Metrics::from_response(&v)
}

/// One measured phase: its loop counts, the server CPU it cost, and the
/// server's metric deltas across it.
pub struct Phase {
    pub stats: LoopStats,
    pub cpu_s: f64,
    pub m: Metrics,
}

pub fn measure(server: &ServerProc, run: impl FnOnce() -> LoopStats) -> Result<Phase, String> {
    let m0 = fetch_metrics(server)?;
    let c0 = server.cpu_seconds()?;
    let stats = run();
    let c1 = server.cpu_seconds()?;
    let m1 = fetch_metrics(server)?;
    Ok(Phase {
        stats,
        cpu_s: c1 - c0,
        m: m1.since(&m0),
    })
}

/// One round of a fixed-work workload: a fresh server, set up and
/// warmed up, then driven through the same measured requests as every
/// other round of the run.
pub struct Round<T> {
    /// The measured requests.
    pub phase: Phase,
    /// When the measured requests began.
    pub started: Instant,
    /// Spawn to the end of the warm-up, seconds.
    pub setup_s: f64,
    /// What the workload keeps of the round (request logs, verdicts).
    pub kept: T,
}

/// Runs rounds until the run's time is up, at least one. Each round
/// starts its own server; the previous one drains first. Returns the
/// rounds and the last round's server, still running.
///
/// Fixed-work rounds are for workloads whose server state grows with
/// the requests it has served (revision histories, memo caches): in a
/// fixed-time phase a faster server would serve more and end slower,
/// while every round reaches the same state at the same point however
/// fast the server; a faster one only fits more rounds into the run.
pub fn run_rounds<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    mut round: impl FnMut(usize) -> Result<(Round<T>, ServerProc), String>,
) -> Result<(Vec<Round<T>>, ServerProc), String> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut undrained = Vec::new();
    while rounds.is_empty() || t0.elapsed() < ctx.dur(1.0) {
        if let Some(s) = server.take() {
            undrained.extend(s.stop().err());
        }
        ctx.in_time("a round")?;
        let (r, s) = round(rounds.len())?;
        rounds.push(r);
        server = Some(s);
    }
    out.check(
        "rounds.graceful_drain",
        undrained.is_empty(),
        format!(
            "{} of {} servers did not drain {undrained:?}",
            undrained.len(),
            rounds.len() - 1
        ),
    );
    out.diag("rounds", rounds.len() as f64, "count");
    Ok((rounds, server.expect("at least one round ran")))
}

/// Reports fixed-work rounds: throughput, CPU µs per request and set-up
/// time as medians over rounds, latency windows over every round's
/// completions in order, then as [`report`]. Returns the rounds' phases
/// as one, the latency summary, and what each round kept.
pub fn report_rounds<T>(
    out: &mut Outcome,
    rounds: Vec<Round<T>>,
) -> (Phase, LatencySummary, Vec<T>) {
    let per_round =
        |f: &dyn Fn(&Round<T>) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let throughput = per_round(&|r| r.phase.stats.completed as f64 / r.phase.stats.elapsed_s);
    let cpu_us = per_round(&|r| r.phase.cpu_s * 1e6 / r.phase.stats.completed.max(1) as f64);
    let setup_s = per_round(&|r| r.setup_s);
    let t0 = rounds[0].started;
    let (mut phases, mut offsets, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    for r in rounds {
        offsets.push(r.started.saturating_duration_since(t0).as_micros() as u64);
        phases.push(r.phase);
        kept.push(r.kept);
    }
    let mut phase = concat(phases, &offsets);
    let lat = report(out, &mut phase, (throughput, cpu_us), setup_s);
    (phase, lat, kept)
}

/// Phases run one after another, as one: loop counts and metric deltas
/// summed, each phase's completion times shifted by its start
/// (`offsets_us`, µs after the first phase began) so that latency
/// windows follow completion order across them.
fn concat(phases: Vec<Phase>, offsets_us: &[u64]) -> Phase {
    let mut all = Phase {
        stats: LoopStats::default(),
        cpu_s: 0.0,
        m: Metrics::default(),
    };
    for (mut p, &off) in phases.into_iter().zip(offsets_us) {
        for s in &mut p.stats.samples {
            s.done_us += off;
        }
        let elapsed = all.stats.elapsed_s + p.stats.elapsed_s;
        all.stats.merge(p.stats);
        all.stats.elapsed_s = elapsed;
        all.cpu_s += p.cpu_s;
        all.m.add(&p.m);
    }
    all
}

/// Completions per second and server CPU µs per completion, taken per
/// slice between the phase's CPU readings (about a second each; a
/// trailing slice under half a second is dropped) and summarised by the
/// best decile: the 90th percentile of the rates, the 10th of the CPU
/// costs. Neighbours on a shared host only ever slow slices down; a
/// slower program slows every slice.
fn slice_rates(stats: &LoopStats) -> (f64, f64) {
    let mut done: Vec<u64> = stats.samples.iter().map(|s| s.done_us).collect();
    done.sort_unstable();
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    for w in stats.cpu.windows(2) {
        let ((ta, ca), (tb, cb)) = (w[0], w[1]);
        let secs = tb.saturating_sub(ta) as f64 / 1e6;
        let n = done.partition_point(|&d| d < tb) - done.partition_point(|&d| d < ta);
        if n == 0 || secs < 0.5 {
            continue;
        }
        rates.push(n as f64 / secs);
        cpus.push((cb - ca) * 1e6 / n as f64);
    }
    (quantile(&rates, 0.9), quantile(&cpus, 0.1))
}

/// Sets the end-to-end metrics shared by every workload.
fn set_end_to_end(
    out: &mut Outcome,
    phase: &Phase,
    (throughput, cpu_us): (f64, f64),
    lat: &LatencySummary,
    setup_s: f64,
) {
    out.set("throughput_ops", throughput);
    out.set("p50_ms", lat.p50_us / 1e3);
    out.set("p99_ms", lat.p99_us / 1e3);
    out.set("cpu_us_per_op", cpu_us);
    out.set("setup_s", setup_s);
    out.diag(
        "phase.completed_per_s",
        phase.stats.completed as f64 / phase.stats.elapsed_s,
        "1/s",
    );
    out.diag(
        "phase.cpu_us_per_op",
        phase.cpu_s * 1e6 / phase.stats.completed.max(1) as f64,
        "us",
    );
    out.diag("latency.samples", lat.samples as f64, "count");
    out.diag("latency.windows", lat.windows as f64, "count");
    out.diag("latency.whole_p50_ms", lat.whole_p50_us / 1e3, "ms");
    out.diag("latency.whole_p99_ms", lat.whole_p99_us / 1e3, "ms");
    out.diag("latency.max_ms", lat.max_us / 1e3, "ms");
    out.diag("latency.mean_ms", lat.mean_us / 1e3, "ms");
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Reports a time-based measured phase: throughput and CPU per request
/// by slice (see [`slice_rates`]), then as [`report`].
pub fn report_phase(out: &mut Outcome, phase: &mut Phase, setup_s: f64) -> LatencySummary {
    out.diag(
        "phase.slices",
        phase.stats.cpu.len().saturating_sub(1) as f64,
        "count",
    );
    let rates = slice_rates(&phase.stats);
    report(out, phase, rates, setup_s)
}

/// Reports the measured phase: the end-to-end metrics (given its
/// throughput and CPU µs per request), the per-layer metrics its
/// `metrics` deltas give, its identities and its accounting. Returns
/// its latency summary.
pub fn report(
    out: &mut Outcome,
    phase: &mut Phase,
    rates: (f64, f64),
    setup_s: f64,
) -> LatencySummary {
    // Windows of 2,000 completions: each window's p99 rests on 20 samples.
    let lat = summarize(&mut phase.stats.samples, 2_000);
    set_end_to_end(out, phase, rates, &lat, setup_s);
    layer_metrics(out, phase, lat.mean_us);
    check_partitions(out, &phase.m, "phase");
    trace_overhead(out, &phase.stats);
    account(out, &phase.stats);
    lat
}

/// Per-layer metrics read from a phase's `metrics` deltas.
fn layer_metrics(out: &mut Outcome, p: &Phase, client_mean_us: f64) {
    let m = &p.m;
    let done = p.stats.completed.max(1);
    out.set("serve.request_us", m.mean_us("serve.request_ns"));
    out.set(
        "serve.outside_us",
        (client_mean_us - m.mean_us("serve.request_ns")).max(0.0),
    );
    out.set(
        "serve.inline_hit_rate",
        ratio(
            m.c_sum("serve.shard.", ".inline_hits"),
            m.n("serve.check_ns"),
        ),
    );
    out.set(
        "serve.steal_rate",
        ratio(
            m.c_sum("serve.shard.", ".stolen"),
            m.c_sum("serve.shard.", ".executed"),
        ),
    );

    out.set(
        "sched.cache_hit_rate",
        ratio(m.c("sched.cache.hits"), m.c("sched.cache.lookups")),
    );
    let decisions = m.c_sum("sched.route.", "");
    let conservative = m.c_sum("sched.route.conservative", "");
    out.set(
        "sched.prefilter_rate",
        ratio(m.c("sched.route.prefilter_no_conflict"), decisions),
    );
    let hits = m.c("sched.intern.pattern_hit") + m.c("sched.intern.tree_hit");
    let lookups = hits + m.c("sched.intern.pattern_new") + m.c("sched.intern.tree_new");
    out.set("sched.intern_hit_rate", ratio(hits, lookups));
    out.set(
        "sched.exact_rate",
        if decisions == 0 {
            0.0
        } else {
            1.0 - ratio(conservative, decisions)
        },
    );
    out.set(
        "sched.deadline_rate",
        ratio(m.c("sched.route.conservative_deadline"), decisions),
    );

    out.set("core.linear_us", m.mean_us("core.detect.linear_ns"));
    out.set("core.uu_linear_us", m.mean_us("core.uu_linear.ns"));
    let (bn, bs) = ["core.brute.ns", "core.uu_search.ns"]
        .iter()
        .filter_map(|h| m.hists.get(*h))
        .fold((0u64, 0u64), |a, h| (a.0 + h.0, a.1 + h.1));
    out.set(
        "core.brute_us",
        if bn == 0 {
            0.0
        } else {
            bs as f64 / bn as f64 / 1e3
        },
    );
    let searches = m.c("core.brute.searches") + m.c("core.uu_search.searches");
    out.set("core.brute_per_op", ratio(searches, done));
    out.set(
        "core.brute_budget_rate",
        ratio(
            m.c("core.brute.budget") + m.c("core.uu_search.budget"),
            searches,
        ),
    );
    let ch = m.c("automata.compile.hit");
    out.set(
        "automata.compile_hit_rate",
        ratio(ch, ch + m.c("automata.compile.miss")),
    );

    let puts = m.c("store.puts");
    out.set(
        "store.revs_per_doc",
        ratio(
            m.g("store.revisions").max(0) as u64,
            m.g("store.docs").max(0) as u64,
        ),
    );
    out.set(
        "store.merge_pairs_per_put",
        ratio(m.c("store.merge.checked_pairs"), puts),
    );
    out.set(
        "store.put_retry_rate",
        ratio(m.c("store.put.retries"), puts),
    );

    let writes = puts + m.c("txn.commits");
    out.set("wal.bytes_per_op", ratio(m.c("store.wal.bytes"), done));
    out.set("wal.syncs_per_op", ratio(m.c("store.wal.syncs"), done));
    out.set("wal.compactions", m.c("store.wal.compactions") as f64);

    let ih = m.c("index.cache.hits");
    out.set(
        "index.cache_hit_rate",
        ratio(ih, ih + m.c("index.cache.misses")),
    );
    out.set(
        "index.rebuilds_per_write",
        ratio(m.c("index.cache.misses"), writes),
    );
    out.set(
        "index.fallback_rate",
        ratio(m.c("index.eval.fallback"), m.c("index.grounded_checks")),
    );
    out.set(
        "index.bytes_per_node",
        ratio(m.c("index.bytes"), m.c("index.nodes")),
    );

    let commits = m.c("txn.commits");
    out.set("txn.pairs_per_txn", ratio(m.c("txn.pair.checked"), commits));
    out.set("txn.retry_rate", ratio(m.c("txn.retries"), commits));
    out.set("txn.conflict_rate", ratio(m.c("txn.conflicted"), commits));
}

/// The metrics route's accounting identities over one phase delta.
pub fn check_partitions(out: &mut Outcome, m: &Metrics, phase: &str) {
    let puts = m.c("store.puts");
    let parts: u64 = [
        "store.put.applied",
        "store.put.merged",
        "store.put.branched",
        "store.put.rejected",
        "store.put.noop",
        "store.put.failed",
    ]
    .iter()
    .map(|k| m.c(k))
    .sum();
    out.check(
        &format!("{phase}.store_put_partition"),
        puts == parts,
        format!("store.puts {puts} vs buckets {parts}"),
    );
    let commits = m.c("txn.commits");
    let tparts: u64 = [
        "txn.applied",
        "txn.conflicted",
        "txn.rejected",
        "txn.failed",
    ]
    .iter()
    .map(|k| m.c(k))
    .sum();
    out.check(
        &format!("{phase}.txn_partition"),
        commits == tparts,
        format!("txn.commits {commits} vs buckets {tparts}"),
    );
}

/// Attempted/completed/failed bookkeeping for a measured phase; keeps
/// `client.failure_rate` current.
pub fn account(out: &mut Outcome, stats: &LoopStats) {
    out.attempted += stats.sent;
    out.failed += stats.failed;
    out.set(
        "client.failure_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.check(
        "accounting",
        stats.sent == stats.completed + stats.failed,
        format!(
            "attempted {} = completed {} + failed {}",
            stats.sent, stats.completed, stats.failed
        ),
    );
}

/// Traced runs: server CPU over an idle window, and the median round
/// trip of lockstep `health` pings at idle.
pub fn idle_probes(out: &mut Outcome, server: &ServerProc, idle: Duration) -> Result<(), String> {
    let c0 = server.cpu_seconds()?;
    let t0 = Instant::now();
    std::thread::sleep(idle);
    let c1 = server.cpu_seconds()?;
    out.set(
        "serve.idle_cpu_pct",
        100.0 * (c1 - c0) / t0.elapsed().as_secs_f64(),
    );
    let mut conn = Conn::connect(&server.addr)?;
    let mut lat = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let t = Instant::now();
        conn.call_ok(r#"{"route": "health"}"#)?;
        lat.push(t.elapsed().as_micros().min(u32::MAX as u128) as u32);
    }
    lat.sort_unstable();
    out.set(
        "serve.rtt_floor_us",
        f64::from(crate::stats::percentile(&lat, 0.5)),
    );
    out.set("client.floor_us", crate::client::echo_floor_us(2_000)?);
    Ok(())
}

/// Traced runs: tracing overhead from the traced (odd) and untraced
/// (even) one-second slices of one phase — the drop in completions per
/// second while spans are recorded, as a percentage.
pub fn trace_overhead(out: &mut Outcome, stats: &LoopStats) {
    if stats.traced_s > 0.0 && stats.untraced_s > 0.0 && stats.untraced_done > 0 {
        let rate_on = stats.traced_done as f64 / stats.traced_s;
        let rate_off = stats.untraced_done as f64 / stats.untraced_s;
        out.set(
            "client.trace_overhead_pct",
            100.0 * (rate_off - rate_on) / rate_off,
        );
    }
}

/// Marks the run failed when a server did not drain, and keeps going.
pub fn stop_server(out: &mut Outcome, server: ServerProc) {
    let r = server.stop();
    out.check("graceful_drain", r.is_ok(), r.err().unwrap_or_default());
}

/// The store workloads' document ids.
pub fn doc_name(d: usize) -> String {
    format!("doc-{d}")
}

/// Creates documents `doc-0…` with the given contents (compact text
/// form); returns their first revisions.
pub fn create_docs(server: &ServerProc, contents: &[String]) -> Result<Vec<String>, String> {
    let mut c = Conn::connect(&server.addr)?;
    contents
        .iter()
        .enumerate()
        .map(|(d, content)| {
            let v = c.call_ok(&format!(
                "{{\"route\": \"doc_put\", \"doc\": \"{}\", \"content\": {}}}",
                doc_name(d),
                Json::str(content.as_str())
            ))?;
            v.get("rev")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| "create returned no rev".to_owned())
        })
        .collect()
}

/// The current winners of documents `doc-0…doc-{n-1}`.
pub fn winners(server: &ServerProc, n: usize) -> Result<Vec<String>, String> {
    let mut c = Conn::connect(&server.addr)?;
    (0..n)
        .map(|d| {
            let v = c.call_ok(&format!(
                "{{\"route\": \"doc_get\", \"doc\": \"{}\"}}",
                doc_name(d)
            ))?;
            Ok(v.get("rev").and_then(Json::as_str).unwrap_or("").to_owned())
        })
        .collect()
}

/// The scheduler configuration `cxu serve` runs (value semantics).
pub fn served_sched_config() -> SchedConfig {
    SchedConfig {
        semantics: cxu::ops::Semantics::Value,
        ..cxu::serve::ServeConfig::default().sched
    }
}

/// Writes the replay's spans and the served phase's client spans to
/// `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(
    ctx: &Ctx,
    out: &Outcome,
    tracer: &Tracer,
    client: &[(u64, u64, u64)],
) -> Result<(), String> {
    let path = ctx.out.join(format!("trace-{}.jsonl", out.workload));
    crate::trace::write_file(&path, tracer, client).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Sample;

    #[test]
    fn slice_rates_pass_over_a_slow_slice() {
        // Five one-second slices: 1,000 completions and 0.1 CPU-s each,
        // except one slice stalled to 100 completions costing 0.1 CPU-s.
        let mut stats = LoopStats::default();
        let mut cpu = 0.0;
        for s in 0..5u64 {
            stats.cpu.push((s * 1_000_000, cpu));
            let n = if s == 2 { 100 } else { 1_000 };
            for i in 0..n {
                stats.samples.push(Sample {
                    done_us: s * 1_000_000 + i * (1_000_000 / n),
                    latency_ns: 1,
                });
            }
            cpu += 0.1;
        }
        stats.cpu.push((5_000_000, cpu));
        // A trailing sliver under half a second is ignored.
        stats.cpu.push((5_100_000, cpu + 0.05));
        let (rate, cpu_us) = slice_rates(&stats);
        assert_eq!(rate, 1_000.0);
        assert!((cpu_us - 100.0).abs() < 1e-6, "{cpu_us}");
    }
}
