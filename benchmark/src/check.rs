//! The two `check`-route workloads.
//!
//! * `check-hot` — a 60-op linear pool (1,770 distinct pairs) whose
//!   verdicts are all memoized during set-up, so every measured request
//!   is answered from the warm cache: the serve layer (parse, route,
//!   inline memo hit, render, IO loop) does nearly all the work. Open
//!   loop at a fixed rate; traced runs add a pipelined closed loop for
//!   the peak rate.
//! * `check-cold` — pairs that almost never repeat, so the memo cache
//!   misses and the detectors do the work. Four in five come from a
//!   5,000-op linear pool and take the PTIME routes (§4 read–update, §6
//!   update–update); one in five is a branching read against a small
//!   update over one label, decided by the exhaustive Lemma 11 witness
//!   search — NP-side work that finishes within the server's budget
//!   and answers exactly. Closed loop, two connections, in fixed-work
//!   rounds (see [`common::run_rounds`]): the memo cache and the
//!   pattern interner grow with every request served.

use crate::client::{closed_loop_pair, open_loop, pipelined, Session, Work};
use crate::common::{self, Ctx, Round};
use crate::report::Outcome;
use crate::server::ServerProc;
use crate::trace::Tracer;
use cxu::gen::json::Json;
use cxu::gen::patterns::{random_delete_pattern, random_pattern, PatternParams};
use cxu::gen::program::{random_program, ProgramParams, Stmt};
use cxu::gen::rng::{Rng, SplitMix64};
use cxu::gen::wire;
use cxu::ops::{Delete, Insert, Read, Update};
use cxu::sched::{ops_of_program, Deadline, Op, Scheduler};
use cxu::serve::proto::{self, Route};
use cxu::tree::{Symbol, Tree};
use std::time::{Duration, Instant};

/// check-hot's offered load, requests per second: a quarter of the rate
/// at which p99 passed 20 ms on an idle 2-vCPU host (40k/s). At 20k/s
/// the knee came close whenever other tenants of the host took CPU, and
/// every stall left a queue behind it: p99 varied 0.8–1.0 (interquartile
/// range over median) across runs, against 0.12 at 10k/s.
const HOT_RATE: f64 = 10_000.0;
/// Requests per burst. check-hot's requests are due 20 at a time, with
/// exponentially distributed gaps between bursts (a Poisson process of
/// bursts, 2 ms apart on average). A writer thread cannot space single
/// requests 100 µs apart (its sleeps overshoot by about half that); the
/// uneven batches it produced instead let the server's IO loop settle
/// in its spin mode on some runs and its sleep mode on others, a 3×
/// swing in p50. Evenly spaced bursts fixed the mode but phase-locked
/// with the IO loop's sleep period, so p50 followed that period's exact
/// length; random gaps sample every phase.
const HOT_BURST: u64 = 20;
/// Pipelined window (set-up fill and the traced peak phase).
const WINDOW: usize = 64;
/// Check verdicts re-derived in process per run.
const SAMPLE: usize = 2_000;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// check-cold: share of requests from the NP class.
const NP_SHARE: f64 = 0.2;
/// check-cold: labels of the NP class. Each pair uses one, so pairs
/// almost never repeat while every pair's witness alphabet stays two
/// symbols (the label and Lemma 11's fresh α).
const NP_LABELS: usize = 4_096;
/// check-cold: the least share of exact (non-conservative) answers a
/// run may serve. Calibrated answers are 0.94–0.95 exact: every
/// NP-class pair and the PTIME pairs the §6 analysis decides.
const EXACT_FLOOR: f64 = 0.9;
/// check-cold: requests per connection in one round, warm-up included.
const COLD_ROUND: usize = 6_000;
/// check-cold: the warm-up, the first requests of each round per
/// connection, timed as set-up.
const COLD_WARMUP: usize = 1_000;

/// Due offsets of `dur`'s worth of check-hot bursts, seeded.
fn hot_schedule(seed: u64, dur: Duration) -> Vec<Duration> {
    let mean = HOT_BURST as f64 / HOT_RATE;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x706f6973736f6e);
    let mut at = 0.0;
    let mut out = Vec::new();
    while at < dur.as_secs_f64() {
        out.push(Duration::from_secs_f64(at));
        at += -mean * (1.0 - rng.next_f64()).ln();
    }
    out
}

struct Pool {
    json: Vec<String>,
    ops: Vec<Op>,
    /// Indices of the updates in `ops`.
    updates: Vec<usize>,
    /// Share of requests drawn from the NP class instead of the pool.
    np_share: f64,
}

/// A seeded linear operation pool: linear(4) patterns over six labels,
/// half reads and half updates (40% of them deletes).
fn pool(seed: u64, len: usize, np_share: f64) -> Pool {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x636865636b);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    let program = random_program(
        &mut rng,
        &ProgramParams {
            len,
            update_rate: 0.5,
            delete_rate: 0.4,
            pattern,
        },
    );
    let ops = ops_of_program(&program);
    Pool {
        json: program
            .stmts
            .iter()
            .map(|s| wire::stmt_to_json(s).to_string())
            .collect(),
        updates: (0..ops.len()).filter(|&i| ops[i].is_update()).collect(),
        ops,
        np_share,
    }
}

/// The operations of one check request.
enum Pair {
    /// Two operations of the pool, by index.
    Pool(usize, usize),
    /// A generated NP-class pair, as wire JSON.
    Np(Box<[String; 2]>),
}

/// An NP-class pair: a branching read of three nodes (no wildcards)
/// against a linear two-node insert or delete, all over one label `a`.
/// Lemma 11 bounds a witness by |R|·|U|·(k+1) = 6 nodes over {a, α}:
/// 1,202 candidate trees, within the server's 5,000-tree budget, so the
/// exhaustive search always finishes and its answer is exact.
fn np_pair(r: &mut SplitMix64) -> [String; 2] {
    let a = Symbol::intern(&format!("n{}", r.gen_range(0..NP_LABELS)));
    let read = PatternParams {
        nodes: 3,
        alphabet: 1,
        labels: vec![a],
        wildcard_rate: 0.0,
        descendant_rate: 0.3,
        branch_rate: 0.5,
    };
    let upd = PatternParams {
        nodes: 2,
        wildcard_rate: 0.2,
        branch_rate: 0.0,
        ..read.clone()
    };
    let read = loop {
        let p = random_pattern(r, &read);
        if !p.is_linear() {
            break p;
        }
    };
    let update = if r.gen_bool(0.4) {
        Update::Delete(
            Delete::new(random_delete_pattern(r, &upd))
                .expect("delete patterns have output below the root"),
        )
    } else {
        Update::Insert(Insert::new(random_pattern(r, &upd), Tree::new(a)))
    };
    [Stmt::Read(Read::new(read)), Stmt::Update(update)].map(|s| wire::stmt_to_json(&s).to_string())
}

/// The pair request `key` asks about: a pure function of the seed and
/// the key, so the writer thread, the validator and the replay agree.
/// A pool pair's second operation is always an update — two reads
/// commute trivially and never reach a detector.
fn pair_at(seed: u64, key: u64, pool: &Pool) -> Pair {
    let mut r = SplitMix64::seed_from_u64(seed ^ key.wrapping_mul(GOLDEN) ^ 0x7061697273);
    if pool.np_share > 0.0 && r.gen_bool(pool.np_share) {
        return Pair::Np(Box::new(np_pair(&mut r)));
    }
    Pair::Pool(
        r.gen_range(0..pool.ops.len()),
        pool.updates[r.gen_range(0..pool.updates.len())],
    )
}

fn render(pool: &Pool, pair: &Pair, id: u64, out: &mut String) {
    let (a, b) = match pair {
        Pair::Pool(i, j) => (&pool.json[*i], &pool.json[*j]),
        Pair::Np(p) => (&p[0], &p[1]),
    };
    out.push_str("{\"route\": \"check\", \"id\": ");
    out.push_str(&id.to_string());
    out.push_str(", \"semantics\": \"value\", \"a\": ");
    out.push_str(a);
    out.push_str(", \"b\": ");
    out.push_str(b);
    out.push('}');
}

/// The detectors a `check` answer can name.
const DETECTORS: [&str; 9] = [
    "trivial",
    "prefilter-no-conflict",
    "ptime-linear-read",
    "ptime-linear-updates",
    "witness-search",
    "conservative-undecided",
    "conservative-budget",
    "conservative-deadline",
    "conservative-panic",
];

/// A served verdict in one byte: 0 unanswered, otherwise 1 + conflict
/// + 2·degraded + 4·(the named detector's position in [`DETECTORS`]).
fn code(v: &Json) -> u8 {
    let flag = |k: &str| u8::from(v.get(k).and_then(Json::as_bool) == Some(true));
    let name = v.get("detector").and_then(Json::as_str).unwrap_or("");
    let pos = DETECTORS
        .iter()
        .position(|d| *d == name)
        .unwrap_or(DETECTORS.len());
    1 + flag("conflict") + 2 * flag("degraded") + 4 * pos as u8
}

fn conflict(code: u8) -> bool {
    code > 0 && (code - 1) & 1 == 1
}

fn degraded(code: u8) -> bool {
    code > 0 && (code - 1) & 2 == 2
}

fn detector(code: u8) -> &'static str {
    match code {
        0 => "unanswered",
        c => DETECTORS
            .get(usize::from((c - 1) / 4))
            .copied()
            .unwrap_or("unknown"),
    }
}

/// One recorded verdict stream: key space tag plus codes by index.
struct Stream {
    base: u64,
    codes: Vec<u8>,
}

/// The operations of `pair` as the server sees them: its request line
/// parsed by the server's own parser.
fn parsed(pool: &Pool, pair: &Pair) -> (Op, Op) {
    let mut line = String::new();
    render(pool, pair, 0, &mut line);
    match proto::parse_request(&line).map(|r| r.route) {
        Ok(Route::Check { a, b }) => (*a, *b),
        _ => unreachable!("generated check requests parse"),
    }
}

/// Re-derives a seeded sample of served verdicts in process, with the
/// server's scheduler configuration: where both answers are exact they
/// must agree. A conservative answer is sound and counted, not
/// compared — the server's memo cache and interner can make one pair
/// exact on one run and conservative on another (see
/// [`check_exact_share`] for what bounds that).
fn validate(out: &mut Outcome, pool: &Pool, seed: u64, streams: &[Stream]) {
    let total: usize = streams.iter().map(|s| s.codes.len()).sum();
    let mut sched = Scheduler::new(common::served_sched_config());
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x76616c6964);
    let (mut compared, mut mismatches, mut conservative) = (0usize, 0usize, 0usize);
    let mut examples = Vec::new();
    for _ in 0..SAMPLE.min(total) {
        let mut at = rng.gen_range(0..total);
        let s = streams
            .iter()
            .find(|s| {
                if at < s.codes.len() {
                    true
                } else {
                    at -= s.codes.len();
                    false
                }
            })
            .expect("index within the streams");
        let served = s.codes[at];
        if served == 0 {
            continue;
        }
        let key = s.base | at as u64;
        let (a, b) = parsed(pool, &pair_at(seed, key, pool));
        let d = sched.check_pair(&a, &b, &Deadline::never());
        if degraded(served) || d.verdict.detector.is_conservative() {
            conservative += 1;
            continue;
        }
        compared += 1;
        if conflict(served) != d.verdict.conflict {
            mismatches += 1;
            if examples.len() < 3 {
                let mut line = String::new();
                render(pool, &pair_at(seed, key, pool), key, &mut line);
                examples.push(format!(
                    "served {} conflict {}, in process {} conflict {}: {line}",
                    detector(served),
                    conflict(served),
                    d.verdict.detector.name(),
                    d.verdict.conflict
                ));
            }
        }
    }
    out.check(
        "check_verdicts",
        mismatches == 0 && compared > 0,
        format!(
            "{compared} exact verdicts re-derived, {mismatches} mismatches, \
             {conservative} conservative on either side {examples:?}"
        ),
    );
}

/// Fails the run when fewer than [`EXACT_FLOOR`] of the served answers
/// are exact, so that speed cannot be bought with conservative verdicts.
fn check_exact_share(out: &mut Outcome, codes: impl Iterator<Item = u8>) {
    let (mut answered, mut exact) = (0usize, 0usize);
    for c in codes.filter(|&c| c != 0) {
        answered += 1;
        exact += usize::from(!degraded(c));
    }
    let share = exact as f64 / answered.max(1) as f64;
    out.diag("served.exact_share", share, "fraction");
    out.check(
        "check_exact_share",
        share >= EXACT_FLOOR,
        format!("{share:.4} of {answered} served answers exact (floor {EXACT_FLOOR})"),
    );
}

/// Rounds must agree with the first wherever both answered exactly;
/// answers exact in one round and conservative in another are counted.
fn check_rounds_agree(out: &mut Outcome, ctx: &Ctx, pool: &Pool, codes: &[Codes]) {
    let (mut disagree, mut flips) = (0usize, 0usize);
    let mut examples = Vec::new();
    for round in &codes[1..] {
        for (conn, base) in [0u64, 1 << 40].into_iter().enumerate() {
            for (i, (&x, &y)) in codes[0][conn].iter().zip(&round[conn]).enumerate() {
                if x == 0 || y == 0 {
                    continue;
                }
                if degraded(x) != degraded(y) {
                    flips += 1;
                } else if !degraded(x) && conflict(x) != conflict(y) {
                    disagree += 1;
                    if examples.len() < 3 {
                        let mut line = String::new();
                        render(
                            pool,
                            &pair_at(ctx.seed, base | i as u64, pool),
                            0,
                            &mut line,
                        );
                        examples.push(format!(
                            "request {i}: {} conflict {} vs {} conflict {}: {line}",
                            detector(x),
                            conflict(x),
                            detector(y),
                            conflict(y)
                        ));
                    }
                }
            }
        }
    }
    out.diag("rounds.exactness_flips", flips as f64, "count");
    out.check(
        "rounds.agree",
        disagree == 0,
        format!(
            "{} rounds, {disagree} exact answers differing from the first round's {examples:?}",
            codes.len()
        ),
    );
}

/// Replays requests in process through the layers' public functions,
/// with a span around each call.
fn replay(
    out: &mut Outcome,
    pool: &Pool,
    seed: u64,
    warm: &[(usize, usize)],
    keys: &[u64],
    budget: Duration,
) -> Tracer {
    let mut sched = Scheduler::new(common::served_sched_config());
    for &(i, j) in warm {
        sched.check_pair(&pool.ops[i], &pool.ops[j], &Deadline::never());
    }
    let tracer = Tracer::default();
    let t0 = Instant::now();
    let mut line = String::new();
    for &key in keys {
        if t0.elapsed() > budget {
            break;
        }
        line.clear();
        render(pool, &pair_at(seed, key, pool), key, &mut line);
        tracer.span("request", key, || {
            let req = tracer
                .span("serve.parse", key, || proto::parse_request(&line))
                .expect("generated requests parse");
            let Route::Check { a, b } = &req.route else {
                unreachable!("generated a check request")
            };
            let d = tracer.span("sched.check_pair", key, || {
                sched.check_pair(a, b, &Deadline::never())
            });
            tracer.span("serve.render", key, || proto::render_check(req.id, &d));
        });
    }
    let s = tracer.summary();
    out.set("serve.parse_us", s.get("serve.parse").map_or(0.0, |v| v.1));
    out.set(
        "serve.render_us",
        s.get("serve.render").map_or(0.0, |v| v.1),
    );
    out.set(
        "sched.check_pair_us",
        s.get("sched.check_pair").map_or(0.0, |v| v.1),
    );
    out.diag(
        "replay.requests",
        s.get("request").map_or(0.0, |v| v.0 as f64),
        "count",
    );
    tracer
}

fn fingerprint(ctx: &Ctx, name: &str, pool: &Pool, keys: impl Iterator<Item = u64>) -> String {
    let mut f = ctx.fingerprint(name);
    for j in &pool.json {
        f.str(j);
    }
    let mut line = String::new();
    for key in keys {
        line.clear();
        render(pool, &pair_at(ctx.seed, key, pool), 0, &mut line);
        f.str(&line);
    }
    f.hex()
}

fn spawn(ctx: &Ctx, tag: String) -> Result<ServerProc, String> {
    // A generous deadline: no verdict degrades on time, so every
    // conservative answer is the server's choice and the validation
    // can hold it to the reference.
    let args = ["--shards", "2", "--deadline-ms", "60000"].map(String::from);
    ServerProc::spawn(&ctx.cxu, &args, &ctx.out, &tag)
}

/// Sends `pairs` once each, pipelined: memoizes their verdicts.
fn warm_fill(server: &ServerProc, pool: &Pool, pairs: &[(usize, usize)]) -> Result<(), String> {
    let st = pipelined(
        &server.addr,
        &mut |k, out| match pairs.get(k as usize) {
            Some(&(i, j)) => {
                render(pool, &Pair::Pool(i, j), k, out);
                true
            }
            None => false,
        },
        &mut |_, _| {},
        WINDOW,
        Duration::from_secs(60),
        false,
    );
    if st.completed as usize == pairs.len() {
        Ok(())
    } else {
        Err(format!(
            "warm fill answered {} of {} pairs",
            st.completed,
            pairs.len()
        ))
    }
}

pub fn run_hot(ctx: &Ctx) -> Result<Outcome, String> {
    let pool = pool(ctx.seed, 60, 0.0);
    let n = pool.ops.len();
    // Traced runs split the time between the open loop and the
    // pipelined peak (a per-layer metric); untraced runs spend it all on
    // the open loop, whose figures are the end-to-end metrics.
    let open_share = if ctx.trace { 0.5 } else { 1.0 };
    let schedule = hot_schedule(ctx.seed, ctx.dur(open_share));
    let n_open = schedule.len() as u64 * HOT_BURST;
    let mut out = Outcome::new(
        "check-hot",
        fingerprint(ctx, "check-hot", &pool, 0..4096u64.min(n_open)),
    );
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    out.diag("pool.distinct_pairs", pairs.len() as f64, "count");

    let (server, setup_s) = common::setup(if ctx.trace { 1 } else { 7 }, |i| {
        let s = spawn(ctx, format!("check-hot-{i}"))?;
        warm_fill(&s, &pool, &pairs)?;
        Ok(s)
    })?;
    if ctx.trace {
        common::idle_probes(&mut out, &server, Duration::from_secs(2))?;
    }

    // Warm-up: the open-loop path itself (threads, buffers, branch
    // predictors), unmeasured.
    let warm_render =
        |k: u64, s: &mut String| render(&pool, &pair_at(ctx.seed, (3 << 40) | k, &pool), k, s);
    let warm = hot_schedule(ctx.seed ^ 1, ctx.dur(0.05).max(Duration::from_millis(500)));
    open_loop(
        &server.addr,
        &warm_render,
        &mut |_, _| {},
        &warm,
        HOT_BURST,
        None,
    );
    ctx.in_time("check-hot measured phase")?;

    // Open loop, timed from each request's due time.
    let mut open_codes = vec![0u8; n_open as usize];
    let open_render = |k: u64, s: &mut String| render(&pool, &pair_at(ctx.seed, k, &pool), k, s);
    let mut open = common::measure(&server, || {
        open_loop(
            &server.addr,
            &open_render,
            &mut |id, v| open_codes[id as usize] = code(v),
            &schedule,
            HOT_BURST,
            Some(server.pid),
        )
    })?;
    common::report_phase(&mut out, &mut open, setup_s);
    out.diag("open.offered_rate", HOT_RATE, "1/s");
    let mut lag = open.stats.lag_us.clone();
    lag.sort_unstable();
    out.set(
        "client.gen_lag_ms",
        f64::from(crate::stats::percentile(&lag, 0.99)) / 1e3,
    );

    // Traced runs: the pipelined closed-loop peak, with client spans in
    // alternate seconds for the tracing overhead.
    let mut streams = vec![Stream {
        base: 0,
        codes: open_codes,
    }];
    let mut client_spans = Vec::new();
    if ctx.trace {
        let mut peak_codes: Vec<u8> = Vec::new();
        let peak = common::measure(&server, || {
            pipelined(
                &server.addr,
                &mut |k, s| {
                    render(&pool, &pair_at(ctx.seed, (1 << 40) | k, &pool), k, s);
                    true
                },
                &mut |id, v| {
                    let id = id as usize;
                    if peak_codes.len() <= id {
                        peak_codes.resize(id + 1, 0);
                    }
                    peak_codes[id] = code(v);
                },
                WINDOW,
                ctx.dur(1.0 - open_share),
                true,
            )
        })?;
        out.set(
            "serve.peak_ops",
            peak.stats.completed as f64 / peak.stats.elapsed_s,
        );
        common::check_partitions(&mut out, &peak.m, "peak");
        common::trace_overhead(&mut out, &peak.stats);
        common::account(&mut out, &peak.stats);
        streams.push(Stream {
            base: 1 << 40,
            codes: peak_codes,
        });
        client_spans = peak.stats.spans;
    }
    out.set("serve.rss_mb", server.rss_hwm_mb()?);
    common::stop_server(&mut out, server);

    validate(&mut out, &pool, ctx.seed, &streams);
    if ctx.trace {
        let keys: Vec<u64> = (0..n_open.min(20_000)).collect();
        let tracer = replay(&mut out, &pool, ctx.seed, &pairs, &keys, ctx.dur(0.25));
        common::write_trace(ctx, &out, &tracer, &client_spans)?;
    }
    Ok(out)
}

/// One closed-loop check connection.
struct CheckSession<'a> {
    pool: &'a Pool,
    seed: u64,
    base: u64,
    n: u64,
    codes: Vec<u8>,
}

impl Session for CheckSession<'_> {
    fn next(&mut self, out: &mut String) {
        let pair = pair_at(self.seed, self.base | self.n, self.pool);
        render(self.pool, &pair, self.n, out);
        self.n += 1;
    }

    fn answer(&mut self, v: &Json, _latency_ns: u64) {
        self.codes
            .push(if crate::client::is_ok(v) { code(v) } else { 0 });
    }
}

/// Each connection's verdict codes for one round.
type Codes = [Vec<u8>; 2];

/// One check-cold round on a fresh server: `warmup` requests per
/// connection (set-up), then the rest of the round's `per_conn`
/// (measured). Keeps each connection's verdict codes.
fn cold_round(
    ctx: &Ctx,
    pool: &Pool,
    (per_conn, warmup): (usize, usize),
    tag: String,
) -> Result<(Round<Codes>, ServerProc), String> {
    let t = Instant::now();
    let server = spawn(ctx, tag)?;
    let session = |base: u64| CheckSession {
        pool,
        seed: ctx.seed,
        base,
        n: 0,
        codes: Vec::new(),
    };
    let (mut a, mut b) = (session(0), session(1 << 40));
    let work = |each: usize| Work::Requests {
        each: each as u64,
        until: ctx.deadline,
    };
    let warm = closed_loop_pair(&server.addr, &mut a, &mut b, work(warmup), false, None);
    if warm.completed != 2 * warmup as u64 {
        return Err(format!(
            "warm-up answered {} of {}",
            warm.completed,
            2 * warmup
        ));
    }
    let setup_s = t.elapsed().as_secs_f64();
    let mut started = Instant::now();
    let phase = common::measure(&server, || {
        started = Instant::now();
        closed_loop_pair(
            &server.addr,
            &mut a,
            &mut b,
            work(per_conn - warmup),
            ctx.trace,
            Some(server.pid),
        )
    })?;
    let round = Round {
        phase,
        started,
        setup_s,
        kept: [a.codes, b.codes],
    };
    Ok((round, server))
}

pub fn run_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let pool = pool(ctx.seed, ctx.scaled(5_000, 200), NP_SHARE);
    let sizes = (ctx.scaled(COLD_ROUND, 100), ctx.scaled(COLD_WARMUP, 10));
    let keys = (0..sizes.0 as u64).flat_map(|k| [k, (1 << 40) | k]);
    let mut out = Outcome::new("check-cold", fingerprint(ctx, "check-cold", &pool, keys));
    let (rounds, server) = common::run_rounds(ctx, &mut out, |i| {
        cold_round(ctx, &pool, sizes, format!("check-cold-{i}"))
    })?;
    if ctx.trace {
        common::idle_probes(&mut out, &server, Duration::from_secs(2))?;
    }
    out.set("serve.rss_mb", server.rss_hwm_mb()?);
    common::stop_server(&mut out, server);
    let (phase, lat, codes) = common::report_rounds(&mut out, rounds);
    out.set("serve.closed_p50_ms", lat.whole_p50_us / 1e3);
    check_rounds_agree(&mut out, ctx, &pool, &codes);
    check_exact_share(&mut out, codes.iter().flatten().flatten().copied());
    let [a, b] = codes.into_iter().next().expect("at least one round ran");
    validate(
        &mut out,
        &pool,
        ctx.seed,
        &[
            Stream { base: 0, codes: a },
            Stream {
                base: 1 << 40,
                codes: b,
            },
        ],
    );
    if ctx.trace {
        let keys: Vec<u64> = (0..20_000u64).collect();
        let tracer = replay(&mut out, &pool, ctx.seed, &[], &keys, ctx.dur(0.25));
        common::write_trace(ctx, &out, &tracer, &phase.stats.spans)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_schedule_is_seeded_and_keeps_the_rate() {
        let dur = Duration::from_secs(20);
        let a = hot_schedule(42, dur);
        assert_eq!(a, hot_schedule(42, dur), "same seed, same schedule");
        assert_ne!(a, hot_schedule(43, dur));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < dur);
        let rate = (a.len() as u64 * HOT_BURST) as f64 / dur.as_secs_f64();
        assert!(
            (rate - HOT_RATE).abs() < 0.03 * HOT_RATE,
            "offered {rate} req/s"
        );
    }

    #[test]
    fn every_pair_reaches_a_detector() {
        let p = pool(42, 60, 0.0);
        for key in 0..1_000 {
            let Pair::Pool(_, j) = pair_at(42, key, &p) else {
                panic!("check-hot draws pool pairs only");
            };
            assert!(p.ops[j].is_update());
        }
    }

    #[test]
    fn verdict_codes_keep_detector_conflict_and_degradation() {
        let c = code(
            &Json::parse(
                r#"{"ok": true, "conflict": true, "degraded": true, "detector": "conservative-budget"}"#,
            )
            .unwrap(),
        );
        assert!(conflict(c) && degraded(c));
        assert_eq!(detector(c), "conservative-budget");
        let c = code(
            &Json::parse(r#"{"ok": true, "conflict": false, "detector": "witness-search"}"#)
                .unwrap(),
        );
        assert!(!conflict(c) && !degraded(c));
        assert_eq!(detector(c), "witness-search");
    }

    #[test]
    fn np_pairs_are_decided_exactly_by_the_witness_search() {
        let p = pool(42, 200, NP_SHARE);
        let mut sched = Scheduler::new(common::served_sched_config());
        let mut np = 0;
        for key in 0..400 {
            if let pair @ Pair::Np(_) = pair_at(42, key, &p) {
                np += 1;
                let (a, b) = parsed(&p, &pair);
                let d = sched.check_pair(&a, &b, &Deadline::never());
                assert_eq!(
                    d.verdict.detector,
                    cxu::sched::Detector::WitnessSearch,
                    "{a:?} / {b:?}"
                );
            }
        }
        assert!((50..110).contains(&np), "{np} NP-class pairs of 400");
    }
}
