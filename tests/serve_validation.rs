//! End-to-end validation of `cxu-serve` over real sockets: verdict
//! agreement with the in-process scheduler, admission control under a
//! saturated queue, the graceful-shutdown drain guarantee, and (with
//! `--features failpoints`) panic isolation inside the worker pool.
//!
//! Every test binds an ephemeral port and serializes on one mutex: the
//! failpoint plan is process-global, and the timing-sensitive tests
//! want the machine to themselves. Metrics are *not* process-global —
//! each server owns a private registry, and the two-concurrent-servers
//! test below runs both inside one lock hold to prove it.

use cxu::gen::json::Json;
use cxu::gen::patterns::PatternParams;
use cxu::gen::program::{random_program, Program, ProgramParams};
use cxu::gen::rng::{Rng, SplitMix64};
use cxu::gen::trees::{random_tree, TreeParams};
use cxu::gen::wire;
use cxu::prelude::Semantics;
use cxu::sched::{ops_of_program, Deadline, Op, SchedConfig, Scheduler};
use cxu::serve::{ServeConfig, ServeSummary, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(
    cfg: ServeConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<ServeSummary>,
) {
    let server = Server::bind(cfg, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection mid-exchange");
        Json::parse(line.trim_end()).expect("response is JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn assert_identity(s: &ServeSummary) {
    assert_eq!(
        s.accepted,
        s.completed + s.rejected_overload + s.failed,
        "accounting identity violated: {s:?}"
    );
}

/// A seeded pool with both PTIME and exotic (budget-bound) pairs.
fn pool(seed: u64, len: usize) -> (Program, Vec<Op>, Vec<String>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = 0.15;
    let params = ProgramParams {
        len,
        update_rate: 0.5,
        delete_rate: 0.4,
        pattern,
    };
    let program = random_program(&mut rng, &params);
    let ops = ops_of_program(&program);
    let op_json: Vec<String> = program
        .stmts
        .iter()
        .map(|s| wire::stmt_to_json(s).to_string())
        .collect();
    (program, ops, op_json)
}

const CHECK_A: &str = r#"{"route": "check", "a": {"kind": "read", "pattern": "*//C"}, "b": {"kind": "insert", "pattern": "*/B", "subtree": "C"}"#;

fn delayed_check(delay_ms: u64, id: u64) -> String {
    format!(r#"{CHECK_A}, "delay_ms": {delay_ms}, "id": {id}}}"#)
}

/// (a) Every verdict the server hands out agrees with an in-process
/// scheduler running the *same* configuration, for both the `check` and
/// the `schedule` routes.
#[test]
fn server_verdicts_agree_with_in_process_scheduler() {
    let _g = lock();
    let cfg = ServeConfig::default();
    let local_cfg = SchedConfig {
        semantics: Semantics::Value,
        ..cfg.sched
    };
    let (addr, _handle, join) = start(cfg);
    let mut c = Client::connect(addr);

    let (_program, ops, op_json) = pool(7, 16);
    let mut local = Scheduler::new(local_cfg);
    let never = Deadline::never();
    let mut checked = 0usize;
    for i in 0..ops.len() {
        for j in (i + 1)..ops.len() {
            // A deadline far beyond any detector's budgeted runtime:
            // degradations, if any, are budget ones — deterministic and
            // identical on both sides.
            let req = format!(
                r#"{{"route": "check", "id": {checked}, "deadline_ms": 60000, "a": {}, "b": {}}}"#,
                op_json[i], op_json[j]
            );
            let v = c.roundtrip(&req);
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(checked as u64));
            let server_conflict = v.get("conflict").and_then(Json::as_bool).unwrap();
            let server_degraded = v.get("degraded").and_then(Json::as_bool).unwrap();

            let d = local.check_pair(&ops[i], &ops[j], &never);
            assert_eq!(
                server_degraded,
                d.verdict.detector.is_conservative(),
                "degradation mismatch on pair ({i}, {j}): server {v:?}, local {d:?}"
            );
            assert_eq!(
                server_conflict, d.verdict.conflict,
                "verdict mismatch on pair ({i}, {j}): server {v:?}, local {d:?}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, ops.len() * (ops.len() - 1) / 2);

    // The schedule route: same rounds as an in-process run.
    let batch = format!(
        r#"{{"route": "schedule", "deadline_ms": 60000, "ops": [{}]}}"#,
        op_json.join(", ")
    );
    let v = c.roundtrip(&batch);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let server_rounds: Vec<Vec<u64>> = v
        .get("rounds")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| {
            r.as_arr()
                .unwrap()
                .iter()
                .map(|i| i.as_u64().unwrap())
                .collect()
        })
        .collect();
    let local_out = local.run(&ops);
    let local_rounds: Vec<Vec<u64>> = local_out
        .schedule
        .rounds
        .iter()
        .map(|r| r.iter().map(|&i| i as u64).collect())
        .collect();
    assert_eq!(server_rounds, local_rounds);
    let stats = v.get("stats").unwrap();
    assert_eq!(
        stats.get("ops").and_then(Json::as_u64),
        Some(ops.len() as u64)
    );

    // Metrics route exposes the serve.* catalog.
    let v = c.roundtrip(r#"{"route": "metrics"}"#);
    let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(counters.get("serve.accepted").and_then(Json::as_u64) >= Some(1));

    let v = c.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.rejected_overload, 0);
}

/// (b) A full queue answers `overloaded` immediately — it does not hang
/// the client, and the server keeps serving.
#[test]
fn full_queue_rejects_overloaded_without_hanging() {
    let _g = lock();
    let (addr, handle, join) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });

    // Occupy the single worker …
    let mut busy = Client::connect(addr);
    busy.send(&delayed_check(400, 1));
    std::thread::sleep(Duration::from_millis(100));
    // … and the single queue slot.
    let mut queued = Client::connect(addr);
    queued.send(&delayed_check(400, 2));
    std::thread::sleep(Duration::from_millis(100));

    // The third request must bounce on the spot.
    let mut burst = Client::connect(addr);
    let t0 = Instant::now();
    let v = burst.roundtrip(&delayed_check(0, 3));
    let elapsed = t0.elapsed();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"));
    assert!(
        elapsed < Duration::from_millis(500),
        "overload rejection took {elapsed:?}; admission control must not queue-wait"
    );

    // The admitted requests still complete.
    for c in [&mut busy, &mut queued] {
        let v = c.recv();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    }
    handle.shutdown();
    drop((busy, queued, burst));
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.rejected_overload, 1);
    assert_eq!(summary.completed, 2);
}

/// (c) Graceful shutdown drains in-flight work: a request admitted
/// before the shutdown still gets its real answer.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let _g = lock();
    let (addr, _handle, join) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    let mut slow = Client::connect(addr);
    slow.send(&delayed_check(300, 9));
    std::thread::sleep(Duration::from_millis(100));

    // Shutdown arrives while the delayed request is mid-flight.
    let mut admin = Client::connect(addr);
    let v = admin.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));

    // The in-flight request is answered, not dropped.
    let v = slow.recv();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("conflict").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));

    drop((slow, admin));
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.completed, 2, "delayed check + shutdown ack");
    assert_eq!(summary.failed, 0);
}

/// (d) An injected detector panic fails one request and leaves the
/// worker pool alive (`--features failpoints`).
#[cfg(feature = "failpoints")]
#[test]
fn injected_panics_fail_requests_but_not_the_pool() {
    use cxu::runtime::failpoints::{self, Plan};

    let _g = lock();
    let (addr, _handle, join) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    failpoints::arm(Plan {
        seed: 1,
        panic_per_mille: 1000,
        sleep_per_mille: 0,
        sleep_ms: 0,
        exhaust_per_mille: 0,
    });
    let mut failed = 0;
    for id in 0..6 {
        let v = c.roundtrip(&delayed_check(0, id));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
        assert_eq!(v.get("error").and_then(Json::as_str), Some("internal"));
        failed += 1;
    }
    failpoints::disarm();

    // The pool survived every panic: the next request succeeds.
    let v = c.roundtrip(&delayed_check(0, 99));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("conflict").and_then(Json::as_bool), Some(true));

    let v = c.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.failed, failed);
    assert!(summary.completed >= 2);
}

/// (e) An oversized request line is answered `bad-request` and the
/// connection closed before the line ever reaches the parser — the
/// server never buffers an attacker-controlled line without bound.
/// The reject still lands in the accounting identity as a failure.
#[test]
fn oversized_request_line_is_rejected_at_the_socket() {
    let _g = lock();
    let (addr, _handle, join) = start(ServeConfig {
        workers: 1,
        max_line_bytes: 256,
        ..ServeConfig::default()
    });

    let mut c = Client::connect(addr);
    let huge = format!(r#"{{"route": "check", "pad": "{}"}}"#, "x".repeat(4096));
    c.send(&huge);
    let v = c.recv();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("bad-request"));
    // The connection is closed behind the rejection.
    let mut rest = String::new();
    assert_eq!(c.reader.read_line(&mut rest).unwrap_or(0), 0, "closed");

    // A well-behaved client on a fresh connection is unaffected.
    let mut ok = Client::connect(addr);
    let v = ok.roundtrip(&delayed_check(0, 1));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");

    let v = ok.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(ok);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert!(summary.failed >= 1, "the oversized line counts as failed");
}

/// Hostile nesting is a parse error, not a crash: patterns and term
/// trees deeper than their parsers' bounds are answered `bad-request`
/// instead of overflowing a thread's stack, which aborts the process
/// and every connection with it, and the server keeps serving.
#[test]
fn deeply_nested_inputs_are_rejected_not_fatal() {
    let _g = lock();
    let (addr, _handle, join) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let read = |pattern: &str| {
        format!(
            r#"{{"route": "check", "a": {{"kind": "read", "pattern": "{pattern}"}}, "b": {{"kind": "delete", "pattern": "x/y"}}}}"#
        )
    };
    let hostile = [
        // A 100k-step linear read path.
        read(&("a/".repeat(100_000) + "b")),
        // A 10k-deep nested predicate.
        read(&("a[".repeat(10_000) + "b" + &"]".repeat(10_000))),
        // A 100k-deep insert subtree in term syntax.
        format!(
            r#"{{"route": "check", "a": {{"kind": "read", "pattern": "x/y"}}, "b": {{"kind": "insert", "pattern": "q/r", "subtree": "{}"}}}}"#,
            "a(".repeat(100_000) + "b" + &")".repeat(100_000)
        ),
    ];
    let mut c = Client::connect(addr);
    for line in &hostile {
        let v = c.roundtrip(line);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad-request"));
        let detail = v.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(detail.contains("deeper than"), "{detail}");
    }
    let v = c.roundtrip(r#"{"route": "health"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");

    let v = c.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.failed, 3, "each hostile line counts as failed");
}

/// (f) A slow-loris connection — bytes trickling in with no newline —
/// is answered `timeout` and closed once the partial line has stalled
/// past the read timeout. An *idle* connection (no partial line) stays
/// open indefinitely.
#[test]
fn slow_loris_partial_line_times_out_but_idle_does_not() {
    let _g = lock();
    let (addr, _handle, join) = start(ServeConfig {
        workers: 1,
        read_timeout: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    });

    // Idle longer than the timeout, then speak: still served.
    let mut idle = Client::connect(addr);
    std::thread::sleep(Duration::from_millis(400));
    let v = idle.roundtrip(&delayed_check(0, 7));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");

    // Trickle half a request and stall: timed out and closed.
    let mut loris = Client::connect(addr);
    loris
        .writer
        .write_all(br#"{"route": "che"#)
        .expect("trickle");
    loris.writer.flush().expect("flush trickle");
    let t0 = Instant::now();
    let v = loris.recv();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{v:?}");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("timeout"));
    assert!(
        t0.elapsed() >= Duration::from_millis(100),
        "the guard waits out the timeout before closing"
    );
    let mut rest = String::new();
    assert_eq!(loris.reader.read_line(&mut rest).unwrap_or(0), 0, "closed");

    let v = idle.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(idle);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert!(summary.failed >= 1, "the stalled line counts as failed");
}

/// (g) A durable server restarted over the same data directory serves
/// the documents the previous incarnation acked — the socket-level
/// restart path the crash harness exercises with SIGKILL, here driven
/// in-process through graceful and non-graceful drops.
#[test]
fn durable_server_restart_preserves_acked_documents() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("cxu-serve-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = || ServeConfig {
        workers: 2,
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let (addr, _handle, join) = start(cfg());
    let mut c = Client::connect(addr);
    let v = c.roundtrip(r#"{"route": "doc_put", "doc": "d", "content": "a(b c)"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let rev1 = v.get("rev").and_then(Json::as_str).unwrap().to_owned();
    let v = c.roundtrip(&format!(
        r#"{{"route": "doc_put", "doc": "d", "base_rev": "{rev1}", "content": "a(b c d)"}}"#
    ));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let rev2 = v.get("rev").and_then(Json::as_str).unwrap().to_owned();
    let v = c.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);
    join.join().unwrap();

    // Second incarnation: both acked revisions are readable, the
    // winner is the later one, and the changes feed has the document.
    let (addr, _handle, join) = start(cfg());
    let mut c = Client::connect(addr);
    for rev in [&rev1, &rev2] {
        let v = c.roundtrip(&format!(
            r#"{{"route": "doc_get", "doc": "d", "rev": "{rev}"}}"#
        ));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_ne!(v.get("found").and_then(Json::as_bool), Some(false), "{v:?}");
    }
    let v = c.roundtrip(r#"{"route": "doc_get", "doc": "d"}"#);
    assert_eq!(v.get("rev").and_then(Json::as_str), Some(rev2.as_str()));
    assert_eq!(v.get("content").and_then(Json::as_str), Some("a(b c d)"));
    let v = c.roundtrip(r#"{"route": "doc_changes"}"#);
    let results = v.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].get("doc").and_then(Json::as_str), Some("d"));

    let v = c.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (h) Two servers in one process keep their metrics apart: traffic on
/// one never shows up in the other's `metrics` snapshot, even while
/// both are live and interleaved. (Before per-server registries this
/// was impossible — the counters were process globals.)
#[test]
fn two_concurrent_servers_keep_metrics_isolated() {
    let _g = lock();
    let (addr_a, _ha, join_a) = start(ServeConfig::default());
    let (addr_b, _hb, join_b) = start(ServeConfig::default());
    let mut a = Client::connect(addr_a);
    let mut b = Client::connect(addr_b);

    // Interleave: a doc_put on A between two checks on B.
    let v = b.roundtrip(&delayed_check(0, 1));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let v = a.roundtrip(r#"{"route": "doc_put", "doc": "iso", "content": "a(b)"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let v = b.roundtrip(&delayed_check(0, 2));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");

    let counters_of = |v: &Json| -> Json {
        v.get("metrics")
            .and_then(|m| m.get("counters"))
            .expect("counters")
            .clone()
    };
    let ca = counters_of(&a.roundtrip(r#"{"route": "metrics"}"#));
    let cb = counters_of(&b.roundtrip(r#"{"route": "metrics"}"#));

    // A saw exactly its own two requests (the put and this metrics
    // call) and exactly one store put; B saw its two checks plus the
    // metrics call and *no* puts — A's write did not bleed over.
    assert_eq!(ca.get("serve.accepted").and_then(Json::as_u64), Some(2));
    assert_eq!(ca.get("serve.completed").and_then(Json::as_u64), Some(2));
    assert_eq!(ca.get("store.puts").and_then(Json::as_u64), Some(1));
    assert_eq!(cb.get("serve.accepted").and_then(Json::as_u64), Some(3));
    assert_eq!(cb.get("serve.completed").and_then(Json::as_u64), Some(3));
    assert_eq!(
        cb.get("store.puts").and_then(Json::as_u64).unwrap_or(0),
        0,
        "server B's snapshot contains server A's puts: {cb:?}"
    );

    // A: put + metrics + shutdown; B: two checks + metrics + shutdown.
    for (c, join, expect_accepted) in [(&mut a, join_a, 3), (&mut b, join_b, 4)] {
        let v = c.roundtrip(r#"{"route": "shutdown"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
        let summary = join.join().unwrap();
        assert_identity(&summary);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.accepted, expect_accepted);
    }
}

/// (i) The read timeout charges *client* stall, not response drain: a
/// pipelined client that sends a batch of slow requests plus a partial
/// next line, then pauses to read the responses, must not be
/// disconnected as a slow-loris — the server owes it output the whole
/// time. Only once the server is quiet does the partial line's clock
/// run (and the client finishes it within budget).
#[test]
fn pipelined_response_drain_is_not_charged_to_the_read_timeout() {
    let _g = lock();
    let (addr, _handle, join) = start(ServeConfig {
        workers: 1,
        read_timeout: Some(Duration::from_millis(250)),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    // One write: three 150 ms checks (450 ms of serial work on one
    // worker — well past the 250 ms read timeout) and the *start* of a
    // fourth request, no newline.
    let full: String = delayed_check(150, 3);
    let (head, tail) = full.split_at(14);
    let mut batch = String::new();
    for id in 0..3u64 {
        batch.push_str(&delayed_check(150, id));
        batch.push('\n');
    }
    batch.push_str(head);
    c.writer.write_all(batch.as_bytes()).expect("batch write");

    let t0 = Instant::now();
    for id in 0..3u64 {
        let v = c.recv();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
        assert_ne!(
            v.get("error").and_then(Json::as_str),
            Some("timeout"),
            "response drain misclassified as a read timeout: {v:?}"
        );
    }
    let drained = t0.elapsed();
    assert!(
        drained >= Duration::from_millis(400),
        "three serial 150 ms checks finished implausibly fast ({drained:?})"
    );

    // The connection is now quiet with a 250 ms budget on the partial
    // line. Pause inside the budget, then finish the request: served.
    std::thread::sleep(Duration::from_millis(100));
    let v = c.roundtrip(tail);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));

    let v = c.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.failed, 0, "nothing may be accounted as timed out");
    assert_eq!(summary.completed, 5);
}

/// (j) Pipelining composes with graceful shutdown: a single write
/// carrying a whole window of checks *and* the shutdown request drains
/// completely, in request order, before the server closes the
/// connection.
#[test]
fn pipelined_window_drains_in_order_through_shutdown() {
    let _g = lock();
    const WINDOW: u64 = 16;
    let (addr, _handle, join) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    let mut batch = String::new();
    for id in 0..WINDOW {
        batch.push_str(&delayed_check(5, id));
        batch.push('\n');
    }
    batch.push_str("{\"route\": \"shutdown\"}\n");
    c.writer.write_all(batch.as_bytes()).expect("batch write");

    for id in 0..WINDOW {
        let v = c.recv();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(
            v.get("id").and_then(Json::as_u64),
            Some(id),
            "pipelined responses must arrive in request order"
        );
    }
    let v = c.recv();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    // After the drain the server closes the connection: clean EOF.
    let mut line = String::new();
    assert_eq!(c.reader.read_line(&mut line).expect("eof read"), 0);

    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.accepted, WINDOW + 1);
    assert_eq!(summary.completed, WINDOW + 1);
    assert_eq!(summary.rejected_overload, 0);
    assert_eq!(summary.failed, 0);
}

/// (k) The grounded `doc_check` route end to end: every verdict the
/// server hands out over the socket agrees with the in-process Lemma 1
/// witness check on the same stored document, across all three
/// semantics, for six fixed pairs and for 150 seeded random ones on a
/// generated document; a missing document is a rejection (not an
/// error); and repeated checks against the same winner reuse the cached
/// index.
#[test]
fn doc_check_answers_grounded_verdicts_over_the_socket() {
    use cxu::gen::program::Stmt;

    let _g = lock();
    let (addr, _handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(addr);

    // The paper's §1 document, plus enough structure for delete cases.
    let content = "x(B(C E) A(B C))";
    let v = c.roundtrip(&format!(
        r#"{{"route": "doc_put", "doc": "g", "content": "{content}"}}"#
    ));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let rev = v.get("rev").and_then(Json::as_str).unwrap().to_owned();
    let doc = cxu::tree::text::parse(content).unwrap();

    let pairs = [
        // The §1 motivating pair: the insert creates a new x//C match.
        (
            r#"{"kind": "read", "pattern": "x//C"}"#,
            r#"{"kind": "insert", "pattern": "x/B", "subtree": "C"}"#,
        ),
        // Insert elsewhere: no new match for the read.
        (
            r#"{"kind": "read", "pattern": "x/B"}"#,
            r#"{"kind": "insert", "pattern": "x/A", "subtree": "D"}"#,
        ),
        // Insert below a returned node: tree/value-only conflict.
        (
            r#"{"kind": "read", "pattern": "x/B"}"#,
            r#"{"kind": "insert", "pattern": "x/B", "subtree": "F"}"#,
        ),
        // Delete a subtree the read matches inside.
        (
            r#"{"kind": "read", "pattern": "x//C"}"#,
            r#"{"kind": "delete", "pattern": "x/A"}"#,
        ),
        // Delete something the read never sees... except by value.
        (
            r#"{"kind": "read", "pattern": "x/B/E"}"#,
            r#"{"kind": "delete", "pattern": "x/A/C"}"#,
        ),
        // Branching read pattern (table path, not the chain path).
        (
            r#"{"kind": "read", "pattern": "x/B[C]"}"#,
            r#"{"kind": "delete", "pattern": "x/B/C"}"#,
        ),
    ];
    for sem in Semantics::ALL {
        for (r, u) in &pairs {
            let read = match wire::stmt_from_json(&Json::parse(r).unwrap()).unwrap() {
                Stmt::Read(read) => read,
                other => panic!("not a read: {other:?}"),
            };
            let update = match wire::stmt_from_json(&Json::parse(u).unwrap()).unwrap() {
                Stmt::Update(update) => update,
                other => panic!("not an update: {other:?}"),
            };
            let expect = cxu::ops::witness::witnesses_update_conflict(&read, &update, &doc, sem);
            let v = c.roundtrip(&format!(
                r#"{{"route": "doc_check", "doc": "g", "semantics": "{}", "read": {r}, "update": {u}}}"#,
                sem.name()
            ));
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
            assert_eq!(v.get("rev").and_then(Json::as_str), Some(rev.as_str()));
            assert_eq!(
                v.get("conflict").and_then(Json::as_bool),
                Some(expect),
                "socket verdict disagrees with the witness check \
                 for {r} vs {u} under {sem:?}: {v:?}"
            );
            assert_eq!(
                v.get("nodes").and_then(Json::as_u64),
                Some(doc.live_count() as u64),
                "{v:?}"
            );
        }
    }

    // A missing document is an answer about state, not a failure.
    let v = c.roundtrip(
        r#"{"route": "doc_check", "doc": "nope",
            "read": {"kind": "read", "pattern": "a//b"},
            "update": {"kind": "delete", "pattern": "a/b"}}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("result").and_then(Json::as_str), Some("rejected"));

    // The index was built once and then served warm from the cache.
    let m = c.roundtrip(r#"{"route": "metrics"}"#);
    let counters = m.get("metrics").and_then(|m| m.get("counters")).unwrap();
    let misses = counters
        .get("index.cache.misses")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let hits = counters
        .get("index.cache.hits")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let grounded = counters
        .get("index.grounded_checks")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(misses, 1, "one cold build for the winner: {m}");
    assert_eq!(
        hits + misses,
        (pairs.len() * Semantics::ALL.len()) as u64,
        "every check hit the cache after the first: {m}"
    );
    assert_eq!(grounded, hits + misses, "every check was index-grounded");

    // Seeded random inputs: a generated document, and read/update pairs
    // drawn from a pool of mostly linear patterns in which a fifth of the
    // nodes branch, so the index's table path runs beside its chain path.
    // Both share a two-letter alphabet: over six letters a pattern's root
    // rarely matches the document's, and every verdict came out
    // independent.
    let mut rng = SplitMix64::seed_from_u64(9);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 2;
    pattern.branch_rate = 0.2;
    let params = ProgramParams {
        len: 60,
        update_rate: 0.5,
        delete_rate: 0.4,
        pattern,
    };
    let (mut reads, mut updates) = (Vec::new(), Vec::new());
    for s in random_program(&mut rng, &params).stmts {
        let json = wire::stmt_to_json(&s).to_string();
        match s {
            Stmt::Read(r) => reads.push((r, json)),
            Stmt::Update(u) => updates.push((u, json)),
        }
    }
    assert!(!reads.is_empty() && !updates.is_empty());
    let tparams = TreeParams {
        nodes: 40,
        alphabet: 2,
        ..TreeParams::default()
    };
    let content = cxu::tree::text::to_text(&random_tree(&mut rng, &tparams));
    let v = c.roundtrip(&format!(
        r#"{{"route": "doc_put", "doc": "r", "content": "{content}"}}"#
    ));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    let stored = cxu::tree::text::parse(&content).unwrap();
    let mut conflicts = [0usize; 3];
    for _ in 0..150 {
        let (read, r) = &reads[rng.gen_range(0..reads.len())];
        let (update, u) = &updates[rng.gen_range(0..updates.len())];
        for (k, sem) in Semantics::ALL.into_iter().enumerate() {
            let expect = cxu::ops::witness::witnesses_update_conflict(read, update, &stored, sem);
            conflicts[k] += usize::from(expect);
            let v = c.roundtrip(&format!(
                r#"{{"route": "doc_check", "doc": "r", "semantics": "{}", "read": {r}, "update": {u}}}"#,
                sem.name()
            ));
            assert_eq!(
                v.get("conflict").and_then(Json::as_bool),
                Some(expect),
                "socket verdict disagrees with the witness check \
                 for {r} vs {u} under {sem:?}: {v:?}"
            );
            assert_eq!(
                v.get("nodes").and_then(Json::as_u64),
                Some(stored.live_count() as u64),
                "{v:?}"
            );
        }
    }
    assert!(
        conflicts.iter().all(|&n| n > 0 && n < 150),
        "both verdicts occur under every semantics: {conflicts:?}"
    );

    let v = c.roundtrip(r#"{"route": "shutdown"}"#);
    assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
    drop(c);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.failed, 0);
}

/// Joins the server thread, failing the test if the drain takes longer
/// than `limit` instead of hanging it.
fn join_within(
    join: std::thread::JoinHandle<ServeSummary>,
    limit: Duration,
) -> (ServeSummary, Duration) {
    let t0 = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(join.join());
    });
    let summary = rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("server did not drain within {limit:?}"))
        .expect("server thread panicked");
    (summary, t0.elapsed())
}

/// (l) A deeply nested branching read is answered within its deadline:
/// the NP-side budget check counts candidate trees only until the count
/// passes the budget, instead of counting every tree up to the Lemma 11
/// bound (about 2,000 nodes at depth 1000) before comparing. The server
/// then drains promptly.
#[test]
fn deep_patterns_are_answered_within_the_deadline_and_drain() {
    let _g = lock();
    let (addr, handle, join) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);
    for (id, depth) in [(1u64, 200usize), (2, 1000)] {
        let read = (0..depth).fold("b".to_owned(), |p, _| format!("a[{p}]"));
        let req = format!(
            r#"{{"route": "check", "id": {id}, "deadline_ms": 100, "a": {{"kind": "read", "pattern": "{read}"}}, "b": {{"kind": "delete", "pattern": "x/y"}}}}"#
        );
        let t0 = Instant::now();
        let v = c.roundtrip(&req);
        let took = t0.elapsed();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
        assert!(
            took < Duration::from_secs(1),
            "depth {depth} answered after {took:?}, past its 100 ms deadline plus slack"
        );
    }
    handle.shutdown();
    drop(c);
    let (summary, took) = join_within(join, Duration::from_secs(2));
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
    assert_identity(&summary);
    assert_eq!(summary.completed, 2);
}

/// (m) A job queued behind a busy home worker is stolen as soon as it
/// is pushed: the idle worker parks on a condition every push signals,
/// not on its own queue (which would never see the job) and not on a
/// polling timer.
#[test]
fn queued_job_behind_a_busy_home_worker_is_stolen_at_once() {
    let _g = lock();
    let (addr, handle, join) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    // A occupies a worker for 500 ms. Wait until a worker has popped
    // it: in flight (beside the health probe itself), nothing queued.
    let mut a = Client::connect(addr);
    a.send(&delayed_check(500, 1));
    let mut b = Client::connect(addr);
    let popped = |h: &Json| {
        h.get("in_flight").and_then(Json::as_u64) == Some(2)
            && h.get("queued").and_then(Json::as_u64) == Some(0)
    };
    while !popped(&b.roundtrip(r#"{"route": "health"}"#)) {}
    // B: the same pair, so the same home shard, and a cache miss (A has
    // not committed its verdict yet).
    let t0 = Instant::now();
    let v = b.roundtrip(&delayed_check(0, 2));
    let took = t0.elapsed();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(2));
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
    assert!(
        took < Duration::from_millis(250),
        "B waited {took:?} behind A instead of being stolen"
    );
    let v = a.recv();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));
    handle.shutdown();
    drop((a, b));
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.failed, 0);
}

/// (n) A client that pipelines a window of queued requests and then
/// half-closes still gets every answer, in order, then EOF. After the
/// EOF the connection has no poll interest at all (no reads, nothing to
/// flush): only its response cells can wake the IO loop.
#[test]
fn half_closed_client_still_receives_every_queued_answer() {
    let _g = lock();
    const WINDOW: u64 = 32;
    let (addr, handle, join) = start(ServeConfig::default());
    let mut c = Client::connect(addr);
    let mut batch = String::new();
    for id in 0..WINDOW {
        batch.push_str(&delayed_check(20, id));
        batch.push('\n');
    }
    c.writer.write_all(batch.as_bytes()).expect("batch write");
    c.writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    for id in 0..WINDOW {
        let v = c.recv();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(
            v.get("id").and_then(Json::as_u64),
            Some(id),
            "answers must arrive in request order"
        );
    }
    let mut line = String::new();
    assert_eq!(c.reader.read_line(&mut line).expect("eof read"), 0);
    handle.shutdown();
    drop(c);
    let summary = join.join().unwrap();
    assert_identity(&summary);
    assert_eq!(summary.completed, WINDOW);
}
