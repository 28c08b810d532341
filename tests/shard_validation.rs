//! Validation of the serving core's shard routing and work stealing:
//! the route hash must be a pure, order-independent function of the
//! operations' canonical shapes (so warm caches survive restarts and
//! argument order), and a verdict computed by a *stealing* worker must
//! land exactly once, in the home shard's memo cache.

use cxu::gen::json::Json;
use cxu::gen::parse::parse_program;
use cxu::gen::patterns::PatternParams;
use cxu::gen::program::{random_program, ProgramParams};
use cxu::gen::rng::SplitMix64;
use cxu::gen::wire;
use cxu::prelude::Semantics;
use cxu::sched::{
    op_route_hash, ops_of_program, pair_route_hash, Deadline, Detector, Op, PairLookup,
    SchedConfig, Scheduler, Verdict,
};
use cxu::serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A seeded operation pool, built fresh on every call so two calls with
/// the same seed model two independent processes (restart semantics).
fn pool(seed: u64, len: usize) -> (Vec<Op>, Vec<String>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = 0.2;
    let params = ProgramParams {
        len,
        update_rate: 0.5,
        delete_rate: 0.4,
        pattern,
    };
    let program = random_program(&mut rng, &params);
    let ops = ops_of_program(&program);
    let op_json = program
        .stmts
        .iter()
        .map(|s| wire::stmt_to_json(s).to_string())
        .collect();
    (ops, op_json)
}

fn one_op(src: &str) -> Op {
    let program = parse_program(src).expect("parse op");
    ops_of_program(&program).remove(0)
}

/// The pair hash is symmetric in its arguments and stable across
/// independently constructed (interner-free) copies of the same
/// operations — the property that makes routing deterministic across
/// connections, processes, and restarts.
#[test]
fn pair_route_hash_is_order_independent_and_restart_stable() {
    let (ops, _) = pool(11, 24);
    let mut hashes = Vec::new();
    for i in 0..ops.len() {
        for j in (i + 1)..ops.len() {
            let h = pair_route_hash(&ops[i], &ops[j]);
            assert_eq!(
                h,
                pair_route_hash(&ops[j], &ops[i]),
                "pair hash must not depend on argument order ({i}, {j})"
            );
            hashes.push(h);
        }
    }
    // Same seed, fresh pool: a restarted process routes identically.
    let (again, _) = pool(11, 24);
    let mut k = 0;
    for i in 0..again.len() {
        for j in (i + 1)..again.len() {
            assert_eq!(
                hashes[k],
                pair_route_hash(&again[i], &again[j]),
                "pair hash changed across rebuild ({i}, {j})"
            );
            k += 1;
        }
    }
    // Sanity: the pool is not hashing everything to one shard.
    let mut buckets = [0usize; 4];
    for h in &hashes {
        buckets[(h % 4) as usize] += 1;
    }
    assert!(
        buckets.iter().all(|&b| b > 0),
        "24-op pool left a shard empty: {buckets:?}"
    );
}

/// The op hash sees the *canonical* shape: unordered siblings in an
/// insert payload hash identically, and a pinned literal guards the
/// algorithm against accidental change (a silent change would cold-start
/// every warm cache in a rolling restart).
#[test]
fn op_route_hash_canonicalizes_shapes_and_matches_pinned_value() {
    let a = one_op("insert $x/B, C(D E)");
    let b = one_op("insert $x/B, C(E D)");
    assert_eq!(
        op_route_hash(&a),
        op_route_hash(&b),
        "sibling permutation of the payload must not change the route"
    );

    let read = one_op("y = read $x//A");
    let distinct = one_op("y = read $x//B");
    assert_ne!(op_route_hash(&read), op_route_hash(&distinct));
    assert_eq!(
        op_route_hash(&read),
        PINNED_READ_HASH,
        "op_route_hash(read $x//A) drifted — this cold-starts every \
         warm shard cache across a rolling restart; if the change is \
         intentional, update the pin"
    );
}

const PINNED_READ_HASH: u64 = 12538739237495956059;

/// Work-stealing soundness at the scheduler layer, exactly as the
/// server drives it: the home shard's `lookup_pair` produces a detached
/// task, a *different* thread runs it lock-free, and the verdict commits
/// back to the home scheduler — after which the home cache serves it,
/// and a second (conflicting) commit for the same key is ignored
/// (first-writer-wins), so the cache can never hold two verdicts for
/// one pair.
#[test]
fn stolen_verdict_lands_in_home_cache_exactly_once() {
    let cfg = SchedConfig {
        semantics: Semantics::Value,
        ..SchedConfig::default()
    };
    let mut home = Scheduler::new(cfg);
    let a = one_op("y = read $x//C");
    let b = one_op("insert $x/B, C");

    let task = match home.lookup_pair(&a, &b) {
        PairLookup::Miss(task) => task,
        PairLookup::Ready(d) => panic!("fresh pair must miss, got {d:?}"),
    };
    let key = task.key();

    // The "thief": runs the task with no scheduler lock held.
    let verdict = std::thread::spawn(move || task.run(&Deadline::never()))
        .join()
        .expect("thief thread");

    let committed = home.commit_pair(key, verdict);
    assert_eq!(committed.conflict, verdict.conflict);

    // The home cache now owns the verdict.
    match home.lookup_pair(&a, &b) {
        PairLookup::Ready(d) => {
            assert!(d.cached, "post-commit lookup must hit the memo cache");
            assert_eq!(d.verdict.conflict, verdict.conflict);
        }
        PairLookup::Miss(_) => panic!("committed pair must not miss"),
    }

    // A racing second commit with the *opposite* answer is discarded:
    // first writer wins, so duplicated steals cannot plant a
    // conflicting verdict.
    let forged = Verdict {
        conflict: !verdict.conflict,
        detector: Detector::WitnessSearch,
    };
    let kept = home.commit_pair(key, forged);
    assert_eq!(
        kept.conflict, verdict.conflict,
        "second commit must return the first verdict, not overwrite it"
    );
    match home.lookup_pair(&a, &b) {
        PairLookup::Ready(d) => assert_eq!(d.verdict.conflict, verdict.conflict),
        PairLookup::Miss(_) => panic!("cache entry vanished"),
    }

    // An independent scheduler agrees — stealing changed *where* the
    // work ran, never the answer.
    let mut fresh = Scheduler::new(SchedConfig {
        semantics: Semantics::Value,
        ..SchedConfig::default()
    });
    let d = fresh.check_pair(&a, &b, &Deadline::never());
    assert_eq!(d.verdict.conflict, verdict.conflict);
}

/// Deadline/panic degradations must never be memoized — not by a local
/// commit, and not by a stolen one.
#[test]
fn conservative_verdicts_are_not_memoized_by_steal_commits() {
    let mut home = Scheduler::new(SchedConfig {
        semantics: Semantics::Value,
        ..SchedConfig::default()
    });
    let a = one_op("y = read $x//C");
    let b = one_op("insert $x/B, C");
    let task = match home.lookup_pair(&a, &b) {
        PairLookup::Miss(task) => task,
        PairLookup::Ready(_) => panic!("fresh pair must miss"),
    };
    let degraded = Verdict {
        conflict: true,
        detector: Detector::ConservativeDeadline,
    };
    let kept = home.commit_pair(task.key(), degraded);
    assert!(kept.conflict);
    // The pair stays a miss: the next request recomputes instead of
    // being stuck with an assumed conflict forever.
    assert!(
        matches!(home.lookup_pair(&a, &b), PairLookup::Miss(_)),
        "a deadline degradation must not poison the memo cache"
    );
}

/// End to end: the same request pool against two *separate* server
/// instances (same shard count) produces identical per-shard routing
/// counters — the property that makes a restarted server re-warm the
/// same caches with the same traffic.
#[test]
fn server_restart_routes_the_same_requests_to_the_same_shards() {
    const SHARDS: usize = 4;

    fn run_once() -> (Vec<u64>, u64) {
        let server = Server::bind(
            ServeConfig {
                workers: SHARDS,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind");
        let addr = server.local_addr().unwrap();
        let join = std::thread::spawn(move || server.run().expect("run"));

        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut roundtrip = |line: &str| -> cxu::gen::json::Json {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut resp = String::new();
            assert!(reader.read_line(&mut resp).unwrap() > 0, "closed early");
            cxu::gen::json::Json::parse(resp.trim_end()).expect("json response")
        };

        let (_, op_json) = pool(13, 10);
        let mut sent = 0u64;
        for i in 0..op_json.len() {
            for j in (i + 1)..op_json.len() {
                let req = format!(
                    r#"{{"route": "check", "deadline_ms": 60000, "a": {}, "b": {}}}"#,
                    op_json[i], op_json[j]
                );
                let v = roundtrip(&req);
                assert_eq!(
                    v.get("ok").and_then(cxu::gen::json::Json::as_bool),
                    Some(true),
                    "{v:?}"
                );
                sent += 1;
            }
        }

        let v = roundtrip(r#"{"route": "metrics"}"#);
        let counters = v
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .expect("counters");
        let routed: Vec<u64> = (0..SHARDS)
            .map(|i| {
                counters
                    .get(&format!("serve.shard.{i}.routed"))
                    .and_then(cxu::gen::json::Json::as_u64)
                    .unwrap_or(0)
            })
            .collect();
        let _ = roundtrip(r#"{"route": "shutdown"}"#);
        drop(writer);
        drop(reader);
        join.join().unwrap();
        (routed, sent)
    }

    let (first, sent) = run_once();
    let (second, sent2) = run_once();
    assert_eq!(sent, sent2);
    assert_eq!(
        first.iter().sum::<u64>(),
        sent,
        "every check must be routed to exactly one home shard: {first:?}"
    );
    assert_eq!(
        first, second,
        "a restarted server must route the same pool to the same shards"
    );
}

/// A check the pre-filter decides never reaches a worker: the IO thread
/// answers it from the lookup (`inline_hits` +1, `executed` +0), and
/// the repeat is a cache hit, answered inline too.
#[test]
fn prefiltered_checks_are_answered_on_the_io_thread() {
    const SHARDS: usize = 2;
    let server = Server::bind(
        ServeConfig {
            workers: SHARDS,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let join = std::thread::spawn(move || server.run().expect("run"));
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut roundtrip = move |line: &str| -> Json {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        assert!(reader.read_line(&mut resp).unwrap() > 0, "closed early");
        Json::parse(resp.trim_end()).expect("json response")
    };
    let shard_sum = |m: &Json, counter: &str| -> u64 {
        let counters = m.get("metrics").and_then(|m| m.get("counters")).unwrap();
        (0..SHARDS)
            .filter_map(|i| {
                counters
                    .get(&format!("serve.shard.{i}.{counter}"))
                    .and_then(Json::as_u64)
            })
            .sum()
    };

    // Rigid clash: `x/B` and `x/C` differ at a fixed depth.
    let check = r#"{"route": "check", "a": {"kind": "read", "pattern": "x/B"}, "b": {"kind": "insert", "pattern": "x/C", "subtree": "D"}}"#;
    let mut last = roundtrip(r#"{"route": "metrics"}"#);
    for cached in [false, true] {
        let v = roundtrip(check);
        assert_eq!(
            v.get("conflict").and_then(Json::as_bool),
            Some(false),
            "{v}"
        );
        assert_eq!(
            v.get("detector").and_then(Json::as_str),
            Some(Detector::PrefilterNoConflict.name()),
            "{v}"
        );
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(cached), "{v}");
        let now = roundtrip(r#"{"route": "metrics"}"#);
        assert_eq!(
            shard_sum(&now, "inline_hits") - shard_sum(&last, "inline_hits"),
            1
        );
        assert_eq!(
            shard_sum(&now, "executed") - shard_sum(&last, "executed"),
            0
        );
        last = now;
    }
    let _ = roundtrip(r#"{"route": "shutdown"}"#);
    drop(roundtrip);
    join.join().unwrap();
}
