//! Cross-validation of the `cxu-obs` metrics against the scheduler's
//! own bookkeeping, over randomized (seeded) program batches.
//!
//! The registry is process-global, so every test takes `METRICS_LOCK`
//! and works on snapshot *deltas*: parallel test threads in this binary
//! are serialized, and other test binaries are separate processes.
//!
//! The identities checked here are the accounting contract documented
//! in DESIGN.md § Observability:
//!
//! * the per-route counters (`sched.route.*`) partition the analyzed
//!   pairs — their sum equals `SchedStats::pairs_analyzed`;
//! * cache lookups partition into hits and misses, and every miss is
//!   exactly one fresh analysis;
//! * the routes are backed by real detector invocations: each analyzed
//!   pair is either a linear read-update detection, a brute NP search,
//!   or an update-update commutativity call (which may itself fall back
//!   to the bounded search — hence the nested-search counters).

use cxu::gen::patterns::PatternParams;
use cxu::gen::program::{random_program, Program, ProgramParams, Stmt};
use cxu::gen::rng::SplitMix64;
use cxu::gen::trees::{random_tree, TreeParams};
use cxu::obs;
use cxu::sched::{ops_of_program, Deadline, Op, SchedConfig, SchedStats, Scheduler};
use cxu::store::{PutPayload, PutResult, Store, StoreConfig};
use std::sync::{Mutex, MutexGuard};

static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A config whose NP-side budget is small enough for tests: searches
/// either finish or degrade to `ConservativeBudget` quickly, and both
/// outcomes are part of the accounting being validated.
fn test_config() -> SchedConfig {
    SchedConfig {
        np_max_trees: 300,
        ..SchedConfig::default()
    }
}

fn batch(seed: u64, len: usize, branch_rate: f64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let params = ProgramParams {
        len,
        pattern: PatternParams {
            nodes: 4,
            alphabet: 5,
            branch_rate,
            ..PatternParams::default()
        },
        ..ProgramParams::default()
    };
    random_program(&mut rng, &params)
}

fn route_sum(delta: &obs::Snapshot) -> u64 {
    delta.counter_sum("sched.route.")
}

#[test]
fn route_counters_sum_to_pairs_analyzed() {
    let _guard = lock();
    let before = obs::registry().snapshot();
    let mut total = SchedStats::default();
    for seed in 1..=6u64 {
        let ops = ops_of_program(&batch(seed, 12, 0.3));
        let out = Scheduler::new(test_config()).run(&ops);
        total.pairs_analyzed += out.stats.pairs_analyzed;
        total.cache_hits += out.stats.cache_hits;
        total.prefilter_skips += out.stats.prefilter_skips;
        total.witness_search += out.stats.witness_search;
        total.ptime_linear_read += out.stats.ptime_linear_read;
        total.ptime_linear_updates += out.stats.ptime_linear_updates;
        total.conservative += out.stats.conservative;
    }
    let d = obs::registry().snapshot().delta(&before);

    assert!(total.pairs_analyzed > 0, "batches exercised the analyzer");
    // Pre-filter skips are decided (and routed) without a detector, so
    // the route counters cover analyzed + prefiltered pairs.
    assert_eq!(
        route_sum(&d),
        (total.pairs_analyzed + total.prefilter_skips) as u64
    );
    assert_eq!(
        d.counter("sched.route.prefilter_no_conflict"),
        total.prefilter_skips as u64
    );
    assert_eq!(
        d.counter("sched.route.ptime_linear_read"),
        total.ptime_linear_read as u64
    );
    assert_eq!(
        d.counter("sched.route.ptime_linear_updates"),
        total.ptime_linear_updates as u64
    );
    assert_eq!(
        d.counter("sched.route.witness_search"),
        total.witness_search as u64
    );
    assert_eq!(
        d.counter("sched.route.conservative_undecided")
            + d.counter("sched.route.conservative_budget")
            + d.counter("sched.route.conservative_deadline")
            + d.counter("sched.route.conservative_panic"),
        total.conservative as u64
    );
}

#[test]
fn cache_lookups_partition_into_hits_and_misses() {
    let _guard = lock();
    let before = obs::registry().snapshot();
    let mut analyzed = 0u64;
    let mut hits = 0u64;
    let mut prefiltered = 0u64;
    for seed in 10..=14u64 {
        let ops = ops_of_program(&batch(seed, 14, 0.2));
        // One scheduler, same batch twice: the second pass must be pure
        // cache traffic.
        let mut sched = Scheduler::new(test_config());
        let first = sched.run(&ops);
        let mid = obs::registry().snapshot();
        let second = sched.run(&ops);
        let d2 = obs::registry().snapshot().delta(&mid);
        assert_eq!(
            second.stats.pairs_analyzed, 0,
            "seed {seed}: repeat batch is fully memoized"
        );
        assert_eq!(
            second.stats.prefilter_skips, 0,
            "seed {seed}: prefilter verdicts are memoized, repeats are cache hits"
        );
        assert_eq!(route_sum(&d2), 0, "seed {seed}: no new analyses");
        assert_eq!(d2.counter("sched.cache.misses"), 0, "seed {seed}");
        assert_eq!(
            d2.counter("sched.cache.hits"),
            second.stats.cache_hits as u64,
            "seed {seed}"
        );
        analyzed += (first.stats.pairs_analyzed + second.stats.pairs_analyzed) as u64;
        hits += (first.stats.cache_hits + second.stats.cache_hits) as u64;
        prefiltered += (first.stats.prefilter_skips + second.stats.prefilter_skips) as u64;
    }
    let d = obs::registry().snapshot().delta(&before);
    assert_eq!(
        d.counter("sched.cache.lookups"),
        d.counter("sched.cache.hits") + d.counter("sched.cache.misses"),
        "hits + misses partition the lookups"
    );
    assert_eq!(
        d.counter("sched.cache.misses"),
        analyzed + prefiltered,
        "miss == fresh analysis or prefilter skip"
    );
    assert_eq!(d.counter("sched.cache.hits"), hits);
}

#[test]
fn routes_are_backed_by_detector_invocations() {
    let _guard = lock();
    let before = obs::registry().snapshot();
    let mut analyzed = 0u64;
    let mut prefiltered = 0u64;
    for seed in 20..=25u64 {
        let ops = ops_of_program(&batch(seed, 12, 0.4));
        let out = Scheduler::new(test_config()).run(&ops);
        analyzed += out.stats.pairs_analyzed as u64;
        prefiltered += out.stats.prefilter_skips as u64;
    }
    let d = obs::registry().snapshot().delta(&before);

    // Every analyzed pair maps to exactly one top-level detector call:
    // linear read-update detection, a brute read-update search, or an
    // update-update commutativity call.
    assert_eq!(
        d.counter("sched.route.ptime_linear_read")
            + d.counter("core.brute.searches")
            + d.counter("core.uu_linear.calls"),
        analyzed,
        "detector invocations account for every analyzed pair\n{d}"
    );

    // Outcome counters partition each detector's invocations.
    assert_eq!(
        d.counter("core.brute.searches"),
        d.counter("core.brute.conflict")
            + d.counter("core.brute.no_conflict")
            + d.counter("core.brute.budget")
            + d.counter("core.brute.deadline"),
    );
    assert_eq!(
        d.counter("core.uu_search.searches"),
        d.counter("core.uu_search.conflict")
            + d.counter("core.uu_search.no_conflict")
            + d.counter("core.uu_search.budget")
            + d.counter("core.uu_search.deadline"),
    );
    assert_eq!(
        d.counter("core.uu_linear.calls"),
        d.counter("core.uu_linear.nonlinear")
            + d.counter("core.uu_linear.commute")
            + d.counter("core.uu_linear.conflict")
            + d.counter("core.uu_linear.unknown")
            + d.counter("core.uu_linear.deadline"),
    );

    // The linear detector also serves the update-update cross-conflict
    // checks, so it runs at least once per ptime-linear-read route.
    assert!(
        d.counter("core.detect.linear") >= d.counter("sched.route.ptime_linear_read"),
        "{d}"
    );

    // No deadline was configured and nothing panicked.
    assert_eq!(d.counter("sched.route.conservative_deadline"), 0);
    assert_eq!(d.counter("sched.route.conservative_panic"), 0);

    // Latency histograms move with their counters: every distinct pair
    // decision — analyzed or prefilter-skipped — is one sample.
    let h = d
        .histogram("sched.pair_ns")
        .expect("pair histogram recorded");
    assert_eq!(h.count, analyzed + prefiltered);
}

#[test]
fn histograms_and_stats_agree_on_batch_structure() {
    let _guard = lock();
    let before = obs::registry().snapshot();
    let ops = ops_of_program(&batch(99, 16, 0.25));
    let out = Scheduler::new(test_config()).run(&ops);
    let d = obs::registry().snapshot().delta(&before);

    assert_eq!(d.counter("sched.batches"), 1);
    assert_eq!(
        out.stats.pairs_total,
        out.stats.trivial
            + out.stats.pairs_analyzed
            + out.stats.cache_hits
            + out.stats.prefilter_skips,
        "stats partition the pair universe"
    );
    assert_eq!(
        d.counter("sched.degraded.budget"),
        out.stats.degraded_budget as u64
    );
    assert_eq!(
        d.counter("sched.degraded.deadline"),
        out.stats.degraded_deadline as u64
    );
    let analyze = d.histogram("sched.analyze_ns").expect("analyze histogram");
    assert_eq!(analyze.count, 1);
    let rounds = d.histogram("sched.rounds_ns").expect("rounds histogram");
    assert_eq!(rounds.count, 1);
}

/// The store-side accounting contract (DESIGN.md § Document store):
/// every put is tallied in exactly one partition bucket —
/// `store.puts == applied + merged + branched + rejected + noop +
/// failed` — and the gauges report the store's real levels. `failed`
/// is owned by the serving layer (a put that dies before an answer
/// exists), so for an in-process store it must stay zero.
#[test]
fn store_put_counters_partition_the_puts() {
    let _guard = lock();
    let before = obs::registry().snapshot();

    let store = Store::new(StoreConfig::default());
    let mut sched = Scheduler::new(test_config());
    let deadline = Deadline::never();
    let mut check = |a: &Op, b: &Op| sched.check_pair(a, b, &deadline);

    // An update pool over the same alphabet as the documents, so merge
    // checks see patterns that actually touch the trees.
    let mut rng = SplitMix64::seed_from_u64(0x0B5);
    let pool: Vec<_> = random_program(
        &mut rng,
        &ProgramParams {
            len: 24,
            update_rate: 1.0,
            delete_rate: 0.35,
            pattern: PatternParams {
                nodes: 4,
                alphabet: 6,
                branch_rate: 0.2,
                ..PatternParams::default()
            },
        },
    )
    .stmts
    .into_iter()
    .map(|s| match s {
        Stmt::Update(u) => u,
        Stmt::Read(_) => unreachable!("update_rate is 1.0"),
    })
    .collect();
    let tparams = TreeParams {
        nodes: 10,
        alphabet: 6,
        ..TreeParams::default()
    };

    // A seeded workload that deliberately hits every bucket.
    let mut expect_puts = 0u64;
    let mut buckets = [0u64; 4]; // applied, noop, merged, branched
    let mut rejected = 0u64;
    let mut tally = |r: &Result<cxu::store::PutOutcome, cxu::store::StoreError>| match r {
        Ok(o) => match o.result {
            PutResult::Created | PutResult::Applied => buckets[0] += 1,
            PutResult::Noop => buckets[1] += 1,
            PutResult::Merged => buckets[2] += 1,
            PutResult::Branched => buckets[3] += 1,
        },
        Err(_) => rejected += 1,
    };
    for d in 0..8usize {
        let doc = format!("obs-{d}");
        let tree = random_tree(&mut rng, &tparams);
        let created = store.put(&doc, None, PutPayload::Content(tree), &mut check);
        expect_puts += 1;
        tally(&created);
        let base = created.as_ref().unwrap().rev;

        // An edit at the head (fast path), then the identical put
        // replayed: same base + same payload mint the same revision id,
        // so the replay is a noop.
        let u0 = pool[d % pool.len()].clone();
        let r = store.put(&doc, Some(base), PutPayload::Op(u0.clone()), &mut check);
        expect_puts += 1;
        assert!(
            matches!(r.as_ref().unwrap().result, PutResult::Applied),
            "{r:?}"
        );
        tally(&r);
        let r = store.put(&doc, Some(base), PutPayload::Op(u0), &mut check);
        expect_puts += 1;
        assert!(
            matches!(r.as_ref().unwrap().result, PutResult::Noop),
            "{r:?}"
        );
        tally(&r);

        // Create over a live winner: rejected.
        let tree = random_tree(&mut rng, &tparams);
        let r = store.put(&doc, None, PutPayload::Content(tree), &mut check);
        expect_puts += 1;
        assert!(r.is_err(), "create over live winner must be rejected");
        tally(&r);

        // Two more ops against the now-stale base: each lands merged
        // or branched, per the detectors.
        for k in 0..2usize {
            let u = pool[(d + 7 * k + 1) % pool.len()].clone();
            let r = store.put(&doc, Some(base), PutPayload::Op(u), &mut check);
            expect_puts += 1;
            tally(&r);
        }

        // An unknown base revision: rejected.
        let bogus = "9-0123456789abcdef0123456789abcdef".parse().unwrap();
        let u = pool[(d + 3) % pool.len()].clone();
        let r = store.put(&doc, Some(bogus), PutPayload::Op(u), &mut check);
        expect_puts += 1;
        assert!(r.is_err(), "unknown rev must be rejected");
        tally(&r);
    }
    // Tombstone one document, then try to edit it: rejected.
    let winner = store.get("obs-0", None, false).unwrap().rev;
    let r = store.delete("obs-0", winner);
    expect_puts += 1;
    tally(&r);
    let u = pool[0].clone();
    let r = store.put("obs-0", Some(r.unwrap().rev), PutPayload::Op(u), &mut check);
    expect_puts += 1;
    assert!(r.is_err(), "edit on tombstone must be rejected");
    tally(&r);

    store.set_gauges();
    let d = obs::registry().snapshot().delta(&before);

    // The partition identity, with the workload's own bookkeeping as
    // the reference. In-process, nothing can die mid-put: failed == 0.
    assert_eq!(d.counter("store.puts"), expect_puts);
    assert_eq!(
        d.counter("store.puts"),
        d.counter("store.put.applied")
            + d.counter("store.put.merged")
            + d.counter("store.put.branched")
            + d.counter("store.put.rejected")
            + d.counter("store.put.noop")
            + d.counter("store.put.failed"),
        "put buckets partition the puts\n{d}"
    );
    assert_eq!(d.counter("store.put.failed"), 0);
    assert_eq!(d.counter("store.put.applied"), buckets[0]);
    assert_eq!(d.counter("store.put.noop"), buckets[1]);
    assert_eq!(d.counter("store.put.merged"), buckets[2]);
    assert_eq!(d.counter("store.put.branched"), buckets[3]);
    assert_eq!(d.counter("store.put.rejected"), rejected);
    assert!(
        rejected >= 17,
        "three deliberate rejects per doc + tombstone edit"
    );
    assert!(
        buckets[2] + buckets[3] > 0,
        "stale-base puts exercised the merge rung"
    );
    assert_eq!(d.counter("store.deletes"), 1);

    // Histograms move with the counters: one sample per answered put.
    let h = d.histogram("store.put_ns").expect("put histogram");
    assert_eq!(h.count, expect_puts);

    // Gauges are levels, not deltas: they equal the store's real sizes.
    assert_eq!(d.gauge("store.docs"), store.docs_len() as i64);
    assert_eq!(d.gauge("store.revisions"), store.revisions_len() as i64);
}

#[test]
fn compile_cache_hits_and_misses_partition_interns() {
    let _guard = lock();
    let before = obs::registry().snapshot();
    let ops = ops_of_program(&batch(7, 18, 0.2));
    let mut sched = Scheduler::new(test_config());
    sched.run(&ops);
    let mid = obs::registry().snapshot();
    let d1 = mid.delta(&before);

    // Every interned op is exactly one compile-cache probe: a miss the
    // first time its shape is seen, a hit on every repeat.
    assert_eq!(
        d1.counter("automata.compile.miss") + d1.counter("automata.compile.hit"),
        ops.len() as u64,
        "one probe per op"
    );
    assert!(d1.counter("automata.compile.miss") > 0);

    // Re-running the identical batch interns the same shapes: pure hits.
    sched.run(&ops);
    let d2 = obs::registry().snapshot().delta(&mid);
    assert_eq!(d2.counter("automata.compile.miss"), 0, "no new shapes");
    assert_eq!(d2.counter("automata.compile.hit"), ops.len() as u64);
}

/// Durability accounting: every record the WAL ever accepted is either
/// compacted away into a snapshot or still live in the log — and a
/// recovery replays exactly the live tail it was handed. The put
/// partition identity is unchanged by the WAL being in the loop.
#[test]
fn wal_counters_account_for_every_appended_record() {
    use cxu::store::{DurabilityConfig, FsyncPolicy};

    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("cxu-obs-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurabilityConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Never,
        snapshot_every: 8, // small enough that the workload compacts
    };
    let before = obs::registry().snapshot();

    let store = Store::open(StoreConfig::default(), dcfg.clone()).expect("open durable");
    let mut sched = Scheduler::new(test_config());
    let deadline = Deadline::never();
    let mut check = |a: &Op, b: &Op| sched.check_pair(a, b, &deadline);

    let mut rng = SplitMix64::seed_from_u64(0x0A1_5EED);
    let tparams = TreeParams {
        nodes: 8,
        alphabet: 6,
        ..TreeParams::default()
    };
    let mut puts = 0u64;
    for d in 0..4usize {
        let doc = format!("wal-{d}");
        let tree = random_tree(&mut rng, &tparams);
        let created = store
            .put(&doc, None, PutPayload::Content(tree), &mut check)
            .expect("create");
        puts += 1;
        let mut base = created.rev;
        for _ in 0..6 {
            let tree = random_tree(&mut rng, &tparams);
            let r = store
                .put(&doc, Some(base), PutPayload::Content(tree), &mut check)
                .expect("replace at winner");
            puts += 1;
            base = r.rev;
        }
    }

    let mid = obs::registry().snapshot().delta(&before);
    // Conservation: appended == compacted away + still in the log.
    assert!(
        mid.counter("store.wal.compactions") >= 1,
        "28 commits across snapshot_every=8 must compact\n{mid}"
    );
    assert_eq!(
        mid.counter("store.wal.appended"),
        mid.counter("store.wal.compacted_away") + store.wal_records(),
        "every appended record is compacted away or live\n{mid}"
    );
    // The put partition is undisturbed by the WAL: same identity,
    // nothing failed, one bucket tick per put.
    assert_eq!(mid.counter("store.puts"), puts);
    assert_eq!(
        mid.counter("store.puts"),
        mid.counter("store.put.applied")
            + mid.counter("store.put.merged")
            + mid.counter("store.put.branched")
            + mid.counter("store.put.rejected")
            + mid.counter("store.put.noop")
            + mid.counter("store.put.failed"),
        "put partition holds under durability\n{mid}"
    );
    assert_eq!(mid.counter("store.put.failed"), 0);
    assert_eq!(mid.counter("store.wal.append_errors"), 0);

    // Crash (no compact) and recover: the replay counter moves by
    // exactly the live tail at the handoff.
    let tail = store.wal_records();
    store.flush().expect("flush");
    drop(store);
    let handoff = obs::registry().snapshot();
    let recovered = Store::open(StoreConfig::default(), dcfg).expect("recover");
    let d = obs::registry().snapshot().delta(&handoff);
    assert_eq!(
        d.counter("store.wal.replayed_on_recovery"),
        tail,
        "recovery replays exactly the live tail\n{d}"
    );
    assert_eq!(d.counter("store.recovery.runs"), 1);
    assert_eq!(d.counter("store.recovery.torn_bytes"), 0);
    assert_eq!(recovered.wal_records(), tail, "the tail stays live");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The structural-index accounting contract (DESIGN.md § Structural
/// index): every build — tree-walk or streaming — ticks `index.builds`
/// and records one `index.build_ns` sample; `index.nodes`, `.postings`
/// and `.bytes` accumulate the built indexes' real sizes;
/// `index.ingest_bytes` moves only on the streaming (`from_xml`) path,
/// by exactly the source length. Every grounded check is one
/// `index.grounded_checks` tick and one `index.grounded_ns` sample,
/// with the Insert+Value tree-walk fallback bounded by the checks.
#[test]
fn index_counters_account_for_builds_and_grounded_checks() {
    use cxu::index::{detect_grounded, DocIndex};
    use cxu::prelude::*;
    use cxu::tree::xml;

    let _guard = lock();
    let mut rng = SplitMix64::seed_from_u64(0x1D1);
    let tparams = TreeParams {
        nodes: 60,
        alphabet: 6,
        ..TreeParams::default()
    };

    let before = obs::registry().snapshot();
    let mut builds = 0u64;
    let mut nodes = 0u64;
    let mut postings = 0u64;
    let mut bytes = 0u64;
    let mut docs = Vec::new();
    for _ in 0..4 {
        let t = random_tree(&mut rng, &tparams);
        let idx = DocIndex::from_tree(&t);
        builds += 1;
        nodes += idx.len() as u64;
        postings += idx.postings_len() as u64;
        bytes += idx.approx_bytes() as u64;
        docs.push((t, idx));
    }
    // The streaming path indexes the identical structure and is the
    // only one that moves the ingest byte counter.
    let src = xml::to_xml(&docs[0].0);
    let sidx = DocIndex::from_xml(&src).expect("round-tripped XML is well-formed");
    builds += 1;
    nodes += sidx.len() as u64;
    postings += sidx.postings_len() as u64;
    bytes += sidx.approx_bytes() as u64;
    assert_eq!(sidx.len(), docs[0].1.len(), "same structure, same index");

    let d = obs::registry().snapshot().delta(&before);
    assert_eq!(d.counter("index.builds"), builds);
    assert_eq!(d.counter("index.nodes"), nodes);
    assert_eq!(d.counter("index.postings"), postings);
    assert_eq!(d.counter("index.bytes"), bytes);
    assert_eq!(d.counter("index.ingest_bytes"), src.len() as u64);
    let h = d.histogram("index.build_ns").expect("build histogram");
    assert_eq!(h.count, builds, "one latency sample per build");

    // Grounded checks over a seeded read/update pool: one tick and one
    // latency sample per check, fallback bounded by the checks.
    let mid = obs::registry().snapshot();
    let program = random_program(
        &mut rng,
        &ProgramParams {
            len: 24,
            update_rate: 0.5,
            delete_rate: 0.4,
            pattern: PatternParams {
                nodes: 4,
                alphabet: 6,
                branch_rate: 0.2,
                ..PatternParams::default()
            },
        },
    );
    let mut reads = Vec::new();
    let mut updates = Vec::new();
    for s in program.stmts {
        match s {
            Stmt::Read(r) => reads.push(r),
            Stmt::Update(u) => updates.push(u),
        }
    }
    assert!(!reads.is_empty() && !updates.is_empty());
    let mut checks = 0u64;
    for (t, idx) in &docs {
        for (k, r) in reads.iter().enumerate() {
            let u = &updates[k % updates.len()];
            for sem in Semantics::ALL {
                detect_grounded(r, u, t, idx, sem);
                checks += 1;
            }
        }
    }
    let d = obs::registry().snapshot().delta(&mid);
    assert_eq!(d.counter("index.grounded_checks"), checks);
    let h = d
        .histogram("index.grounded_ns")
        .expect("grounded histogram");
    assert_eq!(h.count, checks, "one latency sample per grounded check");
    assert!(
        d.counter("index.eval.fallback") <= checks,
        "the Insert+Value fallback is a subset of the checks\n{d}"
    );
    assert_eq!(d.counter("index.builds"), 0, "checks never rebuild");
}

/// The store-side index cache contract: every `Store::indexed` lookup
/// that produces an answer is exactly one cache hit or one miss, every
/// miss is exactly one index build and one `store.index_ns` sample,
/// and a commit to the document invalidates the winner's entry.
#[test]
fn index_cache_hits_and_misses_partition_indexed_lookups() {
    let _guard = lock();
    let store = Store::new(StoreConfig::default());
    let mut sched = Scheduler::new(test_config());
    let deadline = Deadline::never();
    let mut check = |a: &Op, b: &Op| sched.check_pair(a, b, &deadline);

    let mut rng = SplitMix64::seed_from_u64(0x1D2);
    let tparams = TreeParams {
        nodes: 20,
        alphabet: 6,
        ..TreeParams::default()
    };
    let t0 = random_tree(&mut rng, &tparams);
    let created = store
        .put("idx-doc", None, PutPayload::Content(t0), &mut check)
        .expect("create");

    let before = obs::registry().snapshot();
    let mut hits = 0u64;
    let mut misses = 0u64;

    // First winner lookup builds and caches; repeats are pure hits.
    let first = store.indexed("idx-doc", None).expect("winner");
    misses += 1;
    for _ in 0..3 {
        let again = store.indexed("idx-doc", None).expect("winner");
        hits += 1;
        assert!(
            std::sync::Arc::ptr_eq(&first, &again),
            "hits share the cached Arc"
        );
    }

    // A commit moves the winner: the cached entry is stale, the next
    // lookup misses and rebuilds at the new revision.
    let t1 = random_tree(&mut rng, &tparams);
    let moved = store
        .put(
            "idx-doc",
            Some(created.rev),
            PutPayload::Content(t1),
            &mut check,
        )
        .expect("replace at winner");
    let rebuilt = store.indexed("idx-doc", None).expect("new winner");
    misses += 1;
    assert_eq!(rebuilt.rev, moved.rev, "cache serves the current winner");

    // Pinning a non-winner revision always bypasses the cache.
    let old = store
        .indexed("idx-doc", Some(created.rev))
        .expect("pinned revision");
    misses += 1;
    assert_eq!(old.rev, created.rev);

    // Error paths answer without touching the accounting.
    assert!(store.indexed("no-such-doc", None).is_err());
    let bogus = "9-0123456789abcdef0123456789abcdef".parse().unwrap();
    assert!(store.indexed("idx-doc", Some(bogus)).is_err());

    let d = obs::registry().snapshot().delta(&before);
    assert_eq!(d.counter("index.cache.hits"), hits);
    assert_eq!(d.counter("index.cache.misses"), misses);
    assert_eq!(
        d.counter("index.builds"),
        misses,
        "every miss is exactly one build, every hit none\n{d}"
    );
    let h = d.histogram("store.index_ns").expect("indexed histogram");
    assert_eq!(h.count, misses, "the build path is the timed path");
}

/// The transaction accounting contract (DESIGN.md § Transactions):
/// every commit attempt lands in exactly one verdict bucket —
/// `txn.commits == txn.applied + txn.conflicted + txn.rejected +
/// txn.failed` — with `failed` owned by the serving layer (an attempt
/// that dies before an answer exists), so in-process it stays zero.
/// `txn.ops` moves by the submitted write count, `store.txn_ns` takes
/// one sample per commit attempt, the pair counters are backed by the
/// applied outcomes' own `checked_pairs`, and a multi-generation
/// commit invalidates the document's index-cache entry exactly once.
#[test]
fn txn_counters_partition_the_commits() {
    use cxu::pattern::xpath;
    use cxu::prelude::{Delete, Insert, Update};
    use cxu::store::{TxnError, TxnGuard, TxnWrite};
    use cxu::tree::text;

    let _guard = lock();
    let store = Store::new(StoreConfig::default());
    let mut sched = Scheduler::new(test_config());
    let deadline = Deadline::never();
    let mut check = |a: &Op, b: &Op| sched.check_pair(a, b, &deadline);

    let ins = |pattern: &str, subtree: &str| {
        Update::Insert(Insert::new(
            xpath::parse(pattern).unwrap(),
            text::parse(subtree).unwrap(),
        ))
    };
    let del = |pattern: &str| Update::Delete(Delete::new(xpath::parse(pattern).unwrap()).unwrap());
    let guard = |doc: &str, rev| TxnGuard {
        doc: doc.to_owned(),
        rev,
    };
    let write = |doc: &str, op: Update| TxnWrite {
        doc: doc.to_owned(),
        op,
    };

    let r0 = store
        .put(
            "tx-a",
            None,
            PutPayload::Content(text::parse("a(b c e)").unwrap()),
            &mut check,
        )
        .expect("create tx-a")
        .rev;
    let s0 = store
        .put(
            "tx-b",
            None,
            PutPayload::Content(text::parse("l(m)").unwrap()),
            &mut check,
        )
        .expect("create tx-b")
        .rev;

    // Warm the index cache on the winner, so the multi-generation
    // commit below can pin its invalidation cost exactly.
    let warm = store.indexed("tx-a", None).expect("warm winner index");
    assert_eq!(warm.rev, r0);

    let before = obs::registry().snapshot();
    let mut commits = 0u64;
    let mut applied = 0u64;
    let mut conflicted = 0u64;
    let mut rejected = 0u64;
    let mut ops = 0u64;
    let mut applied_pairs = 0u64;

    // Applied: a fresh-guarded three-generation commit over tx-a plus
    // one write on tx-b. Invalidation drops tx-a's warm cache entry
    // but must not itself count as a miss.
    let out = store
        .apply_txn(
            &[guard("tx-a", r0), guard("tx-b", s0)],
            &[
                write("tx-a", ins("a/b", "p")),
                write("tx-a", ins("a/c", "q")),
                write("tx-b", ins("l/m", "n")),
            ],
            &mut check,
        )
        .expect("fresh-guarded txn commits");
    commits += 1;
    applied += 1;
    ops += 3;
    applied_pairs += out.checked_pairs as u64;
    assert!(!out.replayed);
    let mid = obs::registry().snapshot().delta(&before);
    assert_eq!(
        mid.counter("index.cache.misses"),
        0,
        "invalidation is not a miss\n{mid}"
    );

    // The exact one-miss pin promised by the store's invalidation
    // test: one lookup after the commit rebuilds at the final winner
    // (one miss, one build), and a repeat is a pure hit.
    let rebuilt = store.indexed("tx-a", None).expect("rebuild winner");
    assert_eq!(
        rebuilt.rev, out.revs[1].1,
        "rebuild lands on the final winner"
    );
    let again = store.indexed("tx-a", None).expect("cached winner");
    assert!(std::sync::Arc::ptr_eq(&rebuilt, &again));
    let mid = obs::registry().snapshot().delta(&before);
    assert_eq!(mid.counter("index.cache.misses"), 1, "exactly one rebuild");
    assert_eq!(mid.counter("index.cache.hits"), 1);
    assert_eq!(mid.counter("index.builds"), 1);

    // Conflicted: someone deletes a/b, then a txn guarded at the old
    // winner tries to insert under it — provably non-commuting.
    let out = store
        .apply_txn(
            &[guard("tx-a", rebuilt.rev)],
            &[write("tx-a", del("a/b"))],
            &mut check,
        )
        .expect("delete txn commits");
    commits += 1;
    applied += 1;
    ops += 1;
    applied_pairs += out.checked_pairs as u64;
    let r = store.apply_txn(
        &[guard("tx-a", rebuilt.rev)],
        &[write("tx-a", ins("a/b", "z"))],
        &mut check,
    );
    commits += 1;
    ops += 1;
    match r {
        Err(TxnError::Conflict { ref doc, .. }) => {
            assert_eq!(doc, "tx-a");
            assert!(r.unwrap_err().retryable());
            conflicted += 1;
        }
        other => panic!("stale non-commuting guard must conflict, got {other:?}"),
    }

    // Rejected: an empty program, and a guard on an unknown revision —
    // both terminal, neither retryable.
    let r = store.apply_txn(&[guard("tx-b", s0)], &[], &mut check);
    commits += 1;
    assert!(matches!(r, Err(TxnError::Rejected(_))), "{r:?}");
    assert!(!r.unwrap_err().retryable());
    rejected += 1;
    let bogus = "9-0123456789abcdef0123456789abcdef".parse().unwrap();
    let r = store.apply_txn(
        &[guard("tx-b", bogus)],
        &[write("tx-b", ins("l/m", "o"))],
        &mut check,
    );
    commits += 1;
    ops += 1;
    assert!(matches!(r, Err(TxnError::Rejected(_))), "{r:?}");
    rejected += 1;

    let d = obs::registry().snapshot().delta(&before);
    assert_eq!(d.counter("txn.commits"), commits);
    assert_eq!(
        d.counter("txn.commits"),
        d.counter("txn.applied")
            + d.counter("txn.conflicted")
            + d.counter("txn.rejected")
            + d.counter("txn.failed"),
        "verdict buckets partition the commit attempts\n{d}"
    );
    assert_eq!(d.counter("txn.applied"), applied);
    assert_eq!(d.counter("txn.conflicted"), conflicted);
    assert_eq!(d.counter("txn.rejected"), rejected);
    assert_eq!(d.counter("txn.failed"), 0, "failed is serve-owned");
    assert_eq!(d.counter("txn.ops"), ops);
    assert_eq!(
        d.counter("txn.retries"),
        0,
        "no competing writer, no OCC retry rounds"
    );

    // Pair accounting: the store's commit engine is the one counting
    // site. The applied outcomes report their own detector work, and
    // the conflicted attempt checked exactly one pair — its single
    // write against the one intervening delete — and was refuted by it.
    assert_eq!(
        d.counter("txn.pair.checked"),
        applied_pairs + 1,
        "outcome checked_pairs plus the refuted pair\n{d}"
    );
    assert_eq!(d.counter("txn.pair.conflicts"), 1, "{d}");

    // One latency sample per commit attempt, answered or refused.
    let h = d.histogram("store.txn_ns").expect("txn histogram");
    assert_eq!(h.count, commits);
}
