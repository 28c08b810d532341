//! `cxu-bench` — hermetic measurements and the experiment report.
//!
//! It uses only workspace crates and wall-clock timing, so it builds and
//! runs offline. Three modes write the committed bench artifacts on fixed
//! seeds, and `experiments` prints every `EXPERIMENTS.md` table (E4a–E15):
//!
//! ```text
//! cxu-bench automata    > BENCH_AUTOMATA.json
//! cxu-bench sched       > BENCH_SCHED.json
//! cxu-bench index       > BENCH_INDEX.json
//! cxu-bench experiments > report.md
//! ```
//!
//! `scripts/bench.sh` wraps the first three; `scripts/verify.sh` runs
//! `experiments`, which exits nonzero when one of its checks fails.

#[path = "bench/experiments.rs"]
mod experiments;

use cxu::gen::patterns::{random_pattern, PatternParams};
use cxu::gen::program::{random_program, ProgramParams};
use cxu::gen::rng::SplitMix64;
use cxu::sched::{ops_of_program, Op, SchedConfig, Scheduler};
use std::time::Instant;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "automata" => bench_automata(),
        "sched" => bench_sched(),
        "index" => bench_index(),
        "experiments" => experiments::run(),
        _ => {
            eprintln!("usage: cxu-bench <automata|sched|index|experiments>");
            std::process::exit(2);
        }
    }
}

/// The median of `samples` (the upper one for an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median over `reps` samples of the wall time per call of `f`, in ns.
/// Each sample times `iters` back-to-back calls.
fn median_ns<R>(reps: usize, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / f64::from(iters)
            })
            .collect(),
    )
}

/// Intersection-emptiness microbench: the legacy `Nfa` product (per-call
/// lowering + `HashSet` unions, as the pre-compilation engine ran it)
/// against the compiled bitset product over cached chains.
fn bench_automata() {
    use cxu::core::matching::{compile, nfa};

    let seed = 0xA07A_u64;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let params = PatternParams {
        nodes: 4,
        alphabet: 6,
        branch_rate: 0.0,
        ..PatternParams::default()
    };
    let pats: Vec<_> = (0..32).map(|_| random_pattern(&mut rng, &params)).collect();
    let pairs: Vec<(usize, usize)> = (0..pats.len())
        .flat_map(|i| (i + 1..pats.len()).map(move |j| (i, j)))
        .collect();

    // Before: lower both patterns and run the HashSet-based product, per
    // call — the shape of the old PTIME hot path.
    let mut k = 0usize;
    let legacy_ns = median_ns(5, 200, || {
        let (i, j) = pairs[k % pairs.len()];
        k += 1;
        nfa(&pats[i]).intersects(&nfa(&pats[j]))
    });

    // After: compile once, run the allocation-free bitset product.
    let chains: Vec<_> = pats.iter().map(compile).collect();
    let mut k2 = 0usize;
    let compiled_ns = median_ns(5, 2000, || {
        let (i, j) = pairs[k2 % pairs.len()];
        k2 += 1;
        chains[i].intersects(&chains[j])
    });
    let mut k3 = 0usize;
    let compiled_weak_ns = median_ns(5, 2000, || {
        let (i, j) = pairs[k3 % pairs.len()];
        k3 += 1;
        chains[i].intersects_weak(&chains[j])
    });

    println!(
        "{{\n  \"bench\": \"automata\",\n  \"seed\": {seed},\n  \
         \"workload\": {{\"patterns\": {}, \"pattern_nodes\": 4, \"alphabet\": 6, \
         \"branch_rate\": 0.0}},\n  \
         \"intersects_ns_per_op\": {{\n    \"legacy_nfa\": {legacy_ns:.1},\n    \
         \"compiled\": {compiled_ns:.1},\n    \
         \"compiled_weak\": {compiled_weak_ns:.1},\n    \
         \"speedup\": {:.2}\n  }}\n}}",
        pats.len(),
        legacy_ns / compiled_ns
    );
}

/// A fixed-seed scheduling workload profile. Patterns are always linear
/// (`branch_rate` 0): the point of the trajectory is the §4 PTIME path.
struct Profile {
    /// Profile name in the report.
    name: &'static str,
    /// Per-statement probability of an update (vs a read).
    update_rate: f64,
    /// Label pool size (larger → fewer accidentally-overlapping pairs).
    alphabet: usize,
    /// Base seed; each size adds its op count.
    seed: u64,
}

/// `mixed` is update-heavy, so overlapping update pairs route a large
/// share of the time into the NP-side bounded searches.
/// `linear` is read-dominated: pair decisions stay on the §4 PTIME
/// read–update detector and the batch pre-filter, the paths this crate's
/// compiled automata accelerate.
const PROFILES: [Profile; 2] = [
    Profile {
        name: "mixed",
        update_rate: 0.5,
        alphabet: 6,
        seed: 0xBA5E,
    },
    Profile {
        name: "linear",
        update_rate: 0.2,
        alphabet: 8,
        seed: 0x11EA6,
    },
];

fn batch(len: usize, profile: &Profile) -> Vec<Op> {
    let mut rng = SplitMix64::seed_from_u64(profile.seed + len as u64);
    let p = random_program(
        &mut rng,
        &ProgramParams {
            len,
            update_rate: profile.update_rate,
            delete_rate: 0.4,
            pattern: PatternParams {
                nodes: 4,
                alphabet: profile.alphabet,
                branch_rate: 0.0,
                ..PatternParams::default()
            },
        },
    );
    ops_of_program(&p)
}

/// Deterministic scheduler runs with the `cxu-obs` registry snapshotted
/// around each batch, so the report carries the route mix (pre-filter
/// skips, compile cache hits/misses) and latency columns next to the
/// raw metrics blob.
fn bench_sched() {
    let mut profiles = String::new();
    for (pi, profile) in PROFILES.iter().enumerate() {
        let mut runs = String::new();
        for (i, &n) in [50usize, 100, 200, 400].iter().enumerate() {
            let ops = batch(n, profile);
            let before = cxu::obs::registry().snapshot();
            let t0 = Instant::now();
            let out = Scheduler::new(SchedConfig {
                jobs: 1,
                np_max_trees: 2_000,
                ..SchedConfig::default()
            })
            .run(&ops);
            let wall_us = t0.elapsed().as_micros();
            let delta = cxu::obs::registry().snapshot().delta(&before);
            let st = out.stats;
            let pair = delta.histogram("sched.pair_ns");
            let (pair_count, pair_sum, pair_mean) = pair
                .map(|h| (h.count, h.sum, h.mean()))
                .unwrap_or((0, 0, 0));
            if i > 0 {
                runs.push_str(",\n");
            }
            runs.push_str(&format!(
                "      {{\"ops\": {}, \"wall_us\": {wall_us}, \
                 \"pairs_total\": {}, \"trivial\": {}, \"pairs_analyzed\": {}, \
                 \"cache_hits\": {}, \"prefilter_skips\": {}, \
                 \"compile_hits\": {}, \"compile_misses\": {}, \
                 \"conflict_edges\": {}, \"rounds\": {}, \
                 \"pair_ns_mean\": {pair_mean}, \"pair_ns_sum\": {pair_sum}, \
                 \"pair_ns_count\": {pair_count},\n       \
                 \"metrics\": {}}}",
                st.ops,
                st.pairs_total,
                st.trivial,
                st.pairs_analyzed,
                st.cache_hits,
                st.prefilter_skips,
                delta.counter("automata.compile.hit"),
                delta.counter("automata.compile.miss"),
                st.conflict_edges,
                st.rounds,
                delta.to_json()
            ));
        }
        if pi > 0 {
            profiles.push_str(",\n");
        }
        profiles.push_str(&format!(
            "    {{\"profile\": \"{}\", \"update_rate\": {}, \"alphabet\": {}, \
             \"seed\": {},\n     \
             \"runs\": [\n{runs}\n    ]}}",
            profile.name, profile.update_rate, profile.alphabet, profile.seed
        ));
    }
    println!(
        "{{\n  \"bench\": \"sched\",\n  \"workload\": {{\"delete_rate\": 0.4, \
         \"pattern_nodes\": 4, \"branch_rate\": 0.0, \
         \"np_max_trees\": 2000, \"jobs\": 1}},\n  \
         \"profiles\": [\n{profiles}\n  ]\n}}"
    );
}

/// Percentile over a sorted sample set (order statistic, 1-indexed).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Grows a seeded random tree until its XML serialization reaches
/// `target_bytes` (within one resize step).
fn doc_of_size(rng: &mut SplitMix64, target_bytes: usize) -> (cxu::prelude::Tree, String) {
    use cxu::gen::trees::{random_tree, TreeParams};
    use cxu::tree::xml;
    let mut nodes = target_bytes / 16;
    for _ in 0..4 {
        let t = random_tree(
            rng,
            &TreeParams {
                nodes,
                alphabet: 6,
                ..TreeParams::default()
            },
        );
        let src = xml::to_xml(&t);
        let ratio = src.len() as f64 / target_bytes as f64;
        if (0.8..=1.25).contains(&ratio) {
            return (t, src);
        }
        nodes = ((nodes as f64 / ratio) as usize).max(16);
    }
    let t = random_tree(
        rng,
        &TreeParams {
            nodes,
            alphabet: 6,
            ..TreeParams::default()
        },
    );
    let src = xml::to_xml(&t);
    (t, src)
}

/// Document-grounded conflict checking: streaming ingestion throughput,
/// structural-index build time, and grounded-check latency against the
/// tree-walk witness baseline (Lemma 1 by replay), on ~1MB and ~8MB
/// synthetic documents. The grounded and tree-walk answers are compared
/// on every sample — a disagreement aborts the bench.
fn bench_index() {
    use cxu::gen::program::Stmt;
    use cxu::index::DocIndex;
    use cxu::ops::{witness, Read, Semantics, Update};
    use cxu::tree::xml;

    let seed = 0x1DE5_u64;
    let mut rng = SplitMix64::seed_from_u64(seed);

    // A pattern pool over the tree generator's label alphabet, mixing
    // linear (chain-path) and branching (table-path) reads.
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = 0.2;
    let program = random_program(
        &mut rng,
        &ProgramParams {
            len: 48,
            update_rate: 0.5,
            delete_rate: 0.4,
            pattern,
        },
    );
    let mut reads: Vec<Read> = Vec::new();
    let mut updates: Vec<Update> = Vec::new();
    for s in &program.stmts {
        match s {
            Stmt::Read(r) => reads.push(r.clone()),
            Stmt::Update(u) => updates.push(u.clone()),
        }
    }
    assert!(
        !reads.is_empty() && !updates.is_empty(),
        "seeded pool must contain both reads and updates"
    );
    let pairs: Vec<(usize, usize)> = (0..24)
        .map(|k| (k % reads.len(), k % updates.len()))
        .collect();
    let sem = Semantics::Node;

    let mut docs_json = String::new();
    // (target MB, grounded reps/pair, walk reps/pair, walk pair cap)
    for (di, &(mb, greps, wreps, wpairs)) in [(1usize, 8u32, 2u32, 24usize), (8, 4, 1, 8)]
        .iter()
        .enumerate()
    {
        let (tree, src) = doc_of_size(&mut rng, mb * 1024 * 1024);
        let bytes = src.len();

        // Streaming parse (tree only) and streaming ingest (tree-free
        // index build straight off the event reader).
        let parse_reps = if mb <= 1 { 3 } else { 2 };
        let t0 = Instant::now();
        for _ in 0..parse_reps {
            std::hint::black_box(xml::parse_stream(&src).expect("bench doc parses"));
        }
        let parse_s = t0.elapsed().as_secs_f64() / parse_reps as f64;
        let t0 = Instant::now();
        for _ in 0..parse_reps {
            std::hint::black_box(DocIndex::from_xml(&src).expect("bench doc indexes"));
        }
        let ingest_s = t0.elapsed().as_secs_f64() / parse_reps as f64;
        let mbf = bytes as f64 / (1024.0 * 1024.0);

        let t0 = Instant::now();
        let idx = DocIndex::from_tree(&tree);
        let build_us = t0.elapsed().as_micros();

        // Grounded checks: every sample individually timed, and every
        // verdict cross-checked against the witness walk.
        let mut grounded: Vec<u64> = Vec::new();
        let mut walk: Vec<u64> = Vec::new();
        for (k, &(ri, ui)) in pairs.iter().enumerate() {
            let mut g_verdict = false;
            for _ in 0..greps {
                let t0 = Instant::now();
                g_verdict = cxu::index::detect_grounded(&reads[ri], &updates[ui], &tree, &idx, sem);
                grounded.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            if k < wpairs {
                let mut w_verdict = false;
                for _ in 0..wreps {
                    let t0 = Instant::now();
                    w_verdict =
                        witness::witnesses_update_conflict(&reads[ri], &updates[ui], &tree, sem);
                    walk.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
                assert_eq!(
                    g_verdict, w_verdict,
                    "grounded check disagrees with the witness walk on pair {k}"
                );
            }
        }
        grounded.sort_unstable();
        walk.sort_unstable();
        let mean = |v: &[u64]| {
            if v.is_empty() {
                0
            } else {
                v.iter().sum::<u64>() / v.len() as u64
            }
        };

        if di > 0 {
            docs_json.push_str(",\n");
        }
        docs_json.push_str(&format!(
            "    {{\"target_mb\": {mb}, \"xml_bytes\": {bytes}, \"nodes\": {}, \
             \"postings\": {},\n     \
             \"parse_stream_mb_per_s\": {:.1}, \"ingest_index_mb_per_s\": {:.1}, \
             \"index_build_us\": {build_us}, \"index_bytes\": {},\n     \
             \"grounded_checks\": {}, \"treewalk_checks\": {},\n     \
             \"grounded_ns\": {{\"p50\": {}, \"p99\": {}, \"mean\": {}}},\n     \
             \"treewalk_ns\": {{\"p50\": {}, \"p99\": {}, \"mean\": {}}},\n     \
             \"speedup_p50\": {:.1}}}",
            idx.len(),
            idx.postings_len(),
            mbf / parse_s,
            mbf / ingest_s,
            idx.approx_bytes(),
            grounded.len(),
            walk.len(),
            pct(&grounded, 0.50),
            pct(&grounded, 0.99),
            mean(&grounded),
            pct(&walk, 0.50),
            pct(&walk, 0.99),
            mean(&walk),
            pct(&walk, 0.50) as f64 / pct(&grounded, 0.50).max(1) as f64,
        ));
    }
    println!(
        "{{\n  \"bench\": \"index\",\n  \"seed\": {seed},\n  \
         \"workload\": {{\"pairs\": {}, \"reads\": {}, \"updates\": {}, \
         \"pattern_nodes\": 4, \"alphabet\": 6, \"branch_rate\": 0.2, \
         \"semantics\": \"node\"}},\n  \
         \"docs\": [\n{docs_json}\n  ]\n}}",
        pairs.len(),
        reads.len(),
        updates.len()
    );
}
