//! `cxu-bench experiments` — regenerates every table in `EXPERIMENTS.md`
//! (E4a–E15) as markdown on stdout.
//!
//! Each section corresponds to an experiment id in `DESIGN.md` §5. The
//! paper is a theory paper — the "expected" column is the *shape* its
//! theorems predict (polynomial vs exponential, equal vs different), not
//! absolute numbers. The report is also a check: it exits nonzero if
//! Theorem 4's agreement (E5) is incomplete, a minimized witness (E6)
//! stops witnessing, or a hoist (E9) changes what a program observes.
//!
//! ```text
//! cargo run --release -p cxu-cli --bin cxu-bench -- experiments
//! ```
//!
//! Every instance is seeded ([`SplitMix64`]), so two runs measure the
//! same instances.

use crate::{median, median_ns};
use cxu::core::brute::{find_witness, Budget, SearchOutcome};
use cxu::core::{matching, reduction, update_update, witness_min};
use cxu::gen::patterns::{random_pattern, PatternParams};
use cxu::gen::program::{motion_candidates, observe, random_program, ProgramParams, Stmt};
use cxu::gen::rng::SplitMix64;
use cxu::gen::trees::{random_tree, TreeParams};
use cxu::pattern::{containment, embed, eval};
use cxu::prelude::*;
use cxu::tree::enumerate::count_trees;
use cxu::{detect, witness};
use std::time::Instant;

/// A deterministic linear pattern of exactly `n` nodes: labels cycle
/// through a small alphabet, every third edge is a descendant edge, every
/// fifth node a wildcard. Shapes are fixed so scaling curves measure size,
/// not shape noise.
fn sized_linear_pattern(n: usize, salt: u64) -> Pattern {
    let lbl = |i: usize| -> Option<Symbol> {
        if (i + salt as usize) % 5 == 4 {
            None
        } else {
            Some(Symbol::intern(&format!("s{}", (i + salt as usize) % 4)))
        }
    };
    let mut p = Pattern::new(lbl(0));
    let mut cur = p.root();
    for i in 1..n.max(1) {
        let axis = if (i + salt as usize) % 3 == 2 {
            Axis::Descendant
        } else {
            Axis::Child
        };
        cur = p.add_child(cur, axis, lbl(i));
    }
    p.set_output(cur);
    p
}

/// A read/insert pair of the given pattern size (both linear).
fn sized_insert_instance(n: usize) -> (Read, Insert) {
    let r = Read::new(sized_linear_pattern(n, 0));
    let x = cxu::tree::text::parse("s1(s2 s3)").unwrap();
    let i = Insert::new(sized_linear_pattern(n, 1), x);
    (r, i)
}

/// A read/delete pair of the given pattern size (both linear).
fn sized_delete_instance(n: usize) -> (Read, Delete) {
    let r = Read::new(sized_linear_pattern(n, 0));
    let d = Delete::new(sized_linear_pattern(n.max(2), 1))
        .expect("sized patterns of ≥2 nodes have non-root output");
    (r, d)
}

/// A read/insert pair of size `n` that is **guaranteed to conflict**:
/// the insert's pattern is the read's spine minus its last node, and `X`
/// is a model of that last node — the §1 situation at scale.
fn sized_conflicting_insert_instance(n: usize) -> (Read, Insert) {
    let read_pat = sized_linear_pattern(n.max(2), 0);
    let spine: Vec<_> = read_pat
        .path(read_pat.root(), read_pat.output())
        .expect("linear");
    let ins_pat = read_pat
        .seq(spine[0], spine[spine.len() - 2])
        .expect("prefix is a path");
    let x = read_pat
        .subpattern(*spine.last().expect("nonempty"))
        .model_fresh(&[]);
    (Read::new(read_pat), Insert::new(ins_pat, x))
}

/// A random document of `n` nodes over the same `s0..s3` alphabet the
/// sized patterns use, so evaluations actually match.
fn sized_document(n: usize, seed: u64) -> Tree {
    random_tree(
        &mut SplitMix64::seed_from_u64(seed),
        &TreeParams {
            nodes: n,
            labels: (0..4).map(|i| Symbol::intern(&format!("s{i}"))).collect(),
            deep_bias: 0.35,
            ..TreeParams::default()
        },
    )
}

/// A pattern with exactly `k` descendant edges and the rest child edges —
/// the scaling knob of the exact containment procedure (its canonical
/// model count is `(w+2)^k`).
fn pattern_with_desc_edges(total_nodes: usize, k: usize) -> Pattern {
    let mut p = Pattern::new(Some(Symbol::intern("c0")));
    let mut cur = p.root();
    for i in 1..total_nodes {
        let axis = if i <= k {
            Axis::Descendant
        } else {
            Axis::Child
        };
        cur = p.add_child(cur, axis, Some(Symbol::intern(&format!("c{}", i % 3))));
    }
    p.set_output(cur);
    p
}

fn parse(src: &str) -> Pattern {
    cxu::pattern::xpath::parse(src).unwrap()
}

fn term(src: &str) -> Tree {
    cxu::tree::text::parse(src).unwrap()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn e4a_linear_scaling() {
    println!("\n## E4a — PTIME detectors: time vs pattern size (Theorems 1–2)\n");
    println!("| |R| = |U| | read-insert | read-delete | growth |");
    println!("|---|---|---|---|");
    let mut prev: Option<f64> = None;
    for n in [8usize, 32, 128, 512, 2048] {
        let (ri, ii) = sized_insert_instance(n);
        let (rd, dd) = sized_delete_instance(n);
        let t_ins = median_ns(9, 1, || {
            detect::read_insert_conflict(&ri, &ii, Semantics::Node).unwrap()
        });
        let t_del = median_ns(9, 1, || {
            detect::read_delete_conflict(&rd, &dd, Semantics::Node).unwrap()
        });
        let growth = prev
            .map(|p| format!("×{:.1} for ×4 size", t_ins / p))
            .unwrap_or_else(|| "—".into());
        prev = Some(t_ins);
        println!("| {n} | {} | {} | {growth} |", fmt_ns(t_ins), fmt_ns(t_del));
    }
    println!("\nExpected shape: polynomial (the paper proves PTIME; ours is");
    println!("roughly quadratic in pattern size from the product pass).");
}

fn e4b_crossover() {
    println!("\n## E4b — exhaustive search vs the PTIME detector (§5 vs §4)\n");
    let r = Read::new(parse("s0[s1][s2]/s3"));
    let u = Update::Insert(Insert::new(parse("s0[s1]/s2"), term("s3")));
    println!("| witness bound (nodes) | candidate trees | search time |");
    println!("|---|---|---|");
    for max_nodes in 2..=6 {
        let alpha_len = cxu::core::brute::witness_alphabet(&r, &u).len();
        let cands = count_trees(alpha_len, max_nodes);
        let budget = Budget {
            max_nodes,
            max_trees: 100_000_000,
        };
        let t = median_ns(3, 1, || find_witness(&r, &u, Semantics::Node, budget));
        println!("| {max_nodes} | {cands} | {} |", fmt_ns(t));
    }
    let r_lin = Read::new(parse("s0/s2/s3"));
    let t_lin = median_ns(9, 1, || {
        detect::read_update_conflict(&r_lin, &u, Semantics::Node).unwrap()
    });
    println!("| linear read (PTIME path) | — | {} |", fmt_ns(t_lin));
    println!("\nExpected shape: exponential growth on the NP path, constant on");
    println!("the PTIME path — the crossover sits below 4-node witnesses.");
}

fn e5_reduction() {
    println!("\n## E5 — Theorems 4/6: conflict ⇔ non-containment, and exact-containment cost\n");
    // Agreement sweep.
    let mut agree = 0usize;
    let mut total = 0usize;
    let params = PatternParams {
        nodes: 3,
        alphabet: 2,
        branch_rate: 0.35,
        ..PatternParams::default()
    };
    for seed in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let p = random_pattern(&mut rng, &params);
        let q = random_pattern(&mut rng, &params);
        let Some(contained) = containment::contains_within(&p, &q, 1 << 12) else {
            continue;
        };
        let (r, i) = reduction::insert_instance(&p, &q);
        let conflict = if let Some(t_p) = containment::find_counterexample(&p, &q, 4) {
            let w = reduction::insert_witness_from_counterexample(&p, &q, &t_p);
            witness::witnesses_insert_conflict(&r, &i, &w, Semantics::Node)
        } else {
            let budget = Budget {
                max_nodes: 4,
                max_trees: 200_000,
            };
            matches!(
                find_witness(&r, &Update::Insert(i), Semantics::Node, budget),
                SearchOutcome::Conflict(_)
            )
        };
        total += 1;
        if conflict != contained {
            agree += 1;
        }
    }
    println!("Theorem 4 agreement on {total} random pairs: {agree}/{total} (expected: all)\n");
    assert_eq!(
        agree, total,
        "Theorem 4: conflict must equal non-containment"
    );

    // Cost of the exact decision procedure without the homomorphism
    // fast path: sweep every canonical model of p (Miklau–Suciu). With a
    // star-length-2 container, the count is (2+2)^k = 4^k.
    println!("| descendant edges k | canonical models | full model sweep | homomorphism |");
    println!("|---|---|---|---|");
    for k in 1..=6 {
        let p = pattern_with_desc_edges(8, k);
        // Container with star-length 2 ending in p's leaf label.
        let q = parse(&format!("c0//*/*/c{}", 7 % 3));
        let w = q.star_length();
        let models = containment::canonical_models(&p, w, &q.alphabet()).total();
        let t_exact = median_ns(3, 1, || {
            containment::canonical_models(&p, w, &q.alphabet()).all(|m| eval::matches(&q, &m))
        });
        let t_hom = median_ns(9, 1, || containment::homomorphism(&p, &q));
        println!(
            "| {k} | {models} | {} | {} |",
            fmt_ns(t_exact),
            fmt_ns(t_hom)
        );
    }
    println!("\nExpected shape: sweep cost ∝ (w+2)^k; homomorphism flat (PTIME but incomplete).");
}

fn e6_witness_minimization() {
    println!("\n## E6 — witness minimization (Lemmas 9–11)\n");
    println!("| case | bloated witness | minimized | Lemma 11 bound |");
    println!("|---|---|---|---|");
    let del = |d: &str| Update::Delete(Delete::new(parse(d)).unwrap());
    let ins = |i: &str, x: &str| Update::Insert(Insert::new(parse(i), term(x)));
    let cases = [
        ("insert §1", "x//C", ins("x/B", "C"), "x(B)"),
        ("delete fig5", "a//v", del("a/b"), "a(b(v))"),
        ("star-chain", "a/*/*/v", del("a//b"), "a(b(m(v)))"),
    ];
    let noise = term("n0(n1(n2) n3(n4 n5))");
    for (name, r, u, w) in cases {
        let r = Read::new(parse(r));
        let seed_witness = term(w);
        // Bloat the witness with noise at every node.
        let mut big = seed_witness.clone();
        for n in seed_witness.nodes() {
            big.graft(n, &noise);
            big.graft(n, &noise);
        }
        big.clear_mods();
        let small = witness_min::minimize(&r, &u, &big, Semantics::Node).expect("witness");
        let bound = cxu::core::brute::lemma11_bound(&r, &u);
        println!(
            "| {name} | {} nodes | {} nodes | {bound} |",
            big.live_count(),
            small.live_count()
        );
        assert!(witness::witnesses_update_conflict(
            &r,
            &u,
            &small,
            Semantics::Node
        ));
    }
    println!("\nExpected shape: minimized sizes far below |R|·|U|·(k+1).");
}

fn e7_witness_check() {
    println!("\n## E7 — Lemma 1: witness checking vs document size\n");
    let r = Read::new(parse("s0//s1"));
    let u = Update::Insert(Insert::new(parse("s0/s2"), term("s1")));
    println!("| |t| | node | tree | value |");
    println!("|---|---|---|---|");
    for n in [100usize, 1_000, 10_000] {
        let t = sized_document(n, 3);
        let row: Vec<String> = Semantics::ALL
            .iter()
            .map(|&sem| {
                fmt_ns(median_ns(5, 1, || {
                    witness::witnesses_update_conflict(&r, &u, &t, sem)
                }))
            })
            .collect();
        println!("| {n} | {} | {} | {} |", row[0], row[1], row[2]);
    }
    println!("\nExpected shape: near-linear in |t| for all three semantics.");
}

fn e8_eval() {
    println!("\n## E8 — evaluation engines (Core XPath claim, [7])\n");
    // A wildcard chain has Θ(n·depth²)-many embeddings on deep documents:
    // the naive enumerator materializes all of them, the two-pass engine
    // only the candidate sets.
    let p = parse("*//*//*//*");
    println!("| |t| | two-pass | naive enumeration | embeddings |");
    println!("|---|---|---|---|");
    for n in [50usize, 100, 200, 400] {
        let t = random_tree(
            &mut SplitMix64::seed_from_u64(42),
            &TreeParams {
                nodes: n,
                alphabet: 3,
                deep_bias: 0.8,
                ..TreeParams::default()
            },
        );
        let t_fast = median_ns(5, 1, || eval::eval(&p, &t));
        let (t_naive, count) = if n <= 200 {
            let count = embed::enumerate(&p, &t, usize::MAX).len();
            let ns = median_ns(3, 1, || embed::eval_naive(&p, &t));
            (fmt_ns(ns), count.to_string())
        } else {
            ("(skipped)".into(), "—".into())
        };
        println!("| {n} | {} | {t_naive} | {count} |", fmt_ns(t_fast));
    }
    println!("\nExpected shape: two-pass stays near-linear; naive grows with the");
    println!("embedding count (superlinear on deep documents).");
}

fn e9_optimizer() {
    println!("\n## E9 — §1 compiler scenario: provably reorderable pairs\n");
    println!("| semantics | pairs | independent | share |");
    println!("|---|---|---|---|");
    for sem in [Semantics::Node, Semantics::Tree] {
        let mut total = 0usize;
        let mut indep = 0usize;
        for seed in 0..50u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let prog = random_program(&mut rng, &ProgramParams::default());
            for (ui, ri) in motion_candidates(&prog) {
                let Stmt::Update(u) = &prog.stmts[ui] else {
                    unreachable!()
                };
                let Stmt::Read(r) = &prog.stmts[ri] else {
                    unreachable!()
                };
                total += 1;
                if detect::independent(r, u, sem).unwrap() {
                    indep += 1;
                }
            }
        }
        println!(
            "| {sem:?} | {total} | {indep} | {:.0}% |",
            100.0 * indep as f64 / total as f64
        );
    }
    // Observational spot check (tree semantics, adjacent pairs).
    let mut verified = 0usize;
    for seed in 0..10u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let prog = random_program(&mut rng, &ProgramParams::default());
        let doc = random_tree(
            &mut SplitMix64::seed_from_u64(seed ^ 0xabc),
            &TreeParams {
                nodes: 60,
                alphabet: 3,
                ..TreeParams::default()
            },
        );
        for (ui, ri) in motion_candidates(&prog) {
            if ri != ui + 1 {
                continue;
            }
            let Stmt::Update(u) = &prog.stmts[ui] else {
                unreachable!()
            };
            let Stmt::Read(r) = &prog.stmts[ri] else {
                unreachable!()
            };
            if detect::independent(r, u, Semantics::Tree).unwrap() {
                let mut stmts = prog.stmts.clone();
                stmts.swap(ui, ri);
                let swapped = cxu::gen::program::Program { stmts };
                assert_eq!(observe(&prog, &doc), observe(&swapped, &doc));
                verified += 1;
            }
        }
    }
    println!("\nObservational verification of hoists: {verified} pairs, all identical.");
    println!("Expected shape: node semantics admits more reorderings than tree");
    println!("semantics (node conflicts ⊆ tree conflicts).");
}

fn e10_update_update() {
    println!("\n## E10 — §6 update-update commutativity (value semantics)\n");
    let ins = |i: &str, x: &str| Update::Insert(Insert::new(parse(i), term(x)));
    let del = |d: &str| Update::Delete(Delete::new(parse(d)).unwrap());
    let cases = [
        ("identical inserts", ins("a/b", "x"), ins("a/b", "x")),
        ("insert enables insert", ins("a/b", "c"), ins("a/b/c", "q")),
        ("delete vs insert inside", del("a/b/x"), ins("a/b", "x")),
        ("disjoint", ins("a/b", "x"), del("a/c")),
    ];
    println!("| pair | outcome (bound 5 nodes) |");
    println!("|---|---|");
    for (name, u1, u2) in cases {
        let verdict = match update_update::find_noncommuting_witness(&u1, &u2, Default::default()) {
            update_update::Outcome::Conflict(w) => {
                format!("conflict (witness {} nodes)", w.live_count())
            }
            update_update::Outcome::NoConflictWithin(n) => format!("commute (≤ {n} nodes)"),
            update_update::Outcome::BudgetExceeded(_) => "undecided".into(),
            update_update::Outcome::DeadlineExceeded => "timed out".into(),
        };
        println!("| {name} | {verdict} |");
    }
    println!("\nExpected: identical inserts commute (§6's requirement); enabling");
    println!("and delete-inside pairs conflict; disjoint pairs commute.");
}

fn e10b_matcher_ablation() {
    println!("\n## E10b — matching ablation: all-prefixes DP vs per-edge NFA\n");
    println!("| |R| | prefix DP | per-edge NFA |");
    println!("|---|---|---|");
    for n in [8usize, 32, 128, 512] {
        let u = sized_linear_pattern(n, 1);
        let r = sized_linear_pattern(n, 0);
        let t_dp = median_ns(5, 1, || {
            let pm = matching::PrefixMatcher::new(&u, &r);
            pm.weak(pm.read_len())
        });
        let t_nfa = median_ns(3, 1, || {
            let k = matching::spine_nodes(&r).len();
            for j in 1..=k {
                let prefix = matching::read_prefix(&r, j);
                std::hint::black_box(matching::match_weak(&u, &prefix));
            }
        });
        println!("| {n} | {} | {} |", fmt_ns(t_dp), fmt_ns(t_nfa));
    }
    println!("\nExpected shape: DP ~one pass (quadratic total); per-edge ~cubic.");
}

fn e11_schema() {
    println!("\n## E11 — §6 schema-aware refinement\n");
    use cxu::schema::{ChildSpec, Dtd, SchemaSearchOutcome};
    let dtd = Dtd::new("inventory")
        .element("inventory", vec![ChildSpec::star("book")])
        .element(
            "book",
            vec![
                ChildSpec::one("title"),
                ChildSpec::optional("quantity"),
                ChildSpec::optional("restock"),
            ],
        );
    let cases = [
        (
            "read inv//restock vs insert under book/promo",
            "inventory//restock",
            "inventory/book/promo",
        ),
        (
            "read inv//restock vs insert under book",
            "inventory//restock",
            "inventory/book",
        ),
    ];
    println!("| pair | over all trees | over conforming trees |");
    println!("|---|---|---|");
    for (name, r_src, i_src) in cases {
        let r = Read::new(parse(r_src));
        let u = Update::Insert(Insert::new(parse(i_src), term("restock")));
        let unconstrained = detect::read_update_conflict(&r, &u, Semantics::Node).unwrap();
        let constrained =
            match cxu::schema::find_witness_conforming(&r, &u, Semantics::Node, &dtd, 7, 200_000) {
                SchemaSearchOutcome::Conflict(_) => "conflict",
                SchemaSearchOutcome::NoConflictWithin(_) => "independent",
                SchemaSearchOutcome::BudgetExceeded => "undecided",
                SchemaSearchOutcome::DeadlineExceeded => "timed out",
            };
        println!(
            "| {name} | {} | {constrained} |",
            if unconstrained {
                "conflict"
            } else {
                "independent"
            }
        );
    }
    println!("\nExpected: the schema kills the <promo> conflict, keeps the real one.");
}

fn e12_construct() {
    println!("\n## E12 — constructive witnesses (Lemmas 3/6, If-directions)\n");
    use cxu::core::construct;
    println!("| |R| = |U| | detect | construct + verify | witness size |");
    println!("|---|---|---|---|");
    for n in [8usize, 32, 128, 512] {
        let (r, i) = sized_conflicting_insert_instance(n);
        let t_detect = median_ns(9, 1, || {
            detect::read_insert_conflict(&r, &i, Semantics::Node).unwrap()
        });
        let mut size = String::from("—");
        let t_construct = median_ns(5, 1, || {
            if let Some(w) = construct::construct_insert_witness(&r, &i) {
                size = w.live_count().to_string();
            }
        });
        println!(
            "| {n} | {} | {} | {size} |",
            fmt_ns(t_detect),
            fmt_ns(t_construct)
        );
    }
    println!("\nExpected shape: construction stays polynomial; every returned");
    println!("witness is re-verified with the Lemma 1 checker before return.");
}

fn e13_minimization() {
    println!("\n## E13 — pattern minimization as preprocessing (baseline [2])\n");
    use cxu::pattern::minimize::minimize;
    // Random patterns with deliberately duplicated branches.
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    let cases = 40usize;
    let params = PatternParams {
        nodes: 4,
        alphabet: 2,
        branch_rate: 0.5,
        wildcard_rate: 0.1,
        ..PatternParams::default()
    };
    for seed in 0..cases as u64 {
        let mut p = random_pattern(&mut SplitMix64::seed_from_u64(seed), &params);
        // Duplicate one branch to inject redundancy.
        let spine = p.path(p.root(), p.output()).unwrap();
        let branch = p.node_ids().find(|n| !spine.contains(n));
        if let Some(b) = branch {
            let sub = p.subpattern(b);
            let (parent, axis) = p.parent(b).unwrap();
            p.graft(parent, axis, &sub);
        }
        let m = minimize(&p, 1 << 14);
        total_before += p.len();
        total_after += m.len();
    }
    println!("| metric | value |");
    println!("|---|---|");
    println!("| patterns | {cases} (random, one branch duplicated) |");
    println!(
        "| mean size before → after | {:.1} → {:.1} nodes |",
        total_before as f64 / cases as f64,
        total_after as f64 / cases as f64
    );
    // Effect on the NP-side search: Lemma 11 bound shrinks with |U|.
    let r = Read::new(parse("s0[s1][s2]/s3"));
    let fat = parse("s0[s1][s1][s1[.//s1]]/s2");
    let slim = minimize(&fat, 1 << 14);
    let mk = |pat: &Pattern| Update::Insert(Insert::new(pat.clone(), term("s3")));
    println!(
        "| Lemma 11 bound, redundant update | {} |",
        cxu::core::brute::lemma11_bound(&r, &mk(&fat))
    );
    println!(
        "| Lemma 11 bound, minimized update ({} → {} nodes) | {} |",
        fat.len(),
        slim.len(),
        cxu::core::brute::lemma11_bound(&r, &mk(&slim))
    );
    println!("\nExpected shape: injected redundancy removed; smaller update");
    println!("patterns shrink the exhaustive-search bound proportionally.");
}

fn e14_incremental() {
    println!("\n## E14 — incremental read maintenance vs full re-evaluation\n");
    use cxu::core::incremental::IncrementalRead;
    println!("| |t| | insertion points | full re-eval | incremental maintenance |");
    println!("|---|---|---|---|");
    for n in [1_000usize, 10_000, 100_000] {
        let base = sized_document(n, 21);
        let read = Read::new(parse("s0//s1/s2"));
        let ins = Insert::new(parse("s0/s1"), term("s2"));
        // Full path: evaluate from scratch on the updated document.
        let mut updated = base.clone();
        ins.apply(&mut updated);
        let t_full = median_ns(5, 1, || read.eval(&updated).len());
        // Incremental path: the update is applied either way (finding its
        // points is the update's own cost); time only the maintenance of
        // the cached read result.
        let mut points = 0;
        let t_maintain = median(
            (0..5)
                .map(|_| {
                    let mut t = base.clone();
                    let mut inc = IncrementalRead::new(read.clone(), &t).unwrap();
                    let pairs = ins.apply_indexed(&mut t);
                    points = pairs.len();
                    let t0 = Instant::now();
                    inc.note_insert(&t, &pairs);
                    let ns = t0.elapsed().as_nanos() as f64;
                    std::hint::black_box(inc.result().len());
                    ns
                })
                .collect(),
        );
        println!(
            "| {n} | {points} | {} | {} |",
            fmt_ns(t_full),
            fmt_ns(t_maintain)
        );
    }
    println!("\nExpected shape: full re-evaluation grows with |t|; incremental");
    println!("maintenance is proportional to the update (paths + copies), not |t|.");
}

fn e15_program_analysis() {
    println!("\n## E15 — whole-program analysis (§1 compiler, assembled)\n");
    use cxu::gen::analysis::{conflict_matrix, cse_pairs, eliminate_common_reads, hoistable};
    let mut pairs = 0usize;
    let mut indep = 0usize;
    let mut hoists = 0usize;
    let mut cse = 0usize;
    let mut eliminated = 0usize;
    let programs = 60usize;
    for seed in 0..programs as u64 {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xe15);
        let prog = random_program(&mut rng, &ProgramParams::default());
        let m = conflict_matrix(&prog, Semantics::Tree);
        pairs += m.len();
        indep += m.iter().filter(|v| v.independent).count();
        hoists += hoistable(&prog).len();
        cse += cse_pairs(&prog).len();
        eliminated += eliminate_common_reads(&prog).1;
    }
    println!("| metric (over {programs} random 10-stmt programs) | value |");
    println!("|---|---|");
    println!("| update→read pairs | {pairs} |");
    println!(
        "| provably independent (tree semantics) | {indep} ({:.0}%) |",
        100.0 * indep as f64 / pairs.max(1) as f64
    );
    println!("| hoistable reads (adjacent) | {hoists} |");
    println!("| CSE-reusable read pairs | {cse} |");
    println!("| reads eliminated by CSE | {eliminated} |");
    println!("\nExpected shape: a useful fraction of real programs is provably");
    println!("reorderable/reusable — the paper's motivation quantified.");
}

/// Prints the whole report; panics (a nonzero exit) on a failed check.
pub fn run() {
    println!("# Conflicting XML Updates — experiment report");
    println!("\n(Each section regenerates one table of EXPERIMENTS.md; shapes,");
    println!("not absolute numbers, are the reproduction target.)");
    e4a_linear_scaling();
    e4b_crossover();
    e5_reduction();
    e6_witness_minimization();
    e7_witness_check();
    e8_eval();
    e9_optimizer();
    e10_update_update();
    e10b_matcher_ablation();
    e12_construct();
    e13_minimization();
    e14_incremental();
    e15_program_analysis();
    e11_schema();
    println!("\nDone.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_patterns_have_exact_size() {
        for n in [1, 2, 10, 100] {
            assert_eq!(sized_linear_pattern(n, 0).len(), n);
            assert!(sized_linear_pattern(n, 0).is_linear());
        }
    }

    #[test]
    fn instances_wellformed() {
        let (r, i) = sized_insert_instance(12);
        assert!(r.pattern().is_linear());
        assert_eq!(i.pattern().len(), 12);
        let (_, d) = sized_delete_instance(12);
        assert_ne!(d.pattern().output(), d.pattern().root());
    }

    #[test]
    fn conflicting_instance_conflicts() {
        for n in [2usize, 8, 33] {
            let (r, i) = sized_conflicting_insert_instance(n);
            assert!(
                detect::read_insert_conflict(&r, &i, Semantics::Node).unwrap(),
                "size {n}"
            );
        }
    }

    #[test]
    fn desc_edge_count() {
        let p = pattern_with_desc_edges(8, 3);
        let descs = p
            .node_ids()
            .filter(|&n| p.axis(n) == Some(Axis::Descendant))
            .count();
        assert_eq!(descs, 3);
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn documents_match_pattern_alphabet() {
        let t = sized_document(100, 1);
        let labels: Vec<&str> = t.alphabet().iter().map(|s| s.as_str()).collect();
        assert!(labels.iter().all(|l| l.starts_with('s')));
    }
}
