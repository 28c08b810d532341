//! The NP side (§5, experiment E5/E4): hardness reductions and the cost
//! of exact detection for branching patterns.
//!
//! 1. Builds Theorem 4/6 instances from pattern pairs with known
//!    containment status and shows conflict ⇔ non-containment.
//! 2. Shows the exponential growth of exhaustive witness search as the
//!    witness size bound increases — the practical content of
//!    NP-completeness — against the constant-time answer of the PTIME
//!    detector on a comparable linear instance.
//!
//! Run with: `cargo run --example np_hardness` (use `--release` for the
//! timing section to be meaningful).

use cxu::core::brute::{find_witness, Budget, SearchOutcome};
use cxu::core::reduction;
use cxu::detect;
use cxu::pattern::containment;
use cxu::prelude::*;
use std::time::Instant;

fn main() {
    let parse = |s: &str| cxu::pattern::xpath::parse(s).expect("pattern parses");

    println!("== §5: conflict detection is NP-complete for P^{{//,[],*}} ==\n");
    println!("-- Theorem 4: read-insert conflict ⇔ p ⊄ p' --\n");

    let pairs = [
        ("a/b", "a//b"),
        ("a//b", "a/b"),
        ("a[b][c]", "a[b]"),
        ("a[b]", "a[b][c]"),
        ("a/*/b", "a//b"),
        ("a//b", "a/*/b"),
    ];

    for (p_src, q_src) in pairs {
        let p = parse(p_src);
        let q = parse(q_src);
        let contained = containment::contains(&p, &q);
        let (r, i) = reduction::insert_instance(&p, &q);
        // Decide the conflict: if p ⊄ p', Theorem 4's proof constructs a
        // witness (Figure 7d) from a containment counterexample — verify
        // it with the Lemma 1 checker. If p ⊆ p', no small witness may
        // exist — confirm by bounded search.
        let conflict = match containment::find_counterexample(&p, &q, 4) {
            Some(t_p) => {
                let w = reduction::insert_witness_from_counterexample(&p, &q, &t_p);
                assert!(
                    cxu::witness::witnesses_insert_conflict(&r, &i, &w, Semantics::Node),
                    "constructed witness must work for {p_src} vs {q_src}"
                );
                true
            }
            None => {
                let out = find_witness(
                    &r,
                    &Update::Insert(i),
                    Semantics::Node,
                    Budget {
                        max_nodes: 4,
                        max_trees: 5_000_000,
                    },
                );
                matches!(out, SearchOutcome::Conflict(_))
            }
        };
        println!(
            "  {p_src:<8} ⊆ {q_src:<8} ? {:<5} | reduced instance conflicts? {:<5} ✓",
            contained, conflict
        );
        assert_ne!(
            contained, conflict,
            "Theorem 4 violated for {p_src} vs {q_src}"
        );
    }

    println!("\n-- exhaustive search cost vs witness size bound --\n");
    // A branching read forces the NP path; the search space explodes in
    // the size bound.
    let r = Read::new(parse("a[b][c]/d"));
    let u = Update::Insert(Insert::new(
        parse("a[b]/c"),
        cxu::tree::text::parse("d").unwrap(),
    ));
    println!("  read a[b][c]/d  vs  insert a[b]/c, <d/>");
    for max_nodes in 2..=6 {
        let t0 = Instant::now();
        let out = find_witness(
            &r,
            &u,
            Semantics::Node,
            Budget {
                max_nodes,
                max_trees: 50_000_000,
            },
        );
        let dt = t0.elapsed();
        let verdict = match &out {
            SearchOutcome::Conflict(w) => format!("witness of {} nodes", w.live_count()),
            SearchOutcome::NoConflictWithin(_) => "no witness".into(),
            SearchOutcome::BudgetExceeded(_) => "budget exceeded".into(),
            SearchOutcome::DeadlineExceeded => "deadline exceeded".into(),
        };
        println!("    bound {max_nodes} nodes: {verdict:<24} in {dt:?}");
        if matches!(out, SearchOutcome::Conflict(_)) {
            break;
        }
    }

    // The same question with a *linear* read answers instantly (§4).
    let r_lin = Read::new(parse("a/c/d"));
    let t0 = Instant::now();
    let ans = detect::read_update_conflict(&r_lin, &u, Semantics::Node).unwrap();
    println!(
        "\n  linear read a/c/d vs the same insert: {} in {:?} (PTIME, Theorem 2)",
        if ans { "conflict" } else { "independent" },
        t0.elapsed()
    );
}
