//! The NP-side searches visit candidates as they are built instead of
//! building the whole space first. This suite checks that the change is
//! invisible: on seeded pairs, `brute::find_witness` and
//! `update_update::find_noncommuting_witness` return the same outcome
//! and the same witness as a scan over the fully built candidate list
//! (`enumerate_trees`), which is how both searches used to work.

use cxu::core::brute::{self, lemma11_bound, witness_alphabet, Budget, SearchOutcome};
use cxu::core::update_update::{self, commute_on, Budget as UuBudget, Outcome};
use cxu::gen::patterns::{random_delete_pattern, random_pattern, PatternParams};
use cxu::gen::rng::{Rng, SplitMix64};
use cxu::prelude::*;
use cxu::tree::enumerate::{count_trees_capped, enumerate_trees};
use cxu::tree::text;
use cxu::witness::witnesses_update_conflict;

/// The served scheduler's candidate budget (`np_max_trees`).
const MAX_TREES: u128 = 5_000;

/// A pair of the benchmark's check-cold NP shape: a three-node branching
/// read over one label, against a two-node linear insert (of that label)
/// or delete.
fn np_pair(r: &mut SplitMix64) -> (Read, Update) {
    let a = Symbol::intern(&format!("n{}", r.gen_range(0..8)));
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
        Update::Delete(Delete::new(random_delete_pattern(r, &upd)).expect("output below the root"))
    } else {
        Update::Insert(Insert::new(random_pattern(r, &upd), Tree::new(a)))
    };
    (Read::new(read), update)
}

/// A small update over two labels: an insert of a one-node subtree or a
/// delete, with a two-node pattern.
fn small_update(r: &mut SplitMix64) -> Update {
    let params = PatternParams {
        nodes: 2,
        alphabet: 2,
        wildcard_rate: 0.2,
        descendant_rate: 0.3,
        branch_rate: 0.0,
        ..PatternParams::default()
    };
    if r.gen_bool(0.4) {
        Update::Delete(
            Delete::new(random_delete_pattern(r, &params)).expect("output below the root"),
        )
    } else {
        let x = Tree::new(Symbol::intern(&format!("l{}", r.gen_range(0..2))));
        Update::Insert(Insert::new(random_pattern(r, &params), x))
    }
}

/// How `brute::find_witness` searched before it streamed: build every
/// candidate, then check them in order.
fn scan_witness(r: &Read, u: &Update, sem: Semantics, budget: Budget) -> SearchOutcome {
    let alpha = witness_alphabet(r, u);
    let n = count_trees_capped(alpha.len(), budget.max_nodes, budget.max_trees);
    if n > budget.max_trees {
        return SearchOutcome::BudgetExceeded(n);
    }
    enumerate_trees(&alpha, budget.max_nodes)
        .into_iter()
        .find(|t| witnesses_update_conflict(r, u, t, sem))
        .map_or(
            SearchOutcome::NoConflictWithin(budget.max_nodes),
            SearchOutcome::Conflict,
        )
}

/// How `update_update::find_noncommuting_witness` searched before it
/// streamed. The alphabet is rebuilt the way the module builds it.
fn scan_noncommuting(u1: &Update, u2: &Update, budget: UuBudget) -> Outcome {
    let mut alpha = u1.pattern().alphabet();
    alpha.extend(u2.pattern().alphabet());
    for u in [u1, u2] {
        if let Update::Insert(i) = u {
            alpha.extend(i.subtree().alphabet());
        }
    }
    alpha.sort_unstable();
    alpha.dedup();
    alpha.push(Symbol::fresh("alpha", &alpha));
    let n = count_trees_capped(alpha.len(), budget.max_nodes, budget.max_trees);
    if n > budget.max_trees {
        return Outcome::BudgetExceeded(n);
    }
    enumerate_trees(&alpha, budget.max_nodes)
        .into_iter()
        .find(|t| !commute_on(u1, u2, t))
        .map_or(
            Outcome::NoConflictWithin(budget.max_nodes),
            Outcome::Conflict,
        )
}

fn show(out: &SearchOutcome) -> String {
    match out {
        SearchOutcome::Conflict(t) => format!("conflict {}", text::to_text(t)),
        other => format!("{other:?}"),
    }
}

fn show_uu(out: &Outcome) -> String {
    match out {
        Outcome::Conflict(t) => format!("conflict {}", text::to_text(t)),
        other => format!("{other:?}"),
    }
}

#[test]
fn read_update_search_matches_the_full_scan() {
    let mut rng = SplitMix64::seed_from_u64(0x5EA2C4);
    let mut conflicts = 0;
    for i in 0..200 {
        let (r, u) = np_pair(&mut rng);
        let budget = Budget {
            max_nodes: lemma11_bound(&r, &u),
            max_trees: MAX_TREES,
        };
        for sem in Semantics::ALL {
            let got = brute::find_witness(&r, &u, sem, budget);
            let want = scan_witness(&r, &u, sem, budget);
            assert_eq!(show(&got), show(&want), "pair {i} under {sem:?}");
            conflicts += usize::from(matches!(got, SearchOutcome::Conflict(_)));
        }
    }
    // Both outcomes occur (558 conflicts when written), so the comparison
    // covers early exits and exhaustive scans.
    assert!(
        (1..600).contains(&conflicts),
        "{conflicts} conflicts of 600"
    );
}

#[test]
fn update_update_search_matches_the_full_scan() {
    let mut rng = SplitMix64::seed_from_u64(0x0D0D);
    let budget = UuBudget {
        max_nodes: 4,
        max_trees: MAX_TREES,
    };
    let mut conflicts = 0;
    for i in 0..200 {
        let (u1, u2) = (small_update(&mut rng), small_update(&mut rng));
        let got = update_update::find_noncommuting_witness(&u1, &u2, budget);
        let want = scan_noncommuting(&u1, &u2, budget);
        assert_eq!(show_uu(&got), show_uu(&want), "pair {i}: {u1:?} / {u2:?}");
        conflicts += usize::from(matches!(got, Outcome::Conflict(_)));
    }
    assert!(
        (1..200).contains(&conflicts),
        "{conflicts} conflicts of 200"
    );
}
