//! Update-update conflicts (§6, "Complex Updates") — an extension.
//!
//! The paper defines (informally) that two updates `o₁, o₂` conflict if
//! some tree `t` has `o₁(o₂(t)) ≠ o₂(o₁(t))`, observes that
//! reference-based semantics are awkward here (the two orders insert
//! *different clones* of `X`, so node equality is meaningless), and
//! settles on **value-based** comparison: the results must be isomorphic.
//! It conjectures NP-completeness via the same reduction machinery.
//!
//! This module implements the witness check (`commute_on`) and a bounded
//! exhaustive search (`find_noncommuting_witness`), mirroring
//! [`crate::brute`]. The §6 observation that identical insertions ought
//! not to conflict falls out of the isomorphism comparison for free.

use cxu_ops::Update;
use cxu_runtime::{failpoints, Deadline};
use cxu_tree::enumerate::{count_trees_capped, visit_trees};
use cxu_tree::{iso, Symbol, Tree};
use std::ops::ControlFlow;

/// Do `u1` and `u2` commute on `t` up to isomorphism —
/// `u₁(u₂(t)) ≅ u₂(u₁(t))`?
pub fn commute_on(u1: &Update, u2: &Update, t: &Tree) -> bool {
    let mut t12 = t.clone();
    u2.apply(&mut t12);
    u1.apply(&mut t12);
    let mut t21 = t.clone();
    u1.apply(&mut t21);
    u2.apply(&mut t21);
    iso::isomorphic(&t12, &t21)
}

/// Budget for the exhaustive non-commutativity search.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum witness size (nodes).
    pub max_nodes: usize,
    /// Abort beyond this many candidates.
    pub max_trees: u128,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_nodes: 5,
            max_trees: 2_000_000,
        }
    }
}

/// Result of the bounded search.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A tree on which the two orders produce non-isomorphic results.
    Conflict(Tree),
    /// No witness within the size bound.
    NoConflictWithin(usize),
    /// Candidate count exceeded the budget. The count stops once it
    /// passes the budget, so the payload is only a value above it.
    BudgetExceeded(u128),
    /// The deadline expired (or the cancel token fired) mid-search.
    DeadlineExceeded,
}

/// The joint alphabet: both patterns, both inserted trees, one fresh.
fn alphabet(u1: &Update, u2: &Update) -> Vec<Symbol> {
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
    alpha
}

/// Searches for a tree on which `u1` and `u2` fail to commute.
pub fn find_noncommuting_witness(u1: &Update, u2: &Update, budget: Budget) -> Outcome {
    find_noncommuting_witness_deadline(u1, u2, budget, &Deadline::never())
}

/// [`find_noncommuting_witness`] with a cooperative deadline, polled
/// once per candidate tree.
pub fn find_noncommuting_witness_deadline(
    u1: &Update,
    u2: &Update,
    budget: Budget,
    deadline: &Deadline,
) -> Outcome {
    let t0 = std::time::Instant::now();
    let out = find_noncommuting_witness_inner(u1, u2, budget, deadline);
    cxu_obs::counter!("core.uu_search.searches").inc();
    cxu_obs::histogram!("core.uu_search.ns").record_since(t0);
    let outcome = match &out {
        Outcome::Conflict(_) => {
            cxu_obs::counter!("core.uu_search.conflict").inc();
            "conflict"
        }
        Outcome::NoConflictWithin(_) => {
            cxu_obs::counter!("core.uu_search.no_conflict").inc();
            "no-conflict"
        }
        Outcome::BudgetExceeded(_) => {
            cxu_obs::counter!("core.uu_search.budget").inc();
            "budget"
        }
        Outcome::DeadlineExceeded => {
            cxu_obs::counter!("core.uu_search.deadline").inc();
            "deadline"
        }
    };
    if cxu_obs::trace::enabled() {
        cxu_obs::trace::event("core.uu_search", &[("outcome", outcome.into())]);
    }
    out
}

fn find_noncommuting_witness_inner(
    u1: &Update,
    u2: &Update,
    budget: Budget,
    deadline: &Deadline,
) -> Outcome {
    let alpha = alphabet(u1, u2);
    let n = count_trees_capped(alpha.len(), budget.max_nodes, budget.max_trees);
    if n > budget.max_trees || failpoints::fire("uu::search") {
        return Outcome::BudgetExceeded(n);
    }
    visit_trees(&alpha, budget.max_nodes, |t| {
        if deadline.poll() {
            ControlFlow::Break(Outcome::DeadlineExceeded)
        } else if !commute_on(u1, u2, t) {
            ControlFlow::Break(Outcome::Conflict(t.clone()))
        } else {
            ControlFlow::Continue(())
        }
    })
    .unwrap_or(Outcome::NoConflictWithin(budget.max_nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_ops::{Delete, Insert};
    use cxu_pattern::xpath::parse;
    use cxu_tree::text;

    fn ins(p: &str, x: &str) -> Update {
        Update::Insert(Insert::new(parse(p).unwrap(), text::parse(x).unwrap()))
    }

    fn del(p: &str) -> Update {
        Update::Delete(Delete::new(parse(p).unwrap()).unwrap())
    }

    #[test]
    fn identical_inserts_commute() {
        // §6: two identical insertions must not conflict under value
        // semantics.
        let u = ins("a/b", "x");
        let t = text::parse("a(b b)").unwrap();
        assert!(commute_on(&u, &u, &t));
        assert!(matches!(
            find_noncommuting_witness(&u, &u, Budget::default()),
            Outcome::NoConflictWithin(_)
        ));
    }

    #[test]
    fn insert_enables_insert() {
        // u1 inserts c under a/b; u2 inserts q under a/b/c: order matters
        // (u2 first finds no c).
        let u1 = ins("a/b", "c");
        let u2 = ins("a/b/c", "q");
        let t = text::parse("a(b)").unwrap();
        assert!(!commute_on(&u1, &u2, &t));
        assert!(matches!(
            find_noncommuting_witness(&u1, &u2, Budget::default()),
            Outcome::Conflict(_)
        ));
    }

    #[test]
    fn delete_insert_commute_when_delete_subsumes() {
        // Deleting a/b vs inserting under a/b: whichever order runs, the
        // whole b subtree (fresh x included) is gone — they commute.
        let u1 = del("a/b");
        let u2 = ins("a/b", "x");
        let t = text::parse("a(b)").unwrap();
        assert!(commute_on(&u1, &u2, &t));
        assert!(matches!(
            find_noncommuting_witness(&u1, &u2, Budget::default()),
            Outcome::NoConflictWithin(_)
        ));
    }

    #[test]
    fn delete_insert_conflict_inside_target() {
        // u1 deletes a/b/x; u2 inserts x under a/b. Insert-then-delete
        // strips the fresh x; delete-then-insert leaves it.
        let u1 = del("a/b/x");
        let u2 = ins("a/b", "x");
        let t = text::parse("a(b)").unwrap();
        assert!(!commute_on(&u1, &u2, &t));
        assert!(matches!(
            find_noncommuting_witness(&u1, &u2, Budget::default()),
            Outcome::Conflict(_)
        ));
    }

    #[test]
    fn disjoint_updates_commute() {
        let u1 = ins("a/b", "x");
        let u2 = del("a/c");
        assert!(matches!(
            find_noncommuting_witness(&u1, &u2, Budget::default()),
            Outcome::NoConflictWithin(_)
        ));
    }

    #[test]
    fn delete_delete_nested() {
        // u1 deletes a/b, u2 deletes a/b/c: u1 subsumes u2's target;
        // both orders end with b gone — commutes.
        let u1 = del("a/b");
        let u2 = del("a/b/c");
        assert!(matches!(
            find_noncommuting_witness(&u1, &u2, Budget::default()),
            Outcome::NoConflictWithin(_)
        ));
    }

    #[test]
    fn insert_then_delete_of_inserted_shape() {
        // u1 inserts x under b; u2 deletes all b/x: insert-then-delete
        // removes the fresh x, delete-then-insert leaves one.
        let u1 = ins("a/b", "x");
        let u2 = del("a/b/x");
        let t = text::parse("a(b)").unwrap();
        assert!(!commute_on(&u1, &u2, &t));
    }

    #[test]
    fn budget_exceeded() {
        let u1 = ins("a/b", "x");
        let u2 = ins("c/d", "y");
        let out = find_noncommuting_witness(
            &u1,
            &u2,
            Budget {
                max_nodes: 10,
                max_trees: 5,
            },
        );
        assert!(matches!(out, Outcome::BudgetExceeded(_)));
    }

    #[test]
    fn deadline_exceeded() {
        let u1 = ins("a/b", "x");
        let u2 = del("a/c");
        let dl = Deadline::after(std::time::Duration::ZERO);
        let out = find_noncommuting_witness_deadline(&u1, &u2, Budget::default(), &dl);
        assert!(matches!(out, Outcome::DeadlineExceeded));
    }

    #[test]
    fn self_delete_commutes() {
        let u = del("a//b");
        assert!(matches!(
            find_noncommuting_witness(&u, &u, Budget::default()),
            Outcome::NoConflictWithin(_)
        ));
    }
}
