//! Exact conflict decision for branching reads — the NP side (§5).
//!
//! With branching on both sides, conflict detection is NP-complete
//! (Theorems 3–6). Membership in NP rests on Lemma 11: *if* a conflict
//! exists, a witness tree of size at most `|R|·|U|·(k+1)` over the
//! alphabet `Σ_R ∪ Σ_U ∪ {α}` exists (`k` = `STAR-LENGTH(R)`). This
//! module turns the NP guess into a deterministic bounded search: it
//! visits candidate trees up to a size bound in size order (one
//! representative per isomorphism class), building each only when the
//! search reaches it, and checks each with the Lemma 1 witness verifier.
//!
//! The search is exponential — which is precisely the paper's point, and
//! what experiment E4 measures against the PTIME detectors. Budgets keep
//! it usable: within the full Lemma 11 bound the answer is exact; with a
//! smaller budget a `Conflict` answer is still definite while
//! `NoConflictWithin` is only "no witness up to this size".

use cxu_ops::witness::witnesses_update_conflict;
use cxu_ops::{Read, Semantics, Update};
use cxu_runtime::{failpoints, Deadline};
use cxu_tree::enumerate::{count_trees_capped, visit_trees};
use cxu_tree::{Symbol, Tree};
use std::ops::ControlFlow;

/// Bounds for the exhaustive search.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum witness size (nodes) to try.
    pub max_nodes: usize,
    /// Abort if more than this many candidate trees would be enumerated.
    pub max_trees: u128,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_nodes: 6,
            max_trees: 2_000_000,
        }
    }
}

/// Outcome of a bounded witness search.
#[derive(Debug, Clone)]
pub enum SearchOutcome {
    /// A witness was found — a conflict definitely exists.
    Conflict(Tree),
    /// No tree of at most this many nodes (over the canonical alphabet)
    /// witnesses a conflict. Exact "no conflict" iff the bound ≥
    /// [`lemma11_bound`].
    NoConflictWithin(usize),
    /// The candidate count exceeded `max_trees`; nothing was decided.
    /// The count stops once it passes the budget, so the payload is
    /// only "more than `max_trees`", not the exact count.
    BudgetExceeded(u128),
    /// The deadline expired (or the cancel token fired) mid-search;
    /// nothing was decided.
    DeadlineExceeded,
}

impl SearchOutcome {
    /// `Some(true)` / `Some(false)` when decided *relative to the bound*.
    pub fn decided(&self) -> Option<bool> {
        match self {
            SearchOutcome::Conflict(_) => Some(true),
            SearchOutcome::NoConflictWithin(_) => Some(false),
            SearchOutcome::BudgetExceeded(_) | SearchOutcome::DeadlineExceeded => None,
        }
    }
}

/// Lemma 11's witness-size bound `|R|·|U|·(k+1)`, `k = STAR-LENGTH(R)`.
///
/// For deletions the same bound applies (Theorem 5's sketch marks at most
/// `|R| + |D|` nodes and reparents identically; `|R|·|D|·(k+1)` is the
/// uniform safe bound).
pub fn lemma11_bound(r: &Read, u: &Update) -> usize {
    let k = r.pattern().star_length();
    r.pattern().len() * u.pattern().len() * (k + 1)
}

/// The canonical witness alphabet `Σ_R ∪ Σ_U (∪ Σ_X) ∪ {α}`.
pub fn witness_alphabet(r: &Read, u: &Update) -> Vec<Symbol> {
    let mut alpha = r.pattern().alphabet();
    alpha.extend(u.pattern().alphabet());
    if let Update::Insert(i) = u {
        alpha.extend(i.subtree().alphabet());
    }
    alpha.sort_unstable();
    alpha.dedup();
    alpha.push(Symbol::fresh("alpha", &alpha));
    alpha
}

/// Searches for a conflict witness within the budget.
pub fn find_witness(r: &Read, u: &Update, sem: Semantics, budget: Budget) -> SearchOutcome {
    find_witness_deadline(r, u, sem, budget, &Deadline::never())
}

/// [`find_witness`] with a cooperative deadline, polled once per
/// candidate: overrun past the cutoff is bounded by one witness check.
pub fn find_witness_deadline(
    r: &Read,
    u: &Update,
    sem: Semantics,
    budget: Budget,
    deadline: &Deadline,
) -> SearchOutcome {
    let t0 = std::time::Instant::now();
    let out = find_witness_deadline_inner(r, u, sem, budget, deadline);
    cxu_obs::counter!("core.brute.searches").inc();
    cxu_obs::histogram!("core.brute.ns").record_since(t0);
    let outcome = match &out {
        SearchOutcome::Conflict(_) => {
            cxu_obs::counter!("core.brute.conflict").inc();
            "conflict"
        }
        SearchOutcome::NoConflictWithin(_) => {
            cxu_obs::counter!("core.brute.no_conflict").inc();
            "no-conflict"
        }
        SearchOutcome::BudgetExceeded(_) => {
            cxu_obs::counter!("core.brute.budget").inc();
            "budget"
        }
        SearchOutcome::DeadlineExceeded => {
            cxu_obs::counter!("core.brute.deadline").inc();
            "deadline"
        }
    };
    if cxu_obs::trace::enabled() {
        cxu_obs::trace::event(
            "core.brute.search",
            &[
                ("outcome", outcome.into()),
                ("max_nodes", budget.max_nodes.into()),
            ],
        );
    }
    out
}

fn find_witness_deadline_inner(
    r: &Read,
    u: &Update,
    sem: Semantics,
    budget: Budget,
    deadline: &Deadline,
) -> SearchOutcome {
    let alpha = witness_alphabet(r, u);
    let candidates = count_trees_capped(alpha.len(), budget.max_nodes, budget.max_trees);
    if candidates > budget.max_trees || failpoints::fire("brute::search") {
        return SearchOutcome::BudgetExceeded(candidates);
    }
    visit_trees(&alpha, budget.max_nodes, |t| {
        if deadline.poll() {
            ControlFlow::Break(SearchOutcome::DeadlineExceeded)
        } else if witnesses_update_conflict(r, u, t, sem) {
            ControlFlow::Break(SearchOutcome::Conflict(t.clone()))
        } else {
            ControlFlow::Continue(())
        }
    })
    .unwrap_or(SearchOutcome::NoConflictWithin(budget.max_nodes))
}

/// Exact decision: searches up to the full Lemma 11 bound. Returns `None`
/// if the candidate count exceeds `max_trees` (the instance is too large
/// to decide exhaustively — as §5 predicts for all but tiny inputs).
pub fn decide(r: &Read, u: &Update, sem: Semantics, max_trees: u128) -> Option<bool> {
    decide_outcome(r, u, sem, max_trees, &Deadline::never()).decided()
}

/// [`decide`] exposing the full outcome (so callers can distinguish a
/// blown budget from an expired deadline), under a deadline. At the
/// Lemma 11 bound, `NoConflictWithin` is an exact "no conflict".
pub fn decide_outcome(
    r: &Read,
    u: &Update,
    sem: Semantics,
    max_trees: u128,
    deadline: &Deadline,
) -> SearchOutcome {
    let budget = Budget {
        max_nodes: lemma11_bound(r, u),
        max_trees,
    };
    find_witness_deadline(r, u, sem, budget, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_ops::{Delete, Insert};
    use cxu_pattern::xpath::parse;
    use cxu_tree::text;

    fn read(p: &str) -> Read {
        Read::new(parse(p).unwrap())
    }

    fn ins(p: &str, x: &str) -> Update {
        Update::Insert(Insert::new(parse(p).unwrap(), text::parse(x).unwrap()))
    }

    fn del(p: &str) -> Update {
        Update::Delete(Delete::new(parse(p).unwrap()).unwrap())
    }

    #[test]
    fn finds_section1_witness() {
        let r = read("x//C");
        let u = ins("x/B", "C");
        match find_witness(&r, &u, Semantics::Node, Budget::default()) {
            SearchOutcome::Conflict(w) => {
                assert!(witnesses_update_conflict(&r, &u, &w, Semantics::Node));
                assert!(w.live_count() <= 2, "minimal witness is x(B)");
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn no_witness_for_independent_pair() {
        let r = read("x//D");
        let u = ins("x/B", "C");
        match find_witness(&r, &u, Semantics::Node, Budget::default()) {
            SearchOutcome::NoConflictWithin(n) => assert_eq!(n, 6),
            other => panic!("expected no conflict, got {other:?}"),
        }
    }

    #[test]
    fn branching_read_witness() {
        // NP-side instance: branching read a[b][c], insert adds the c.
        let r = read("a[b][c]");
        // A read with output at the root still reports new matches when
        // the root starts matching: R(t) = {} vs {root}.
        let u = ins("a[b]", "c");
        match find_witness(&r, &u, Semantics::Node, Budget::default()) {
            SearchOutcome::Conflict(w) => {
                assert!(witnesses_update_conflict(&r, &u, &w, Semantics::Node));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn branching_no_conflict() {
        // Insert adds q under b children; read wants a[b][c] — the q
        // never creates nor destroys a[b][c] matches at the node level.
        let r = read("a[b][c]");
        let u = ins("a/b", "q");
        assert!(matches!(
            find_witness(&r, &u, Semantics::Node, Budget::default()),
            SearchOutcome::NoConflictWithin(_)
        ));
    }

    #[test]
    fn delete_witness_found() {
        let r = read("a//v");
        let u = del("a/b");
        match find_witness(&r, &u, Semantics::Node, Budget::default()) {
            SearchOutcome::Conflict(w) => {
                assert!(witnesses_update_conflict(&r, &u, &w, Semantics::Node));
                // Minimal witness: a(b(v)).
                assert!(w.live_count() <= 3);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn budget_exceeded_reported() {
        let r = read("a//b//c");
        let u = ins("a//x[y][z]", "w");
        let out = find_witness(
            &r,
            &u,
            Semantics::Node,
            Budget {
                max_nodes: 12,
                max_trees: 10,
            },
        );
        assert!(matches!(out, SearchOutcome::BudgetExceeded(_)));
        assert_eq!(out.decided(), None);
    }

    #[test]
    fn deadline_exceeded_reported() {
        // An already-expired deadline trips on the first candidate poll,
        // before any witness check runs.
        let r = read("a[b][c]");
        let u = ins("a[b]", "c");
        let dl = Deadline::after(std::time::Duration::ZERO);
        let out = find_witness_deadline(&r, &u, Semantics::Node, Budget::default(), &dl);
        assert!(matches!(out, SearchOutcome::DeadlineExceeded));
        assert_eq!(out.decided(), None);
        // An unbounded deadline changes nothing.
        let out2 = find_witness_deadline(
            &r,
            &u,
            Semantics::Node,
            Budget::default(),
            &Deadline::never(),
        );
        assert!(matches!(out2, SearchOutcome::Conflict(_)));
    }

    #[test]
    fn decide_outcome_distinguishes_budget_from_deadline() {
        let r = read("a[b]//c//d");
        let u = ins("a//x[y][z]", "w");
        // Starved tree budget: BudgetExceeded, not DeadlineExceeded.
        let out = decide_outcome(&r, &u, Semantics::Node, 10, &Deadline::never());
        assert!(matches!(out, SearchOutcome::BudgetExceeded(_)));
        // Room to search but no time: DeadlineExceeded.
        let small = read("a[b][c]");
        let ins_small = ins("a[b]", "c");
        let dl = Deadline::after(std::time::Duration::ZERO);
        let out2 = decide_outcome(&small, &ins_small, Semantics::Node, 2_000_000, &dl);
        assert!(matches!(out2, SearchOutcome::DeadlineExceeded));
    }

    #[test]
    fn lemma11_bound_shape() {
        let r = read("a/*/*/b"); // |R| = 4, star-length 2
        let u = ins("a/q", "w"); // |I| = 2
        assert_eq!(lemma11_bound(&r, &u), 4 * 2 * 3);
    }

    #[test]
    fn alphabet_includes_fresh() {
        let r = read("a/b");
        let u = ins("a/c", "d(e)");
        let alpha = witness_alphabet(&r, &u);
        let names: Vec<&str> = alpha.iter().map(|s| s.as_str()).collect();
        for want in ["a", "b", "c", "d", "e"] {
            assert!(names.contains(&want));
        }
        assert_eq!(alpha.len(), 6, "five named + one fresh");
    }

    #[test]
    fn agrees_with_ptime_on_linear_instances() {
        // The exhaustive search and the PTIME detector must agree on
        // small linear instances, for every semantics.
        use crate::detect::read_update_conflict;
        let cases: Vec<(&str, Update)> = vec![
            ("x//C", ins("x/B", "C")),
            ("x//D", ins("x/B", "C")),
            ("a/b", ins("a/b", "x")),
            ("a/b/c", ins("a/b", "c")),
            ("a/b/c", ins("a/b", "q")),
            ("a/b", del("a/b/c")),
            ("a/b//v", del("a/b/u")),
            ("a/b", del("a/q")),
            ("a/*", ins("a/q", "w")),
        ];
        // Every conflicting case in the battery has a witness of ≤ 4
        // nodes; the non-conflicting ones are verified up to that size.
        let budget = Budget {
            max_nodes: 4,
            max_trees: 2_000_000,
        };
        for (r_src, u) in cases {
            let r = read(r_src);
            for sem in Semantics::ALL {
                let fast = read_update_conflict(&r, &u, sem).unwrap();
                let slow = find_witness(&r, &u, sem, budget);
                match slow {
                    SearchOutcome::Conflict(ref w) => assert!(
                        fast,
                        "{r_src} vs {u:?} under {sem:?}: brute found witness {w:?}, detector says none"
                    ),
                    SearchOutcome::NoConflictWithin(_) => {
                        // The detector may still say "conflict" if every
                        // witness needs > 6 nodes; none of these cases do.
                        assert!(
                            !fast,
                            "{r_src} vs {u:?} under {sem:?}: detector says conflict, none ≤ 4 nodes"
                        );
                    }
                    SearchOutcome::BudgetExceeded(_) => panic!("budget too small"),
                    SearchOutcome::DeadlineExceeded => panic!("no deadline was set"),
                }
            }
        }
    }
}
