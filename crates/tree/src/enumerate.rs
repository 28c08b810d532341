//! Exhaustive enumeration of unordered labeled trees up to isomorphism.
//!
//! The NP-side algorithms of the paper decide conflict existence by
//! searching for a witness tree of bounded size (Lemma 11 / Theorems 3, 5)
//! over a bounded alphabet. This module enumerates one representative per
//! isomorphism class of unordered labeled trees with at most `max_nodes`
//! nodes over a given alphabet — the search space of that NP guess.
//!
//! Canonicity: a tree is generated as a root label plus a *multiset* of
//! child subtrees; multisets are produced in nondecreasing order of a
//! canonical index, so each unordered tree appears exactly once. Counts
//! grow exponentially — callers bound `max_nodes` and alphabet size.

use crate::{NodeId, Symbol, Tree};

/// All unordered labeled trees with `1..=max_nodes` nodes over `alphabet`,
/// one representative per isomorphism class.
///
/// Counts grow fast: with 2 labels there are 2, 4, 14, 52, 214, … trees of
/// sizes 1, 2, 3, 4, 5 (cf. OEIS A000151 shape counts). Use
/// [`count_trees`] to pre-check the budget.
pub fn enumerate_trees(alphabet: &[Symbol], max_nodes: usize) -> Vec<Tree> {
    Enumerator::new(alphabet, max_nodes).run()
}

/// Number of trees [`enumerate_trees`] would return, computed without
/// materializing them.
///
/// Saturates at `u128::MAX`: Lemma 11 bounds like `|R|·|U|·(k+1)` can
/// reach dozens of nodes, where the exact class count exceeds 2¹²⁸. Any
/// saturated value still compares `> max_trees` for every practical
/// budget, so the caller's budget check degrades correctly instead of
/// overflowing (which used to panic in debug builds and silently wrap
/// in release builds).
pub fn count_trees(alphabet_len: usize, max_nodes: usize) -> u128 {
    count_trees_capped(alphabet_len, max_nodes, u128::MAX)
}

/// [`count_trees`] that stops once the running total passes `cap`.
///
/// Exact whenever the exact count is at most `cap`; otherwise some value
/// above `cap` (every intermediate is either exact or already past the
/// cap). A budget check only needs that much, and it stays cheap at
/// any `max_nodes`: the count passes any cap within a few dozen sizes,
/// while the full count costs about `max_nodes⁴` steps (seconds at a
/// few hundred nodes, minutes at a thousand). The uncapped count stops
/// early too, once it saturates.
pub fn count_trees_capped(alphabet_len: usize, max_nodes: usize, cap: u128) -> u128 {
    if max_nodes == 0 || alphabet_len == 0 {
        return 0;
    }
    // t[n] = number of classes with exactly n nodes.
    let mut t = vec![0u128; max_nodes + 1];
    t[1] = alphabet_len as u128;
    let mut total = t[1];
    for n in 2..=max_nodes {
        if total > cap || total == u128::MAX {
            break;
        }
        // A root label times a multiset of smaller classes whose sizes
        // sum to n-1.
        t[n] = (alphabet_len as u128).saturating_mul(multisets(&t, n - 1, cap));
        total = total.saturating_add(t[n]);
    }
    total
}

/// Number of multisets of trees (classes counted by `t[size]`) with total
/// size exactly `budget`. Saturating, like [`count_trees`], and exact
/// while the result stays at most `cap` (see [`count_trees_capped`]).
fn multisets(t: &[u128], budget: usize, cap: u128) -> u128 {
    // g[b] = multisets using classes of size ≤ s with total b, for the
    // sizes s folded in so far.
    let mut g = vec![0u128; budget + 1];
    g[0] = 1;
    for s in 1..=budget {
        let classes = t[s];
        if classes == 0 {
            continue;
        }
        let mut next = vec![0u128; budget + 1];
        for b in 0..=budget {
            // choose k ≥ 0 subtrees of size s: multiset of k from `classes`
            let mut k = 0usize;
            while k * s <= b {
                let ways = multiset_choose(classes, k as u128, cap);
                next[b] = next[b].saturating_add(ways.saturating_mul(g[b - k * s]));
                k += 1;
            }
        }
        g = next;
    }
    g[budget]
}

/// C(n + k - 1, k): multisets of size k from n classes. Returns
/// `u128::MAX` on overflow — a saturated numerator divided by a
/// saturated denominator would *undercount*, which could wave an
/// astronomically large search space past the budget check. Stops as
/// soon as the partial product passes `cap`: for n ≥ 1 the partial
/// products never decrease, so the exact value is past it too.
fn multiset_choose(n: u128, k: u128, cap: u128) -> u128 {
    // result = result · (n + i) / (i + 1) keeps an exact integer at
    // every step (it equals C(n + i, i + 1) after step i).
    let mut c: u128 = 1;
    for i in 0..k {
        if c > cap {
            break;
        }
        let Some(x) = c.checked_mul(n.saturating_add(i)) else {
            return u128::MAX;
        };
        c = x / (i + 1);
    }
    c
}

/// Callback receiving one complete multiset choice of (size, index) class
/// references.
type Emit<'e> = &'e mut dyn FnMut(&[(usize, usize)]);

struct Enumerator<'a> {
    alphabet: &'a [Symbol],
    /// classes[n] = canonical trees with exactly n+1 nodes.
    classes: Vec<Vec<Tree>>,
    max_nodes: usize,
}

impl<'a> Enumerator<'a> {
    fn new(alphabet: &'a [Symbol], max_nodes: usize) -> Self {
        Enumerator {
            alphabet,
            classes: Vec::new(),
            max_nodes,
        }
    }

    fn run(mut self) -> Vec<Tree> {
        if self.max_nodes == 0 || self.alphabet.is_empty() {
            return Vec::new();
        }
        // Size 1.
        self.classes
            .push(self.alphabet.iter().map(|&s| Tree::new(s)).collect());
        for n in 2..=self.max_nodes {
            let mut level: Vec<Tree> = Vec::new();
            for &root_label in self.alphabet {
                // Choose a multiset of previously generated classes whose
                // sizes sum to n-1, in nondecreasing (size, index) order.
                let mut chosen: Vec<(usize, usize)> = Vec::new();
                self.fill(n - 1, (1, 0), &mut chosen, &mut |chosen| {
                    let mut t = Tree::new(root_label);
                    let root = t.root();
                    for &(size, idx) in chosen {
                        graft_built(&mut t, root, &self.classes[size - 1][idx]);
                    }
                    level.push(t);
                });
            }
            self.classes.push(level);
        }
        self.classes.into_iter().flatten().collect()
    }

    /// Recursively choose classes with total `budget`, each ≥ `min` in the
    /// (size, index) order, invoking `emit` on every complete choice.
    fn fill(
        &self,
        budget: usize,
        min: (usize, usize),
        chosen: &mut Vec<(usize, usize)>,
        emit: Emit<'_>,
    ) {
        if budget == 0 {
            emit(chosen);
            return;
        }
        let (min_size, min_idx) = min;
        for size in min_size..=budget {
            let start = if size == min_size { min_idx } else { 0 };
            let level = &self.classes[size - 1];
            for idx in start..level.len() {
                chosen.push((size, idx));
                self.fill(budget - size, (size, idx), chosen, emit);
                chosen.pop();
            }
        }
    }
}

/// Grafts without touching the modification journal (these are freshly
/// built trees, not updated documents).
fn graft_built(t: &mut Tree, parent: NodeId, sub: &Tree) {
    let new_root = t.build_child(parent, sub.label(sub.root()));
    let mut stack = vec![(sub.root(), new_root)];
    while let Some((src, dst)) = stack.pop() {
        for &c in sub.children(src) {
            let copy = t.build_child(dst, sub.label(c));
            stack.push((c, copy));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::Canonizer;
    use std::collections::HashSet;

    fn syms(labels: &[&str]) -> Vec<Symbol> {
        labels.iter().map(|&s| Symbol::intern(s)).collect()
    }

    #[test]
    fn counts_for_one_label() {
        // Unlabeled rooted unordered trees: 1, 1, 2, 4, 9, 20 (A000081).
        let a = syms(&["a"]);
        assert_eq!(enumerate_trees(&a, 1).len(), 1);
        assert_eq!(enumerate_trees(&a, 2).len(), 2);
        assert_eq!(enumerate_trees(&a, 3).len(), 4);
        assert_eq!(enumerate_trees(&a, 4).len(), 8);
        assert_eq!(enumerate_trees(&a, 5).len(), 17);
        // Cumulative: 1+1+2+4+9 = 17. ✓
    }

    #[test]
    fn counts_for_two_labels() {
        let ab = syms(&["a", "b"]);
        assert_eq!(enumerate_trees(&ab, 1).len(), 2);
        assert_eq!(enumerate_trees(&ab, 2).len(), 6); // 2 + 2*2
        let n3 = enumerate_trees(&ab, 3).len();
        // size-3: root(2) × ({one 2-class}: 4 + {two 1-classes}: C(3,2)=3) = 14
        assert_eq!(n3, 6 + 14);
    }

    #[test]
    fn closed_form_count_matches_enumeration() {
        for (labels, n) in [(1usize, 5usize), (2, 4), (3, 3)] {
            let alpha: Vec<Symbol> = (0..labels)
                .map(|i| Symbol::intern(&format!("cnt{i}")))
                .collect();
            assert_eq!(
                count_trees(labels, n),
                enumerate_trees(&alpha, n).len() as u128,
                "labels={labels} n={n}"
            );
        }
    }

    #[test]
    fn no_duplicates_up_to_isomorphism() {
        let ab = syms(&["a", "b"]);
        let trees = enumerate_trees(&ab, 4);
        let mut canon = Canonizer::new();
        let mut seen = HashSet::new();
        for t in &trees {
            assert!(seen.insert(canon.code_tree(t)), "duplicate class: {t:?}");
        }
    }

    #[test]
    fn covers_all_small_trees() {
        // Every unordered labeled tree with ≤3 nodes over {a,b} must be
        // isomorphic to an enumerated one.
        let ab = syms(&["a", "b"]);
        let trees = enumerate_trees(&ab, 3);
        let mut canon = Canonizer::new();
        let codes: HashSet<_> = trees.iter().map(|t| canon.code_tree(t)).collect();
        for src in ["a", "b", "a(b)", "a(a b)", "b(a(a))", "a(b(b))", "b(b b)"] {
            let t = crate::text::parse(src).unwrap();
            assert!(codes.contains(&canon.code_tree(&t)), "missing {src}");
        }
    }

    #[test]
    fn sizes_respect_bound() {
        let ab = syms(&["a", "b"]);
        for t in enumerate_trees(&ab, 4) {
            assert!(t.live_count() <= 4);
        }
    }

    #[test]
    fn count_saturates_instead_of_overflowing() {
        // Lemma-11-sized budgets (|R|·|U|·(k+1) can reach dozens of
        // nodes) push the exact class count past 2¹²⁸; the counter must
        // saturate, not wrap or panic.
        let big = count_trees(10, 80);
        assert!(big > u128::MAX / 2, "saturated: {big}");
        // Monotone in both arguments around the saturation region.
        assert!(count_trees(10, 80) >= count_trees(10, 40));
        assert!(count_trees(10, 40) >= count_trees(5, 40));
    }

    #[test]
    fn capped_count_is_exact_up_to_the_cap_and_past_it_beyond() {
        for labels in 1..=6usize {
            for n in 0..=14usize {
                let exact = count_trees(labels, n);
                for cap in [0u128, 1, 5, 100, 1_202, 5_000, 100_751, 2_000_000, exact] {
                    let capped = count_trees_capped(labels, n, cap);
                    if exact <= cap {
                        assert_eq!(capped, exact, "labels={labels} n={n} cap={cap}");
                    } else {
                        assert!(capped > cap, "labels={labels} n={n} cap={cap}: {capped}");
                    }
                }
            }
        }
    }

    #[test]
    fn capped_count_of_a_deep_pattern_bound_is_cheap() {
        // A read nested 1000 deep against a one-step delete has a
        // Lemma 11 bound of about 2,000 nodes; the exact count would
        // take hours. The capped one stops within a few sizes.
        let t0 = std::time::Instant::now();
        assert!(count_trees_capped(6, 2_002, 5_000) > 5_000);
        assert_eq!(count_trees(6, 2_002), u128::MAX);
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn empty_inputs() {
        assert!(enumerate_trees(&[], 3).is_empty());
        assert!(enumerate_trees(&syms(&["a"]), 0).is_empty());
        assert_eq!(count_trees(2, 0), 0);
    }
}
