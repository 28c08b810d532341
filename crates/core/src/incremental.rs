//! Incremental maintenance of linear read results across updates.
//!
//! A compiler that has proved two operations *conflicting* still wants to
//! avoid re-running the read from scratch after the update. For **linear**
//! reads the fragment's monotonicity gives exact delta rules:
//!
//! * **insert**: an existing node's membership in `⟦p⟧(t)` depends only
//!   on its root path, which insertion never changes — so old results
//!   stay; new results live strictly inside the freshly grafted copies.
//!   For each insertion point `u` we run the `ℛ(p)` automaton down the
//!   (unchanged) path `ROOT(t) → u` once, then push the surviving state
//!   sets into the copy of `X` — `O(depth·|p| + |X|·|p|)` per point,
//!   independent of `|t|`.
//! * **delete**: no new matches can appear (monotonicity), and lost
//!   matches are exactly the results inside deleted regions — filter by
//!   liveness, `O(|result|·depth)`.
//!
//! This mirrors the incremental-validation line of work the paper cites
//! (\[3, 14\]) transplanted to query results, and is exactly the
//! "re-extract the D descendants while scanning for A" optimization §1
//! gestures at. Cross-validated against full re-evaluation by property
//! tests; benchmarked as E14.

use crate::matching::to_steps;
use cxu_automata::{Label, Step};
use cxu_ops::{Delete, Insert, Read};
use cxu_pattern::eval;
use cxu_tree::{NodeId, Symbol, Tree};

/// A linear read whose result set is maintained across updates.
///
/// The wrapped tree evolves outside this struct; callers route every
/// update through [`IncrementalRead::apply_insert`] /
/// [`IncrementalRead::apply_delete`] (applying updates behind its back
/// desynchronizes the cache — as with any materialized view).
pub struct IncrementalRead {
    read: Read,
    steps: Vec<Step<Symbol>>,
    result: Vec<NodeId>,
}

impl IncrementalRead {
    /// Evaluates `read` on `t` once and caches the result. The read
    /// pattern must be linear.
    pub fn new(read: Read, t: &Tree) -> Result<IncrementalRead, crate::DetectError> {
        if !read.pattern().is_linear() {
            return Err(crate::DetectError::ReadNotLinear);
        }
        let steps = to_steps(read.pattern());
        let result = read.eval(t);
        Ok(IncrementalRead {
            read,
            steps,
            result,
        })
    }

    /// The maintained result set (sorted node ids).
    pub fn result(&self) -> &[NodeId] {
        &self.result
    }

    /// The underlying read.
    pub fn read(&self) -> &Read {
        &self.read
    }

    /// Advances an `ℛ(p)` state set over one letter. State `i` means `i`
    /// steps consumed; step `i+1`'s gap allows staying put.
    fn advance(&self, states: &[bool], letter: Symbol) -> Vec<bool> {
        let m = self.steps.len();
        let mut next = vec![false; m + 1];
        for (i, &alive) in states.iter().enumerate() {
            if !alive {
                continue;
            }
            if i < m {
                let step = &self.steps[i];
                let fires = match step.label {
                    Label::Any => true,
                    Label::Sym(s) => s == letter,
                };
                if fires {
                    next[i + 1] = true;
                }
                if step.gap {
                    next[i] = true;
                }
            }
        }
        next
    }

    /// State set after reading the labels on the path from the root down
    /// to (and including) `n`.
    fn states_at(&self, t: &Tree, n: NodeId) -> Vec<bool> {
        let mut path: Vec<NodeId> = t.ancestors(n).collect();
        path.reverse();
        path.push(n);
        let mut states = vec![false; self.steps.len() + 1];
        states[0] = true;
        for node in path {
            states = self.advance(&states, t.label(node));
        }
        states
    }

    /// Applies the insertion to `t` and updates the cached result. The
    /// maintenance step itself ([`IncrementalRead::note_insert`]) costs
    /// time proportional to the update (point depths + copy sizes), not
    /// to `|t|`; finding the insertion points is the update's own cost.
    pub fn apply_insert(&mut self, t: &mut Tree, ins: &Insert) {
        let pairs = ins.apply_indexed(t);
        self.note_insert(t, &pairs);
    }

    /// Folds already-applied insertions into the cached result. `pairs`
    /// is `(insertion point, copy root)` as returned by
    /// [`Insert::apply_indexed`].
    pub fn note_insert(&mut self, t: &Tree, pairs: &[(NodeId, NodeId)]) {
        let m = self.steps.len();
        let mut fresh: Vec<NodeId> = Vec::new();
        for &(point, copy_root) in pairs {
            // The path to `point` consists of pre-insert nodes only, so
            // the state set there is unaffected by this update.
            let states = self.states_at(t, point);
            // Push states down the copy.
            let mut stack = vec![(copy_root, states)];
            while let Some((node, incoming)) = stack.pop() {
                let here = self.advance(&incoming, t.label(node));
                if here[m] {
                    fresh.push(node);
                }
                if here.iter().take(m).any(|&b| b) {
                    for &c in t.children(node) {
                        stack.push((c, here.clone()));
                    }
                }
            }
        }
        // Grafted copies take fresh arena slots, so when insertions are
        // folded in the order they were applied, every fresh match sorts
        // after the cached ones and the fold is an append: it costs the
        // update, not the result. Only an out-of-order fold re-sorts.
        fresh.sort_unstable();
        fresh.dedup();
        let in_order = match (self.result.last(), fresh.first()) {
            (Some(last), Some(first)) => last < first,
            _ => true,
        };
        self.result.extend(fresh);
        if !in_order {
            self.result.sort_unstable();
            self.result.dedup();
        }
    }

    /// Applies the deletion to `t` and updates the cached result: linear
    /// matches only disappear (with their subtrees); none appear.
    pub fn apply_delete(&mut self, t: &mut Tree, del: &Delete) {
        del.apply(t);
        self.result.retain(|&n| t.is_alive(n));
    }

    /// Full re-evaluation — the oracle the incremental path must match.
    pub fn recompute(&mut self, t: &Tree) -> &[NodeId] {
        self.result = eval::eval(self.read.pattern(), t);
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_ops::Read;
    use cxu_pattern::xpath::parse;
    use cxu_tree::text;

    fn read(p: &str) -> Read {
        Read::new(parse(p).unwrap())
    }

    fn ins(p: &str, x: &str) -> Insert {
        Insert::new(parse(p).unwrap(), text::parse(x).unwrap())
    }

    fn del(p: &str) -> Delete {
        Delete::new(parse(p).unwrap()).unwrap()
    }

    #[test]
    fn insert_adds_matches_inside_copy() {
        let mut t = text::parse("a(b)").unwrap();
        let mut inc = IncrementalRead::new(read("a//f"), &t).unwrap();
        assert!(inc.result().is_empty());
        inc.apply_insert(&mut t, &ins("a/b", "x(y(f))"));
        assert_eq!(inc.result().len(), 1);
        assert_eq!(
            inc.result(),
            eval::eval(inc.read().pattern(), &t).as_slice()
        );
    }

    #[test]
    fn insert_no_spurious_matches() {
        let mut t = text::parse("a(b)").unwrap();
        let mut inc = IncrementalRead::new(read("a/f"), &t).unwrap();
        inc.apply_insert(&mut t, &ins("a/b", "f")); // f at depth 2, read wants depth 1
        assert!(inc.result().is_empty());
    }

    #[test]
    fn insert_at_multiple_points() {
        let mut t = text::parse("a(b b b)").unwrap();
        let mut inc = IncrementalRead::new(read("a/b/c"), &t).unwrap();
        inc.apply_insert(&mut t, &ins("a/b", "c"));
        assert_eq!(inc.result().len(), 3);
        assert_eq!(
            inc.result(),
            eval::eval(inc.read().pattern(), &t).as_slice()
        );
    }

    #[test]
    fn gap_states_descend_into_copy() {
        // Read a//m//f: first gap consumed above, second inside the copy.
        let mut t = text::parse("a(x(m(b)))").unwrap();
        let mut inc = IncrementalRead::new(read("a//m//f"), &t).unwrap();
        inc.apply_insert(&mut t, &ins("a/x/m/b", "q(w(f))"));
        assert_eq!(inc.result().len(), 1);
        assert_eq!(
            inc.result(),
            eval::eval(inc.read().pattern(), &t).as_slice()
        );
    }

    #[test]
    fn delete_filters_dead_results() {
        let mut t = text::parse("a(b(v) c(v))").unwrap();
        let mut inc = IncrementalRead::new(read("a//v"), &t).unwrap();
        assert_eq!(inc.result().len(), 2);
        inc.apply_delete(&mut t, &del("a/b"));
        assert_eq!(inc.result().len(), 1);
        assert_eq!(
            inc.result(),
            eval::eval(inc.read().pattern(), &t).as_slice()
        );
    }

    #[test]
    fn mixed_update_sequence_matches_oracle() {
        let mut t = text::parse("a(b(v) c)").unwrap();
        let mut inc = IncrementalRead::new(read("a//v"), &t).unwrap();
        let script: Vec<(bool, &str, &str)> = vec![
            (true, "a/c", "v"),
            (true, "a//v", "w"),
            (false, "a/b", ""),
            (true, "a/c", "x(v)"),
            (false, "a/c/v", ""),
        ];
        for (is_insert, p, x) in script {
            if is_insert {
                inc.apply_insert(&mut t, &ins(p, x));
            } else {
                inc.apply_delete(&mut t, &del(p));
            }
            assert_eq!(
                inc.result(),
                eval::eval(inc.read().pattern(), &t).as_slice(),
                "after {p}"
            );
        }
    }

    #[test]
    fn insertions_folded_in_reverse_order_match_the_oracle() {
        // The second insertion lands inside the first one's copy. Folded
        // last, the first insertion's matches sit below ids already in
        // the result, and its walk re-finds the second's: the fold must
        // re-sort and dedup.
        let mut t = text::parse("a(b c(v))").unwrap();
        let mut inc = IncrementalRead::new(read("a//v"), &t).unwrap();
        let first = ins("a/b", "x(v)").apply_indexed(&mut t);
        let second = ins("a/b/x", "v(v)").apply_indexed(&mut t);
        inc.note_insert(&t, &second);
        inc.note_insert(&t, &first);
        let folded = inc.result().to_vec();
        assert_eq!(folded.len(), 4);
        assert_eq!(folded, inc.recompute(&t));
    }

    #[test]
    fn wildcard_read_maintained() {
        let mut t = text::parse("a(b)").unwrap();
        let mut inc = IncrementalRead::new(read("a/*/*"), &t).unwrap();
        inc.apply_insert(&mut t, &ins("a/b", "anything"));
        assert_eq!(inc.result().len(), 1);
        assert_eq!(
            inc.result(),
            eval::eval(inc.read().pattern(), &t).as_slice()
        );
    }

    #[test]
    fn branching_read_rejected() {
        let t = text::parse("a(b)").unwrap();
        assert!(IncrementalRead::new(read("a[q]/b"), &t).is_err());
    }

    #[test]
    fn insert_matching_nothing_is_cheap_noop() {
        let mut t = text::parse("a(b)").unwrap();
        let mut inc = IncrementalRead::new(read("a/b"), &t).unwrap();
        let before = inc.result().to_vec();
        inc.apply_insert(&mut t, &ins("zzz/q", "x"));
        assert_eq!(inc.result(), before.as_slice());
    }
}
