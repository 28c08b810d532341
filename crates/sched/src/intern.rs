//! Hash-consing of operation shapes, and the pairwise-verdict cache key.
//!
//! Heavy traffic repeats pattern shapes: a production batch of thousands
//! of operations typically draws from a few dozen templates. The
//! [`Interner`] maps every pattern (and every inserted payload tree) to a
//! small integer id via a *canonical form* — a serialization in which
//! sibling order is sorted away, so any two patterns that are isomorphic
//! as unordered trees (with marked output and matching axes/labels)
//! share an id. Conflict semantics are invariant under that isomorphism,
//! which makes the id a sound cache key: one pairwise detection pays for
//! every repetition of the same shape pair.

use crate::op::Op;
use cxu_automata::compiled::{Chain, Summary};
use cxu_core::matching;
use cxu_ops::Update;
use cxu_pattern::{Axis, PNodeId, Pattern};
use cxu_tree::{NodeId, Tree};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Interned id of a pattern shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(pub u32);

/// Interned id of a payload-tree shape (insert subtrees).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeId(pub u32);

/// The kind of an operation, part of its cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// A read.
    Read,
    /// An insertion (carries a payload id).
    Insert,
    /// A deletion.
    Delete,
}

/// The canonical identity of an operation: kind + pattern shape +
/// payload shape. Two ops with equal keys are semantically
/// interchangeable for every conflict question.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpKey {
    /// Operation kind.
    pub kind: OpKind,
    /// Interned selection pattern.
    pub pattern: PatternId,
    /// Interned insert payload (None for reads and deletes).
    pub payload: Option<TreeId>,
}

/// An unordered pair of [`OpKey`]s — the memo key for pairwise verdicts.
/// Conflict and commutation are symmetric questions, so the pair is
/// normalized to `lo <= hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PairKey {
    /// The smaller key.
    pub lo: OpKey,
    /// The larger key.
    pub hi: OpKey,
}

impl PairKey {
    /// Normalized constructor.
    pub fn new(a: OpKey, b: OpKey) -> PairKey {
        if a <= b {
            PairKey { lo: a, hi: b }
        } else {
            PairKey { lo: b, hi: a }
        }
    }
}

/// Canonical serialization of a pattern: each node renders as
/// `axis label output? (sorted children)`, so sibling order — which is
/// meaningless for unordered tree patterns — never splits cache entries.
pub fn canonical_pattern_key(p: &Pattern) -> String {
    fn node(p: &Pattern, n: PNodeId, out: &mut String) {
        match p.axis(n) {
            Some(Axis::Descendant) => out.push_str("//"),
            Some(Axis::Child) => out.push('/'),
            None => {} // root
        }
        match p.label(n) {
            Some(l) => out.push_str(l.as_str()),
            None => out.push('*'),
        }
        if n == p.output() {
            out.push('!');
        }
        let mut kids: Vec<String> = p
            .children(n)
            .iter()
            .map(|&c| {
                let mut s = String::new();
                node(p, c, &mut s);
                s
            })
            .collect();
        if !kids.is_empty() {
            kids.sort_unstable();
            out.push('(');
            for k in kids {
                out.push_str(&k);
                out.push(',');
            }
            out.push(')');
        }
    }
    let mut s = String::new();
    node(p, p.root(), &mut s);
    s
}

/// Canonical serialization of an unordered tree (payloads): label plus
/// sorted children — equal strings iff the trees are isomorphic.
pub fn canonical_tree_key(t: &Tree) -> String {
    fn node(t: &Tree, n: NodeId, out: &mut String) {
        out.push_str(t.label(n).as_str());
        let kids: &[NodeId] = t.children(n);
        if !kids.is_empty() {
            let mut rendered: Vec<String> = kids
                .iter()
                .map(|&c| {
                    let mut s = String::new();
                    node(t, c, &mut s);
                    s
                })
                .collect();
            rendered.sort_unstable();
            out.push('(');
            for k in rendered {
                out.push_str(&k);
                out.push(',');
            }
            out.push(')');
        }
    }
    let mut s = String::new();
    node(t, t.root(), &mut s);
    s
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A deterministic routing hash of one operation's *shape*: FNV-1a over
/// its kind and canonical pattern/payload serializations.
///
/// Deliberately **not** derived from [`PatternId`]/[`TreeId`] (those are
/// per-interner insertion-order sequence numbers, different on every
/// shard and every restart) and **not** `std`'s `DefaultHasher` (its
/// seeding is unspecified). FNV-1a over the canonical strings gives the
/// property a sharded server needs: the same shape hashes identically
/// across shards, processes, and restarts, so repeated traffic always
/// lands on the same warm shard.
pub fn op_route_hash(op: &Op) -> u64 {
    let (kind, pattern, payload) = match op {
        Op::Read(r) => (0u8, r.pattern(), None),
        Op::Update(Update::Insert(i)) => (1u8, i.pattern(), Some(i.subtree())),
        Op::Update(Update::Delete(d)) => (2u8, d.pattern(), None),
    };
    let mut h = fnv1a(FNV_OFFSET, &[kind]);
    h = fnv1a(h, canonical_pattern_key(pattern).as_bytes());
    h = fnv1a(h, &[0xff]); // field separator
    if let Some(t) = payload {
        h = fnv1a(h, canonical_tree_key(t).as_bytes());
    }
    h
}

/// Order-independent routing hash of an operation pair: the two
/// [`op_route_hash`]es are sorted then mixed, so `(a, b)` and `(b, a)`
/// route to the same shard — matching [`PairKey`]'s normalization of
/// the memo cache itself.
pub fn pair_route_hash(a: &Op, b: &Op) -> u64 {
    let (x, y) = (op_route_hash(a), op_route_hash(b));
    let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
    fnv1a(fnv1a(FNV_OFFSET, &lo.to_le_bytes()), &hi.to_le_bytes())
}

/// Per-key compiled form, built **once** at intern time and reused by
/// every pair the key participates in:
///
/// * for a read, the compiled `ℛ(l)` chain of its (linear) pattern;
/// * for an update, the compiled chain of its **spine** (the linear
///   reduction of Lemmas 4 and 8), which for a linear update equals the
///   pattern itself.
///
/// `summary` digests the chain for the batch pre-filter (depth interval,
/// rigid prefix, required symbols).
#[derive(Clone, Debug)]
pub struct OpInfo {
    /// Compiled chain (read pattern, or update spine).
    pub chain: Chain,
    /// Pre-filter digest of `chain`.
    pub summary: Summary,
    /// Is the *full* pattern linear? (For updates the spine is always
    /// linear, but the PTIME update-update route additionally needs the
    /// whole pattern linear.)
    pub linear: bool,
}

impl OpInfo {
    /// Compiles one operation. `None` for a read with a branching
    /// pattern: it is outside the §4 fragment, the PTIME machinery does
    /// not apply to it, and it routes to the NP search. Updates always
    /// compile their spine (Lemmas 4 and 8).
    pub fn of(op: &Op) -> Option<OpInfo> {
        let (chain, linear) = match op {
            Op::Read(r) if r.pattern().is_linear() => (matching::compile(r.pattern()), true),
            Op::Read(_) => return None,
            Op::Update(u) => (
                matching::compile_spine(u.pattern()),
                u.pattern().is_linear(),
            ),
        };
        let summary = chain.summary();
        Some(OpInfo {
            chain,
            summary,
            linear,
        })
    }
}

/// Hash-consing interner for pattern and payload shapes. Also keeps the
/// compiled-automaton cache ([`OpInfo`]): a pattern appearing in k pairs
/// is compiled once, not k times.
#[derive(Default)]
pub struct Interner {
    patterns: HashMap<String, PatternId>,
    trees: HashMap<String, TreeId>,
    /// `None` = the op is a read with a branching pattern (uncompilable:
    /// the PTIME machinery does not apply to it).
    infos: HashMap<OpKey, Option<OpInfo>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns a pattern shape.
    pub fn intern_pattern(&mut self, p: &Pattern) -> PatternId {
        let key = canonical_pattern_key(p);
        let next = PatternId(self.patterns.len() as u32);
        match self.patterns.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                cxu_obs::counter!("sched.intern.pattern_hit").inc();
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                cxu_obs::counter!("sched.intern.pattern_new").inc();
                *e.insert(next)
            }
        }
    }

    /// Interns a payload-tree shape.
    pub fn intern_tree(&mut self, t: &Tree) -> TreeId {
        let key = canonical_tree_key(t);
        let next = TreeId(self.trees.len() as u32);
        match self.trees.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                cxu_obs::counter!("sched.intern.tree_hit").inc();
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                cxu_obs::counter!("sched.intern.tree_new").inc();
                *e.insert(next)
            }
        }
    }

    /// Interns an operation, compiling it if its key is new.
    pub fn intern_op(&mut self, op: &Op) -> OpKey {
        let key = match op {
            Op::Read(r) => OpKey {
                kind: OpKind::Read,
                pattern: self.intern_pattern(r.pattern()),
                payload: None,
            },
            Op::Update(Update::Insert(i)) => OpKey {
                kind: OpKind::Insert,
                pattern: self.intern_pattern(i.pattern()),
                payload: Some(self.intern_tree(i.subtree())),
            },
            Op::Update(Update::Delete(d)) => OpKey {
                kind: OpKind::Delete,
                pattern: self.intern_pattern(d.pattern()),
                payload: None,
            },
        };
        if let Entry::Vacant(slot) = self.infos.entry(key) {
            cxu_obs::counter!("automata.compile.miss").inc();
            slot.insert(OpInfo::of(op));
        } else {
            cxu_obs::counter!("automata.compile.hit").inc();
        }
        key
    }

    /// The compiled form for a key interned earlier. Outer `None`: key
    /// never interned. Inner `None`: branching read, uncompilable.
    pub fn info(&self, key: OpKey) -> Option<&OpInfo> {
        self.infos.get(&key).and_then(|i| i.as_ref())
    }

    /// Number of distinct pattern shapes seen.
    pub fn distinct_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Number of distinct payload shapes seen.
    pub fn distinct_payloads(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_ops::{Insert, Read};
    use cxu_pattern::xpath::parse;
    use cxu_tree::text;

    #[test]
    fn sibling_order_is_canonicalized() {
        let a = parse("a[b][c]/d").unwrap();
        let b = parse("a[c][b]/d").unwrap();
        assert_eq!(canonical_pattern_key(&a), canonical_pattern_key(&b));
        // …but a different output node is a different shape.
        let c = parse("a[b][c]").unwrap();
        assert_ne!(canonical_pattern_key(&a), canonical_pattern_key(&c));
    }

    #[test]
    fn axes_and_wildcards_distinguish() {
        for (x, y) in [("a/b", "a//b"), ("a/b", "a/*"), ("a/b", "x/b")] {
            assert_ne!(
                canonical_pattern_key(&parse(x).unwrap()),
                canonical_pattern_key(&parse(y).unwrap()),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn tree_key_is_isomorphism_invariant() {
        let a = text::parse("r(x(p q) y)").unwrap();
        let b = text::parse("r(y x(q p))").unwrap();
        assert_eq!(canonical_tree_key(&a), canonical_tree_key(&b));
        let c = text::parse("r(y x(q q))").unwrap();
        assert_ne!(canonical_tree_key(&a), canonical_tree_key(&c));
    }

    #[test]
    fn interner_hash_conses() {
        let mut it = Interner::new();
        let r1 = Op::Read(Read::new(parse("a//b").unwrap()));
        let r2 = Op::Read(Read::new(parse("a//b").unwrap()));
        let k1 = it.intern_op(&r1);
        let k2 = it.intern_op(&r2);
        assert_eq!(k1, k2);
        assert_eq!(it.distinct_patterns(), 1);
    }

    #[test]
    fn kind_splits_keys() {
        let mut it = Interner::new();
        let p = parse("a/b").unwrap();
        let read = Op::Read(Read::new(p.clone()));
        let insert = Op::Update(Update::Insert(Insert::new(
            p.clone(),
            text::parse("x").unwrap(),
        )));
        let k1 = it.intern_op(&read);
        let k2 = it.intern_op(&insert);
        assert_ne!(k1, k2);
        assert_eq!(it.distinct_patterns(), 1, "same pattern shape shared");
    }

    #[test]
    fn pair_key_is_unordered() {
        let mut it = Interner::new();
        let a = it.intern_op(&Op::Read(Read::new(parse("a/b").unwrap())));
        let b = it.intern_op(&Op::Read(Read::new(parse("a//b").unwrap())));
        assert_eq!(PairKey::new(a, b), PairKey::new(b, a));
    }
}
