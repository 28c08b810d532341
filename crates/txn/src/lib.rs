//! Transaction programs: ordered multi-op updates with snapshot-read
//! guards.
//!
//! The paper's pairwise detectors decide whether two *operations*
//! conflict; the unit of work real clients submit is a *sequence* of
//! updates that must apply atomically or not at all — the "transaction
//! programs" direction opened by FLUX (Cheney) and rewrite-based update
//! verification (Jacquemard/Rusinowitch). This crate holds the program
//! representation shared by every layer:
//!
//! - [`Txn`] — ordered writes over one or more documents plus optional
//!   [guards](cxu_store::TxnGuard) asserting the base revision each
//!   document was observed at. Wire form via [`Txn::from_wire`] /
//!   [`Txn::to_wire`] (the [`cxu_gen::wire::TxnWire`] schema).
//! - [`Txn::apply`] — atomic commit through
//!   [`Store::apply_txn`](cxu_store::Store::apply_txn): all revisions
//!   mint in a single WAL frame, or nothing changes. Conflict analysis
//!   happens there, against what committed since the guards — the
//!   store's one write path, which puts share.
//! - [`serial`] — the observational serial-equivalence oracle the
//!   validation harness replays ≥1000 seeded transaction mixes
//!   against: an admitted interleaving is correct iff its final state
//!   equals *some* serial order of the committed transactions.

use cxu_gen::wire::TxnWire;
use cxu_store::{PairCheck, RevId, Store, TxnError, TxnGuard, TxnOutcome, TxnWrite};
use std::fmt;
use std::str::FromStr;

pub mod serial;

/// Error turning a wire transaction into a typed program (bad revision
/// strings; op-level errors are caught earlier by the wire codec).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnParseError(pub String);

impl fmt::Display for TxnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn parse error: {}", self.0)
    }
}

impl std::error::Error for TxnParseError {}

/// A transaction program: ordered writes plus snapshot-read guards.
///
/// Guards are optional per document. A *written* document without a
/// guard applies at whatever the winner is at commit time (no
/// optimistic check, and retries are not idempotent — see
/// [`Store::apply_txn`](cxu_store::Store::apply_txn)); a guard on a
/// document that is never written is a pure snapshot-read assertion.
#[derive(Clone, Debug, Default)]
pub struct Txn {
    /// Snapshot-read guards, at most one per document.
    pub guards: Vec<TxnGuard>,
    /// The writes, in program order.
    pub writes: Vec<TxnWrite>,
}

impl Txn {
    /// An empty transaction (the store rejects it until writes are
    /// added).
    pub fn new() -> Txn {
        Txn::default()
    }

    /// Adds a snapshot-read guard.
    pub fn guard(mut self, doc: impl Into<String>, rev: RevId) -> Txn {
        self.guards.push(TxnGuard {
            doc: doc.into(),
            rev,
        });
        self
    }

    /// Appends a write.
    pub fn write(mut self, doc: impl Into<String>, op: cxu_ops::Update) -> Txn {
        self.writes.push(TxnWrite {
            doc: doc.into(),
            op,
        });
        self
    }

    /// Decodes a wire transaction, parsing guard revision strings.
    pub fn from_wire(w: &TxnWire) -> Result<Txn, TxnParseError> {
        let mut guards = Vec::with_capacity(w.guards.len());
        for (doc, rev) in &w.guards {
            let rev = RevId::from_str(rev)
                .map_err(|e| TxnParseError(format!("guard for {doc:?}: {e}")))?;
            guards.push(TxnGuard {
                doc: doc.clone(),
                rev,
            });
        }
        let writes = w
            .ops
            .iter()
            .map(|(doc, op)| TxnWrite {
                doc: doc.clone(),
                op: op.clone(),
            })
            .collect();
        Ok(Txn { guards, writes })
    }

    /// Encodes the program back into the wire schema.
    pub fn to_wire(&self) -> TxnWire {
        TxnWire {
            guards: self
                .guards
                .iter()
                .map(|g| (g.doc.clone(), g.rev.to_string()))
                .collect(),
            ops: self
                .writes
                .iter()
                .map(|w| (w.doc.clone(), w.op.clone()))
                .collect(),
        }
    }

    /// The distinct documents this transaction writes, in first-touch
    /// order. The first entry is the shard-routing key in `cxu-serve`
    /// (transactions route like `doc_*` requests).
    pub fn docs(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for w in &self.writes {
            if !out.contains(&w.doc.as_str()) {
                out.push(&w.doc);
            }
        }
        out
    }

    /// Commits the program atomically against `store`. Pure
    /// delegation; see [`Store::apply_txn`](cxu_store::Store::apply_txn)
    /// for the admission and durability contract.
    pub fn apply(&self, store: &Store, check: &mut PairCheck<'_>) -> Result<TxnOutcome, TxnError> {
        store.apply_txn(&self.guards, &self.writes, check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_gen::wire;
    use cxu_ops::{Insert, Update};
    use cxu_pattern::xpath;
    use cxu_sched::{Deadline, Op, SchedConfig, Scheduler};
    use cxu_store::{PutPayload, StoreConfig};
    use cxu_tree::text;

    fn ins(pattern: &str, subtree: &str) -> Update {
        Update::Insert(Insert::new(
            xpath::parse(pattern).unwrap(),
            text::parse(subtree).unwrap(),
        ))
    }

    #[test]
    fn wire_roundtrip_preserves_guards_and_order() {
        let rev = RevId::derive(None, "content\0a(b)", false);
        let t = Txn::new()
            .guard("d1", rev)
            .write("d1", ins("a/b", "x"))
            .write("d2", ins("a/c", "y"))
            .write("d1", ins("a/b", "z"));
        let w = t.to_wire();
        let encoded = wire::txn_to_json(&w).to_string();
        let decoded = wire::txn_from_json(&cxu_gen::json::Json::parse(&encoded).unwrap()).unwrap();
        assert!(wire::txn_eq(&w, &decoded));
        let back = Txn::from_wire(&decoded).unwrap();
        assert_eq!(back.guards.len(), 1);
        assert_eq!(back.guards[0].rev, rev);
        assert_eq!(back.docs(), vec!["d1", "d2"]);
        assert_eq!(back.writes.len(), 3);
    }

    #[test]
    fn from_wire_rejects_bad_revisions() {
        let w = TxnWire {
            guards: vec![("d".to_owned(), "not-a-rev".to_owned())],
            ops: vec![],
        };
        assert!(Txn::from_wire(&w).is_err());
    }

    #[test]
    fn apply_commits_through_the_store() {
        let store = Store::new(StoreConfig::default());
        let mut sched = Scheduler::new(SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        });
        let deadline = Deadline::never();
        let mut check = |a: &Op, b: &Op| sched.check_pair(a, b, &deadline);
        let c = store
            .put(
                "d",
                None,
                PutPayload::Content(text::parse("a(b c)").unwrap()),
                &mut check,
            )
            .unwrap();
        let t = Txn::new()
            .guard("d", c.rev)
            .write("d", ins("a/b", "x"))
            .write("d", ins("a/c", "y"));
        let out = t.apply(&store, &mut check).unwrap();
        assert_eq!(out.revs.len(), 2);
        let g = store.get("d", None, true).unwrap();
        assert!(cxu_tree::iso::isomorphic(
            g.content.as_ref().unwrap(),
            &text::parse("a(b(x) c(y))").unwrap()
        ));
    }
}
