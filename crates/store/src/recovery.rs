//! Startup recovery: snapshot load plus WAL replay, outcomes only.
//!
//! The log records what the put ladder *decided* — the minted revision,
//! its parent, the payload that produced it, which rung answered — not
//! what the client asked. Recovery therefore never re-runs a detector:
//! it inserts the recorded revisions verbatim, in log order, into fresh
//! revision trees. Because insertion is idempotent and the winner rule
//! depends only on the revision *set*, replaying a log over a snapshot
//! that already contains a prefix of it is a no-op for the overlap —
//! which is what makes the snapshot/compaction race crash-safe.
//!
//! Replay restores three things per document: the revision tree, the
//! changes-feed slot (the document's latest commit sequence), and the
//! merge-alias map (base-derived replay id → merge-minted rev). The
//! alias map must survive restarts: a client retrying a merged put
//! against the recovered server has to land on the same noop answer it
//! would have gotten before the crash.

use crate::rev::RevId;
use crate::revtree::{RevNode, RevTree};
use crate::wal::{Scan, WalCorrupt, WalError};
use cxu_gen::json::Json;
use cxu_gen::wire;
use cxu_tree::text;
use std::collections::HashMap;
use std::str::FromStr;

/// What [`crate::store::Store::open`] found on disk, exposed through
/// `recovery_report()` and printed by `cxu serve` on startup.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded (false on first boot).
    pub snapshot_loaded: bool,
    /// The sequence number the snapshot carried.
    pub snapshot_seq: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Trailing bytes discarded by the torn-tail rule.
    pub torn_bytes: u64,
    /// Documents live after recovery.
    pub docs: usize,
    /// Revisions live after recovery.
    pub revisions: u64,
    /// The store's sequence number after recovery.
    pub seq: u64,
}

impl RecoveryReport {
    /// The report as JSON (what the crash harness collects).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("snapshot_loaded", Json::from(self.snapshot_loaded)),
            ("snapshot_seq", Json::from(self.snapshot_seq)),
            ("replayed_records", Json::from(self.replayed_records)),
            ("torn_bytes", Json::from(self.torn_bytes)),
            ("docs", Json::from(self.docs)),
            ("revisions", Json::from(self.revisions)),
            ("seq", Json::from(self.seq)),
        ])
    }
}

/// One document's recovered state.
pub(crate) struct RecoveredDoc {
    pub revs: RevTree,
    pub seq: u64,
    pub aliases: HashMap<RevId, RevId>,
}

/// The whole store's recovered state.
pub(crate) struct Recovered {
    pub docs: HashMap<String, RecoveredDoc>,
    pub seq: u64,
    pub revisions: u64,
    pub report: RecoveryReport,
}

fn corrupt(reason: String) -> WalError {
    WalError::Corrupt(WalCorrupt { offset: 0, reason })
}

fn rev_field(v: &Json, key: &str) -> Result<RevId, WalError> {
    let s = v
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt(format!("record missing {key:?}")))?;
    RevId::from_str(s).map_err(|e| corrupt(format!("record {key:?}: {e}")))
}

/// Renders one revision's node fields (shared by WAL records and
/// snapshot entries).
fn node_fields(rev: &RevId, node: &RevNode) -> Vec<(&'static str, Json)> {
    let mut out = vec![("rev", Json::str(rev.to_string()))];
    if let Some(p) = &node.parent {
        out.push(("parent", Json::str(p.to_string())));
    }
    out.push(("deleted", Json::from(node.deleted)));
    out.push(("seq", Json::from(node.seq)));
    if let Some(c) = &node.content {
        out.push(("content", Json::str(text::to_text(c))));
    }
    if let Some(u) = &node.op {
        out.push(("op", wire::update_to_json(u)));
    }
    out
}

fn node_from_json(v: &Json) -> Result<(RevId, RevNode), WalError> {
    let rev = rev_field(v, "rev")?;
    let parent = match v.get("parent") {
        Some(_) => Some(rev_field(v, "parent")?),
        None => None,
    };
    let deleted = v.get("deleted").and_then(Json::as_bool).unwrap_or(false);
    let seq = v.get("seq").and_then(Json::as_u64).unwrap_or(0);
    let content = match v.get("content").and_then(Json::as_str) {
        Some(s) => Some(
            text::parse_stored(s).map_err(|e| corrupt(format!("record content for {rev}: {e}")))?,
        ),
        None => None,
    };
    let op = match v.get("op") {
        Some(j) => Some(
            wire::update_from_json(j).map_err(|e| corrupt(format!("record op for {rev}: {e}")))?,
        ),
        None => None,
    };
    Ok((
        rev,
        RevNode {
            parent,
            deleted,
            content,
            op,
            seq,
        },
    ))
}

/// Renders one commit's WAL record as a JSON value (the body of a
/// standalone frame, or one element of a transaction frame).
pub(crate) fn record_json(
    doc_id: &str,
    rev: &RevId,
    node: &RevNode,
    result: &'static str,
    alias: Option<&RevId>,
) -> Json {
    let mut fields = vec![("doc", Json::str(doc_id)), ("result", Json::str(result))];
    fields.extend(node_fields(rev, node));
    if let Some(a) = alias {
        fields.push(("alias", Json::str(a.to_string())));
    }
    Json::obj(fields)
}

/// Renders one commit's WAL record body.
pub(crate) fn record_body(
    doc_id: &str,
    rev: &RevId,
    node: &RevNode,
    result: &'static str,
    alias: Option<&RevId>,
) -> String {
    record_json(doc_id, rev, node, result, alias).to_string()
}

/// Renders a transaction frame: every commit of one atomic transaction
/// inside a single checksummed WAL record. Atomicity falls out of the
/// framing — the frame has one checksum, so the torn-tail rule keeps
/// either the whole transaction or none of it; a partial transaction
/// cannot survive a crash.
pub(crate) fn txn_body(records: Vec<Json>) -> String {
    Json::obj(vec![("txn", Json::Arr(records))]).to_string()
}

/// Renders the snapshot body for the given live state. Documents and
/// revisions are sorted so identical states produce identical bytes.
pub(crate) fn snapshot_body<'a>(
    seq: u64,
    docs: impl Iterator<Item = (&'a str, &'a RevTree, u64, &'a HashMap<RevId, RevId>)>,
) -> String {
    let mut entries: Vec<(&str, &RevTree, u64, &HashMap<RevId, RevId>)> = docs.collect();
    entries.sort_by_key(|(id, ..)| *id);
    let docs_json: Vec<Json> = entries
        .into_iter()
        .map(|(id, revs, doc_seq, aliases)| {
            let mut nodes: Vec<(&RevId, &RevNode)> = revs.iter().collect();
            nodes.sort_by_key(|(r, _)| **r);
            let revs_json: Vec<Json> = nodes
                .into_iter()
                .map(|(r, n)| Json::obj(node_fields(r, n)))
                .collect();
            let mut alias_pairs: Vec<(&RevId, &RevId)> = aliases.iter().collect();
            alias_pairs.sort();
            let aliases_json: Vec<Json> = alias_pairs
                .into_iter()
                .map(|(a, b)| Json::Arr(vec![Json::str(a.to_string()), Json::str(b.to_string())]))
                .collect();
            Json::obj(vec![
                ("id", Json::str(id)),
                ("seq", Json::from(doc_seq)),
                ("aliases", Json::Arr(aliases_json)),
                ("revs", Json::Arr(revs_json)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("v", Json::from(1u64)),
        ("seq", Json::from(seq)),
        ("docs", Json::Arr(docs_json)),
    ])
    .to_string()
}

/// Replays one commit record (a standalone frame's body, or one element
/// of a transaction frame) into the recovered state.
fn apply_record(
    v: &Json,
    docs: &mut HashMap<String, RecoveredDoc>,
    seq: &mut u64,
    revisions: &mut u64,
) -> Result<(), WalError> {
    let doc_id = v
        .get("doc")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("wal record missing doc".to_owned()))?;
    let (rev, node) = node_from_json(v)?;
    let node_seq = node.seq;
    let doc = docs
        .entry(doc_id.to_owned())
        .or_insert_with(|| RecoveredDoc {
            revs: RevTree::new(),
            seq: 0,
            aliases: HashMap::new(),
        });
    if doc.revs.insert(rev, node) {
        *revisions += 1;
    }
    doc.seq = doc.seq.max(node_seq);
    *seq = (*seq).max(node_seq);
    if let Some(a) = v.get("alias") {
        let from = a
            .as_str()
            .and_then(|s| RevId::from_str(s).ok())
            .ok_or_else(|| corrupt("wal record alias".to_owned()))?;
        doc.aliases.insert(from, rev);
    }
    Ok(())
}

/// Rebuilds the store's state from an optional snapshot body plus the
/// WAL scan. Counts `store.wal.replayed_on_recovery` as it goes.
pub(crate) fn rebuild(snapshot: Option<&str>, scan: &Scan) -> Result<Recovered, WalError> {
    let mut docs: HashMap<String, RecoveredDoc> = HashMap::new();
    let mut seq = 0u64;
    let mut revisions = 0u64;
    let mut snapshot_seq = 0u64;

    if let Some(body) = snapshot {
        let v = Json::parse(body).map_err(|e| corrupt(format!("snapshot: {e}")))?;
        snapshot_seq = v
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("snapshot missing seq".to_owned()))?;
        seq = snapshot_seq;
        let doc_list = v
            .get("docs")
            .and_then(Json::as_arr)
            .ok_or_else(|| corrupt("snapshot missing docs".to_owned()))?;
        for d in doc_list {
            let id = d
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("snapshot doc missing id".to_owned()))?;
            let doc_seq = d.get("seq").and_then(Json::as_u64).unwrap_or(0);
            let mut revs = RevTree::new();
            for nj in d.get("revs").and_then(Json::as_arr).unwrap_or(&[]) {
                let (rev, node) = node_from_json(nj)?;
                if revs.insert(rev, node) {
                    revisions += 1;
                }
            }
            let mut aliases = HashMap::new();
            for pair in d.get("aliases").and_then(Json::as_arr).unwrap_or(&[]) {
                let p = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| corrupt("snapshot alias is not a pair".to_owned()))?;
                let from = p[0]
                    .as_str()
                    .and_then(|s| RevId::from_str(s).ok())
                    .ok_or_else(|| corrupt("snapshot alias key".to_owned()))?;
                let to = p[1]
                    .as_str()
                    .and_then(|s| RevId::from_str(s).ok())
                    .ok_or_else(|| corrupt("snapshot alias value".to_owned()))?;
                aliases.insert(from, to);
            }
            docs.insert(
                id.to_owned(),
                RecoveredDoc {
                    revs,
                    seq: doc_seq,
                    aliases,
                },
            );
        }
    }

    let mut replayed = 0u64;
    for body in &scan.records {
        let v = Json::parse(body).map_err(|e| corrupt(format!("wal record: {e}")))?;
        if let Some(inner) = v.get("txn") {
            // A transaction frame: replay every inner commit, in the
            // order the transaction staged them. The frame counts once
            // toward `replayed_records` — one append, one replay — so
            // the WAL accounting identities keep holding.
            let inner = inner
                .as_arr()
                .ok_or_else(|| corrupt("wal txn frame is not an array".to_owned()))?;
            for record in inner {
                apply_record(record, &mut docs, &mut seq, &mut revisions)?;
            }
            replayed += 1;
            continue;
        }
        apply_record(&v, &mut docs, &mut seq, &mut revisions)?;
        replayed += 1;
    }
    cxu_obs::counter!("store.wal.replayed_on_recovery").add(replayed);

    let report = RecoveryReport {
        snapshot_loaded: snapshot.is_some(),
        snapshot_seq,
        replayed_records: replayed,
        torn_bytes: scan.torn_bytes,
        docs: docs.len(),
        revisions,
        seq,
    };
    Ok(Recovered {
        docs,
        seq,
        revisions,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(parent: Option<RevId>, deleted: bool, content: Option<&str>, seq: u64) -> RevNode {
        RevNode {
            parent,
            deleted,
            content: content.map(|s| text::parse(s).unwrap()),
            op: None,
            seq,
        }
    }

    #[test]
    fn record_body_roundtrips_through_rebuild() {
        let root = RevId::derive(None, "content\0a(b)", false);
        let child = RevId::derive(Some(&root), "content\0a(b c)", false);
        let records = vec![
            record_body(
                "d",
                &root,
                &node(None, false, Some("a(b)"), 1),
                "created",
                None,
            ),
            record_body(
                "d",
                &child,
                &node(Some(root), false, Some("a(b c)"), 2),
                "applied",
                None,
            ),
        ];
        let scan = Scan {
            records,
            offsets: vec![0, 0],
            valid_len: 0,
            torn_bytes: 3,
        };
        let r = rebuild(None, &scan).unwrap();
        assert_eq!(r.seq, 2);
        assert_eq!(r.revisions, 2);
        assert_eq!(r.report.replayed_records, 2);
        assert_eq!(r.report.torn_bytes, 3);
        assert!(!r.report.snapshot_loaded);
        let doc = &r.docs["d"];
        assert_eq!(doc.revs.winner(), Some(child));
        assert_eq!(doc.seq, 2);
    }

    #[test]
    fn alias_records_restore_the_alias_map() {
        let root = RevId::derive(None, "content\0a(b)", false);
        let merged = RevId::derive(Some(&root), "update\0x", false);
        let alias = RevId::derive(Some(&root), "update\0y", false);
        let scan = Scan {
            records: vec![
                record_body(
                    "d",
                    &root,
                    &node(None, false, Some("a(b)"), 1),
                    "created",
                    None,
                ),
                record_body(
                    "d",
                    &merged,
                    &node(Some(root), false, Some("a(b)"), 2),
                    "merged",
                    Some(&alias),
                ),
            ],
            offsets: vec![0, 0],
            valid_len: 0,
            torn_bytes: 0,
        };
        let r = rebuild(None, &scan).unwrap();
        assert_eq!(r.docs["d"].aliases.get(&alias), Some(&merged));
    }

    #[test]
    fn snapshot_roundtrips_and_replay_over_it_is_idempotent() {
        let root = RevId::derive(None, "content\0a(b)", false);
        let mut revs = RevTree::new();
        revs.insert(root, node(None, false, Some("a(b)"), 1));
        let aliases: HashMap<RevId, RevId> = HashMap::new();
        let body = snapshot_body(1, vec![("d", &revs, 1u64, &aliases)].into_iter());

        // Replaying the same commit the snapshot already holds changes
        // nothing (the crash-between-snapshot-and-reset case).
        let scan = Scan {
            records: vec![record_body(
                "d",
                &root,
                &node(None, false, Some("a(b)"), 1),
                "created",
                None,
            )],
            offsets: vec![0],
            valid_len: 0,
            torn_bytes: 0,
        };
        let r = rebuild(Some(&body), &scan).unwrap();
        assert_eq!(r.revisions, 1, "idempotent overlap");
        assert_eq!(r.seq, 1);
        assert!(r.report.snapshot_loaded);
        assert_eq!(r.report.snapshot_seq, 1);
    }

    #[test]
    fn snapshot_body_is_deterministic() {
        let root = RevId::derive(None, "content\0a", false);
        let mut t1 = RevTree::new();
        t1.insert(root, node(None, false, Some("a"), 1));
        let a: HashMap<RevId, RevId> = HashMap::new();
        let b1 = snapshot_body(1, vec![("d", &t1, 1u64, &a)].into_iter());
        let b2 = snapshot_body(1, vec![("d", &t1, 1u64, &a)].into_iter());
        assert_eq!(b1, b2);
    }

    #[test]
    fn txn_frames_replay_every_inner_commit_but_count_once() {
        let r1 = RevId::derive(None, "content\0a(b)", false);
        let r2 = RevId::derive(None, "content\0x(y)", false);
        let c1 = RevId::derive(Some(&r1), "update\0u1", false);
        let c2 = RevId::derive(Some(&r2), "update\0u2", false);
        let records = vec![
            record_body(
                "d1",
                &r1,
                &node(None, false, Some("a(b)"), 1),
                "created",
                None,
            ),
            record_body(
                "d2",
                &r2,
                &node(None, false, Some("x(y)"), 2),
                "created",
                None,
            ),
            txn_body(vec![
                record_json(
                    "d1",
                    &c1,
                    &node(Some(r1), false, Some("a(b c)"), 3),
                    "applied",
                    None,
                ),
                record_json(
                    "d2",
                    &c2,
                    &node(Some(r2), false, Some("x(y z)"), 4),
                    "applied",
                    Some(&r1),
                ),
            ]),
        ];
        let scan = Scan {
            records,
            offsets: vec![0, 0, 0],
            valid_len: 0,
            torn_bytes: 0,
        };
        let r = rebuild(None, &scan).unwrap();
        assert_eq!(r.seq, 4);
        assert_eq!(r.revisions, 4);
        assert_eq!(r.report.replayed_records, 3, "one frame, one replay");
        assert_eq!(r.docs["d1"].revs.winner(), Some(c1));
        assert_eq!(r.docs["d2"].revs.winner(), Some(c2));
        assert_eq!(r.docs["d1"].seq, 3);
        assert_eq!(r.docs["d2"].seq, 4);
        assert_eq!(
            r.docs["d2"].aliases.get(&r1),
            Some(&c2),
            "inner aliases restore"
        );

        // A malformed frame fails loudly, like any other record.
        let scan = Scan {
            records: vec![r#"{"txn": 7}"#.to_owned()],
            offsets: vec![0],
            valid_len: 0,
            torn_bytes: 0,
        };
        assert!(rebuild(None, &scan).is_err());
    }

    #[test]
    fn garbage_records_fail_loudly() {
        for bad in [
            "not json",
            r#"{"rev":"1-00"}"#,           // bad rev, no doc
            r#"{"doc":"d"}"#,              // no rev
            r#"{"doc":"d","rev":"1-zz"}"#, // unparseable rev
        ] {
            let scan = Scan {
                records: vec![bad.to_owned()],
                offsets: vec![0],
                valid_len: 0,
                torn_bytes: 0,
            };
            assert!(rebuild(None, &scan).is_err(), "{bad:?}");
        }
    }
}
