//! The store: named documents, MVCC puts, commutativity-aware merges,
//! and the monotonic changes feed.
//!
//! # One write path
//!
//! Every mutation — `put`, `delete`, `apply_txn` — is a *program*: an
//! ordered list of writes, each naming a document and a payload, plus
//! the base revision the caller read each document at (a put's
//! `base_rev`, a transaction's guards). A put is a one-write program.
//! One commit engine ([`Store::commit`]) runs every program through the
//! same stages:
//!
//! 1. **Validate and snapshot** under the lock: every base names a known
//!    revision, every written document exists (a base-less content put
//!    creates it, or resurrects it over a tombstone winner), and a
//!    read-only guard's document has not moved.
//! 2. **Replay anchors.** Each write's anchor is the id it would mint
//!    committed directly at its base, chained per document. When every
//!    written document has a base and every anchor is already in the
//!    tree — or in the document's alias map, which sends the anchors of
//!    commits that landed elsewhere to the revs they minted — the
//!    program is an idempotent retry and resolves to a noop at the
//!    originally minted revisions. Without the alias map a retried
//!    merged write would prove its op commutes with itself and apply
//!    the edit twice.
//! 3. **Plan.** A base that *is* the winner commits there (the fast
//!    path; no detectors run). A stale base needs the operations on the
//!    chain from the base to the winner, and operation payloads to
//!    check against them; a whole-document write or tombstone commutes
//!    with nothing.
//! 4. **Prove**, with the store unlocked: ask the routed pairwise
//!    detectors about every `(chain op, write op)` pair on the
//!    document. Only when *every* verdict is an **exact no-conflict** —
//!    the paper's commutativity criterion, decided by a non-conservative
//!    detector — do the writes replay on the winner. Exact no-conflict
//!    means the updates commute on *every* document, so replaying after
//!    the intervening ones is observationally equal to a serial order
//!    that ran the program at its base. Relocked, a winner that moved
//!    meanwhile voids the proof: the engine retries a bounded number of
//!    times.
//! 5. **Stage, log, publish**: mint one revision per write against its
//!    document's tip, append the batch to the WAL, then mutate memory.
//!
//! What happens when commutation is *not* proved is the entry point's
//! [`Policy`], which callers cannot choose: a put **branches** — it
//! commits as a sibling child of its base and the winner rule picks —
//! and a transaction **refuses**, retryably, because a branch of half a
//! program is not a serializable unit. The policy decides exactly three
//! places: a chain that cannot be planned or proved (conflicting pairs
//! *and* conservative verdicts — "could not prove" is not "commutes"), a
//! winner that keeps moving, and an identical edit that raced in while
//! the store was unlocked (a put answers it as a noop). Branching and
//! refusing are both always sound.
//!
//! Rejections (unknown document, unknown base revision, creating over a
//! live document, updating a tombstone) are *answers*, not failures, and
//! the caller (cxu-serve) reports them as such.
//!
//! # Locking
//!
//! One mutex guards the whole store; detector calls run **outside** it.
//! The store lock therefore never nests with a scheduler lock, and a
//! slow NP-side check cannot stall readers.
//!
//! # Metrics
//!
//! Every put lands in exactly one bucket of the partition
//! `store.puts == store.put.applied + store.put.merged +
//! store.put.branched + store.put.rejected + store.put.noop +
//! store.put.failed` (`applied` includes creations; `failed` is
//! incremented by the serving layer when a put dies before the store
//! can answer — inside this crate it never moves). `store.docs` and
//! `store.revisions` are gauges set to current levels by
//! [`Store::set_gauges`].

use crate::recovery::{self, RecoveryReport};
use crate::rev::RevId;
use crate::revtree::{RevNode, RevTree};
use crate::snapshot;
use crate::wal::{FsyncPolicy, Wal, WalError};
use cxu_gen::program::Stmt;
use cxu_gen::wire;
use cxu_index::DocIndex;
use cxu_ops::Update;
use cxu_sched::{Op, PairDecision};
use cxu_tree::{text, Tree};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Admission bound on distinct documents; creates beyond it are
    /// rejected (existing documents keep accepting puts).
    pub max_docs: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig { max_docs: 100_000 }
    }
}

/// How many times a commit re-proves after the winner moved under its
/// unlocked detector calls before its [`Policy`] settles it. Branching
/// and refusing are always sound, so the bound only trades merge
/// quality for liveness.
const WINNER_MOVED_RETRIES: usize = 3;

/// Where and how a store persists. Absent (via [`Store::new`]) the
/// store is purely in-memory — the pre-durability behavior.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Data directory holding `wal.cxu` and `snapshot.cxu` (created if
    /// missing).
    pub dir: PathBuf,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Compact (snapshot + WAL reset) once the log holds this many
    /// records; `0` disables automatic compaction. Bounds recovery
    /// time by live state plus one snapshot interval of records.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the conservative defaults:
    /// fsync on every append, compaction every 1024 records.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 1024,
        }
    }
}

/// What a put carries.
#[derive(Clone, Debug)]
pub enum PutPayload {
    /// Full document content: a creation (no base) or a replacement
    /// (with a base). Replacements never auto-merge — a whole-document
    /// write commutes with nothing.
    Content(Tree),
    /// An update operation, applied through `cxu-ops`; the only payload
    /// a stale base can merge.
    Op(Update),
    /// A tombstone (what `doc_delete` sends). Deletion of the whole
    /// document conflicts with every concurrent edit, so a stale-based
    /// tombstone always branches.
    Tombstone,
}

/// How a put landed (one bucket of the metric partition each).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PutResult {
    /// A fresh document (or resurrection over a tombstone winner).
    Created,
    /// Applied at the winner — the uncontended fast path.
    Applied,
    /// The identical revision already existed; nothing changed.
    Noop,
    /// Stale base, but every intervening pair provably commutes: the
    /// op was replayed on the winner, keeping a single head.
    Merged,
    /// Stale base and no proof of commutation: committed as a sibling
    /// of the base; the winner rule arbitrates.
    Branched,
}

impl PutResult {
    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            PutResult::Created => "created",
            PutResult::Applied => "applied",
            PutResult::Noop => "noop",
            PutResult::Merged => "merged",
            PutResult::Branched => "branched",
        }
    }
}

/// A successful put.
#[derive(Clone, Debug)]
pub struct PutOutcome {
    /// The revision this put minted (or found, for [`PutResult::Noop`]).
    pub rev: RevId,
    /// The document's winner after the put.
    pub winner: RevId,
    /// Whether that winner is a tombstone.
    pub winner_deleted: bool,
    /// Which rung of the ladder answered.
    pub result: PutResult,
    /// The document's position in the changes feed after the put.
    pub seq: u64,
    /// Detector pairs consulted (0 unless the base was stale).
    pub checked_pairs: usize,
}

/// A rejected request — an answer, not an internal failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The named document does not exist.
    NotFound(String),
    /// The named base revision is not in the document's revision tree.
    UnknownRev(String),
    /// The request contradicts the document's state (create over a live
    /// document, update of a tombstone, and similar).
    Conflict(String),
    /// The store's document admission bound is full.
    TooManyDocs,
    /// The write-ahead log could not make the commit durable; nothing
    /// was applied, the request can be retried.
    Io(String),
    /// The data directory's log or snapshot cannot be trusted; the
    /// store refuses to open rather than serve a state that disagrees
    /// with past acks.
    Corrupt(String),
}

impl StoreError {
    /// The wire `reason` code.
    pub fn code(&self) -> &'static str {
        match self {
            StoreError::NotFound(_) => "not-found",
            StoreError::UnknownRev(_) => "unknown-rev",
            StoreError::Conflict(_) => "conflict",
            StoreError::TooManyDocs => "too-many-docs",
            StoreError::Io(_) => "io",
            StoreError::Corrupt(_) => "corrupt",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(d) => write!(f, "document {d:?} not found"),
            StoreError::UnknownRev(m) => write!(f, "{m}"),
            StoreError::Conflict(m) => write!(f, "{m}"),
            StoreError::TooManyDocs => write!(f, "document limit reached"),
            StoreError::Io(m) => write!(f, "durability failure: {m}"),
            StoreError::Corrupt(m) => write!(f, "data directory corrupt: {m}"),
        }
    }
}

fn from_wal(e: WalError) -> StoreError {
    match e {
        WalError::Io(m) => StoreError::Io(m),
        WalError::Corrupt(c) => StoreError::Corrupt(c.to_string()),
    }
}

impl std::error::Error for StoreError {}

/// What a get returns.
#[derive(Clone, Debug)]
pub struct GetResult {
    /// The revision read (the winner unless one was requested).
    pub rev: RevId,
    /// Whether it is a tombstone.
    pub deleted: bool,
    /// The content (`None` for tombstones).
    pub content: Option<Tree>,
    /// Open conflicts: losing live leaves (only when asked for).
    pub conflicts: Vec<RevId>,
    /// The document's position in the changes feed.
    pub seq: u64,
}

/// One row of the changes feed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangeEntry {
    /// The document's current sequence number.
    pub seq: u64,
    /// Document id.
    pub doc: String,
    /// Current winner revision.
    pub rev: RevId,
    /// Whether the winner is a tombstone.
    pub deleted: bool,
}

/// The callback the commit engine uses to consult the detectors. Called
/// outside the store lock; `cxu-serve` backs it with
/// `Scheduler::check_pair` under the request's deadline.
pub type PairCheck<'a> = dyn FnMut(&Op, &Op) -> PairDecision + 'a;

/// Admission bound on operations per transaction: bounds the staged
/// state and the single WAL frame a transaction becomes.
pub const MAX_TXN_OPS: usize = 256;

/// One write of a transaction: an update operation against a named
/// document. Transactions edit *existing, live* documents — creation
/// and deletion stay single-op puts, because a whole-document write
/// commutes with nothing and gains nothing from transaction machinery.
#[derive(Clone, Debug)]
pub struct TxnWrite {
    /// Document id.
    pub doc: String,
    /// The operation, applied in transaction order.
    pub op: Update,
}

/// A snapshot-read guard: the transaction observed `rev` as a
/// document's winner and asks the store to hold it to that
/// observation. For a *written* document a stale guard may still
/// commit — when every operation that landed since provably commutes
/// with the transaction's own ops on it (the criterion a stale put
/// merges by). For a *read-only* document the guard demands the winner
/// still be exactly `rev`: there is no op of ours to commute with, so
/// any movement invalidates the read.
#[derive(Clone, Debug)]
pub struct TxnGuard {
    /// Document id.
    pub doc: String,
    /// The winner the transaction read its snapshot at.
    pub rev: RevId,
}

/// A committed (or replayed) transaction.
#[derive(Clone, Debug)]
pub struct TxnOutcome {
    /// One minted revision per write, in transaction order.
    pub revs: Vec<(String, RevId)>,
    /// The store's sequence after the commit (the last write's slot;
    /// unchanged for replays).
    pub seq: u64,
    /// Detector pairs consulted across all guard chains.
    pub checked_pairs: usize,
    /// True when the transaction was recognized as an idempotent
    /// retry of an already-committed transaction: `revs` holds the
    /// originally minted revisions and nothing new was committed.
    pub replayed: bool,
}

/// Why a transaction did not commit. Nothing was applied either way —
/// a transaction's effects are all-or-nothing by construction.
#[derive(Clone, Debug)]
pub enum TxnError {
    /// Optimistic concurrency lost: a guard went stale and the
    /// intervening operations could not be *proved* to commute with
    /// the transaction's own (genuine conflicts and conservative
    /// verdicts alike — the same soundness discipline as the merge
    /// rung: never commit on a guess). Retryable: re-read, re-guard,
    /// resubmit.
    Conflict {
        /// The document whose guard failed.
        doc: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The request is malformed or contradicts document state (unknown
    /// document or revision, tombstoned target, empty program).
    /// Resubmitting the identical transaction cannot succeed.
    Rejected(StoreError),
}

impl TxnError {
    /// The wire `reason` code.
    pub fn code(&self) -> &'static str {
        match self {
            TxnError::Conflict { .. } => "txn-conflict",
            TxnError::Rejected(e) => e.code(),
        }
    }

    /// Whether resubmitting after a fresh read can succeed.
    pub fn retryable(&self) -> bool {
        matches!(self, TxnError::Conflict { .. })
    }
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict { doc, detail } => {
                write!(f, "transaction conflict on {doc:?}: {detail}")
            }
            TxnError::Rejected(e) => write!(f, "transaction rejected: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// One revision row from [`Store::doc_revs`]: `(rev, parent, deleted,
/// content text)`.
pub type RevRow = (RevId, Option<RevId>, bool, Option<String>);

struct DocState {
    revs: RevTree,
    /// The document's latest sequence number (its changes-feed slot).
    seq: u64,
    /// Replay aliases: a commit records one iff its replay anchor (the
    /// id derived from the caller's base) differs from the rev it
    /// minted — a merged write mints from the *winner*, so the anchor a
    /// retry derives is not in the tree. Fast-path and branch commits
    /// need no entry: their minted id *is* the anchor.
    merge_aliases: HashMap<RevId, RevId>,
}

/// The durable half of a store: the open log plus compaction policy.
struct Durable {
    wal: Wal,
    dir: PathBuf,
    snapshot_every: u64,
}

/// A revision's content together with its structural index, shared with
/// every grounded check that reads it (see [`Store::indexed`]).
#[derive(Debug)]
pub struct IndexedDoc {
    /// The revision the snapshot was taken at.
    pub rev: RevId,
    /// The revision's content.
    pub tree: Tree,
    /// Its structural index.
    pub index: DocIndex,
}

struct Inner {
    docs: HashMap<String, DocState>,
    /// One indexed snapshot per document, valid only while `rev` is
    /// still the winner. Invalidated at the single commit point
    /// ([`Inner::publish`]), so every write — applied, merged, branched,
    /// or transactional — drops the stale entry.
    index_cache: HashMap<String, Arc<IndexedDoc>>,
    /// Global commit counter; strictly increases with every commit.
    seq: u64,
    /// Sequence → document, one entry per document (a new commit moves
    /// the document's entry; the feed is "current winners ordered by
    /// last change", exactly CouchDB's `_changes` shape).
    by_seq: BTreeMap<u64, String>,
    /// Total revisions across all documents (gauge bookkeeping).
    revisions: u64,
    /// `Some` for WAL-backed stores (see [`Store::open`]).
    durable: Option<Durable>,
}

/// A concurrent multi-version document store.
pub struct Store {
    cfg: StoreConfig,
    inner: Mutex<Inner>,
    /// What recovery found, for stores opened from a data directory.
    report: Option<RecoveryReport>,
}

impl Default for Store {
    fn default() -> Store {
        Store::new(StoreConfig::default())
    }
}

/// What the commit engine does when it cannot prove a program's writes
/// commute with what committed since their base. Fixed by the entry
/// point; callers cannot choose it.
#[derive(Clone, Copy)]
enum Policy {
    /// `put`/`delete`: commit as a sibling of the base and let the
    /// winner rule arbitrate. Branch programs carry exactly one write.
    Branch,
    /// `apply_txn`: refuse the whole program with a retryable
    /// [`TxnError::Conflict`].
    Refuse,
}

/// One document of a program, as the engine plans it.
struct Plan<'a> {
    doc: &'a str,
    /// The revision the caller read the document at.
    base: Option<RevId>,
    /// The winner at snapshot time (`None` for a document being created).
    winner: Option<RevId>,
    /// Where the document's first write lands.
    at: Option<RevId>,
    /// How the document's writes land.
    rung: PutResult,
    /// The ops committed between `base` and `winner`, which every write
    /// on the document must commute with.
    chain: Vec<Update>,
}

impl Policy {
    /// Settles a document whose commutation could not be proved: a put
    /// falls back to a branch at its base, a transaction refuses.
    fn unproved(self, p: &mut Plan<'_>, detail: impl FnOnce() -> String) -> Result<(), TxnError> {
        match self {
            Policy::Branch => {
                p.at = p.base;
                p.rung = PutResult::Branched;
                Ok(())
            }
            Policy::Refuse => Err(TxnError::Conflict {
                doc: p.doc.to_owned(),
                detail: detail(),
            }),
        }
    }
}

/// One staged revision, ready to log and publish.
struct Staged<'a> {
    doc: &'a str,
    rev: RevId,
    node: RevNode,
    rung: PutResult,
    alias: Option<RevId>,
}

/// What the engine answered, read under the lock that committed (or
/// found) it.
struct Committed {
    /// One revision per write, in program order.
    revs: Vec<(String, RevId)>,
    /// The first document's rung; [`PutResult::Noop`] when nothing new
    /// was committed.
    result: PutResult,
    /// The store's sequence number.
    seq: u64,
    /// The first document's winner, whether it is a tombstone, and its
    /// changes-feed slot.
    head: (RevId, bool, u64),
}

/// The detector work one engine call did, counted by the entry point
/// under its own metric names.
#[derive(Default)]
struct Work {
    checked: usize,
    retries: u64,
    refuted: bool,
}

impl Inner {
    /// Logs a staged batch (durable per policy), *then* publishes it to
    /// memory. On a WAL error nothing is applied — the disk can run
    /// ahead of memory across a crash (replay is idempotent), but memory
    /// must never run ahead of the disk, or a restart would silently
    /// lose an acked write.
    fn publish(&mut self, policy: Policy, staged: Vec<Staged<'_>>) -> Result<(), StoreError> {
        if let Some(d) = &mut self.durable {
            // A put logs one standalone record naming its rung. A
            // transaction logs one `{"txn": [...]}` frame, even for a
            // single write: one checksum, so the torn-tail rule keeps
            // the whole program or none of it.
            let body = match policy {
                Policy::Branch => {
                    let s = &staged[0];
                    recovery::record_body(s.doc, &s.rev, &s.node, s.rung.name(), s.alias.as_ref())
                }
                Policy::Refuse => recovery::txn_body(
                    staged
                        .iter()
                        .map(|s| {
                            recovery::record_json(
                                s.doc,
                                &s.rev,
                                &s.node,
                                "applied",
                                s.alias.as_ref(),
                            )
                        })
                        .collect(),
                ),
            };
            d.wal.append(body.as_bytes()).map_err(from_wal)?;
        }
        self.seq += staged.len() as u64;
        self.revisions += staged.len() as u64;
        for s in staged {
            self.index_cache.remove(s.doc);
            if !self.docs.contains_key(s.doc) {
                self.docs.insert(
                    s.doc.to_owned(),
                    DocState {
                        revs: RevTree::new(),
                        seq: 0,
                        merge_aliases: HashMap::new(),
                    },
                );
            }
            let doc = self.docs.get_mut(s.doc).expect("inserted above");
            if doc.seq != 0 {
                self.by_seq.remove(&doc.seq);
            }
            doc.seq = s.node.seq;
            self.by_seq.insert(s.node.seq, s.doc.to_owned());
            if let Some(a) = s.alias {
                doc.merge_aliases.insert(a, s.rev);
            }
            let inserted = doc.revs.insert(s.rev, s.node);
            debug_assert!(inserted, "staging is only reached for fresh revisions");
        }
        self.maybe_compact();
        Ok(())
    }

    /// The engine's answer for `revs`: the store's sequence number and
    /// the first written document's head.
    fn answer(&self, revs: Vec<(String, RevId)>, result: PutResult) -> Committed {
        let doc = &self.docs[revs[0].0.as_str()];
        let winner = doc.revs.winner().expect("known documents are nonempty");
        let deleted = doc.revs.get(&winner).expect("winner exists").deleted;
        Committed {
            head: (winner, deleted, doc.seq),
            revs,
            result,
            seq: self.seq,
        }
    }

    /// Compacts when the log has grown past the configured bound. A
    /// failed compaction is counted, not fatal: the put that triggered
    /// it already committed, and the log simply stays long.
    fn maybe_compact(&mut self) {
        let due = self
            .durable
            .as_ref()
            .is_some_and(|d| d.snapshot_every > 0 && d.wal.records() >= d.snapshot_every);
        if due && self.compact().is_err() {
            cxu_obs::counter!("store.wal.compact_errors").inc();
        }
    }

    /// Writes a snapshot of the live state, then resets the log.
    /// Ordered so a crash between the two steps leaves a snapshot plus
    /// a redundant log — and replaying that log is a no-op.
    fn compact(&mut self) -> Result<(), StoreError> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        let body = recovery::snapshot_body(
            self.seq,
            self.docs
                .iter()
                .map(|(id, s)| (id.as_str(), &s.revs, s.seq, &s.merge_aliases)),
        );
        snapshot::save(&d.dir, body.as_bytes()).map_err(from_wal)?;
        d.wal.reset().map_err(from_wal)?;
        cxu_obs::counter!("store.wal.compactions").inc();
        Ok(())
    }
}

/// The canonical payload text a revision id is derived from. Creates
/// and replacements hash the content's text form, operations hash their
/// wire encoding — deterministic renderings, so identical edits mint
/// identical revision ids on every replica.
fn payload_text(payload: &PutPayload) -> String {
    match payload {
        PutPayload::Content(t) => format!("content\0{}", text::to_text(t)),
        PutPayload::Op(u) => format!("update\0{}", wire::stmt_to_json(&Stmt::Update(u.clone()))),
        PutPayload::Tombstone => "tombstone".to_owned(),
    }
}

impl Store {
    /// An empty in-memory store (no durability).
    pub fn new(cfg: StoreConfig) -> Store {
        Store {
            cfg,
            inner: Mutex::new(Inner {
                docs: HashMap::new(),
                index_cache: HashMap::new(),
                seq: 0,
                by_seq: BTreeMap::new(),
                revisions: 0,
                durable: None,
            }),
            report: None,
        }
    }

    /// Opens (or creates) a WAL-backed store rooted at `dcfg.dir`:
    /// loads the snapshot if one exists, replays the log over it with
    /// torn-tail truncation, and rebuilds the changes feed. Fails
    /// loudly on mid-log or snapshot corruption.
    pub fn open(cfg: StoreConfig, dcfg: DurabilityConfig) -> Result<Store, StoreError> {
        std::fs::create_dir_all(&dcfg.dir)
            .map_err(|e| StoreError::Io(format!("create {}: {e}", dcfg.dir.display())))?;
        cxu_obs::counter!("store.recovery.runs").inc();
        let snap = snapshot::load(&dcfg.dir).map_err(from_wal)?;
        let (wal, scan) = Wal::open(&dcfg.dir, dcfg.fsync).map_err(from_wal)?;
        let recovered = recovery::rebuild(snap.as_deref(), &scan).map_err(from_wal)?;
        if recovered.report.snapshot_loaded {
            cxu_obs::counter!("store.recovery.snapshot_loaded").inc();
        }
        cxu_obs::counter!("store.recovery.torn_bytes").add(recovered.report.torn_bytes);
        let mut docs = HashMap::new();
        let mut by_seq = BTreeMap::new();
        for (id, d) in recovered.docs {
            if d.seq != 0 {
                by_seq.insert(d.seq, id.clone());
            }
            docs.insert(
                id,
                DocState {
                    revs: d.revs,
                    seq: d.seq,
                    merge_aliases: d.aliases,
                },
            );
        }
        Ok(Store {
            cfg,
            inner: Mutex::new(Inner {
                docs,
                index_cache: HashMap::new(),
                seq: recovered.seq,
                by_seq,
                revisions: recovered.revisions,
                durable: Some(Durable {
                    wal,
                    dir: dcfg.dir,
                    snapshot_every: dcfg.snapshot_every,
                }),
            }),
            report: Some(recovered.report),
        })
    }

    /// What recovery found, for stores opened with [`Store::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.report.clone()
    }

    /// Whether this store writes a WAL.
    pub fn is_durable(&self) -> bool {
        self.lock().durable.is_some()
    }

    /// Forces buffered log records to stable storage (a no-op for
    /// in-memory stores and under `FsyncPolicy::Always`).
    pub fn flush(&self) -> Result<(), StoreError> {
        match &mut self.lock().durable {
            Some(d) => d.wal.sync().map_err(from_wal),
            None => Ok(()),
        }
    }

    /// Snapshots the live state and resets the log (what graceful
    /// shutdown calls so the next boot replays nothing).
    pub fn compact(&self) -> Result<(), StoreError> {
        self.lock().compact()
    }

    /// Records currently in the log (0 for in-memory stores).
    pub fn wal_records(&self) -> u64 {
        self.lock().durable.as_ref().map_or(0, |d| d.wal.records())
    }

    /// Every revision of `doc_id` as a [`RevRow`], sorted by id — a
    /// deterministic fingerprint of the document's whole tree, for
    /// state-equality checks in tests.
    pub fn doc_revs(&self, doc_id: &str) -> Option<Vec<RevRow>> {
        let inner = self.lock();
        let doc = inner.docs.get(doc_id)?;
        let mut out: Vec<_> = doc
            .revs
            .iter()
            .map(|(r, n)| {
                (
                    *r,
                    n.parent,
                    n.deleted,
                    n.content.as_ref().map(text::to_text),
                )
            })
            .collect();
        out.sort_by_key(|(r, ..)| *r);
        Some(out)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Puts `payload` against `base_rev`: a one-write program whose
    /// policy branches (see the module docs). `check` is consulted only
    /// for a stale operation, with the store unlocked.
    pub fn put(
        &self,
        doc_id: &str,
        base_rev: Option<RevId>,
        payload: PutPayload,
        check: &mut PairCheck<'_>,
    ) -> Result<PutOutcome, StoreError> {
        let t0 = Instant::now();
        let out = self.put_one(doc_id, base_rev, payload, check);
        Self::tally_put(&out);
        cxu_obs::histogram!("store.put_ns").record_since(t0);
        out
    }

    /// Tombstones the document at `base_rev`. A delete is a put of a
    /// tombstone, which commutes with nothing, so a stale delete always
    /// branches and never reaches the detectors.
    pub fn delete(&self, doc_id: &str, base_rev: RevId) -> Result<PutOutcome, StoreError> {
        let t0 = Instant::now();
        let mut never = |_: &Op, _: &Op| -> PairDecision {
            unreachable!("a tombstone is never checked against the detectors")
        };
        let out = self.put_one(doc_id, Some(base_rev), PutPayload::Tombstone, &mut never);
        Self::tally_put(&out);
        cxu_obs::counter!("store.deletes").inc();
        cxu_obs::histogram!("store.put_ns").record_since(t0);
        out
    }

    fn put_one(
        &self,
        doc_id: &str,
        base_rev: Option<RevId>,
        payload: PutPayload,
        check: &mut PairCheck<'_>,
    ) -> Result<PutOutcome, StoreError> {
        if base_rev.is_none() && !matches!(payload, PutPayload::Content(_)) {
            return Err(StoreError::Conflict(
                "a put without base_rev must carry full content".to_owned(),
            ));
        }
        let base = base_rev.map(|b| (doc_id, b));
        let mut work = Work::default();
        let out = self.commit(
            Policy::Branch,
            base.as_slice(),
            &[(doc_id, payload)],
            check,
            &mut work,
        );
        cxu_obs::counter!("store.merge.checked_pairs").add(work.checked as u64);
        cxu_obs::counter!("store.put.retries").add(work.retries);
        let c = out.map_err(|e| match e {
            TxnError::Rejected(e) => e,
            TxnError::Conflict { detail, .. } => StoreError::Conflict(detail),
        })?;
        let (winner, winner_deleted, seq) = c.head;
        Ok(PutOutcome {
            rev: c.revs[0].1,
            winner,
            winner_deleted,
            result: c.result,
            seq,
            checked_pairs: work.checked,
        })
    }

    fn tally_put(out: &Result<PutOutcome, StoreError>) {
        // `store.puts` and its partition bucket move together, at the
        // moment the answer exists — a put that dies earlier (panic,
        // injected fault in the serving layer) is the caller's
        // `store.put.failed`, keeping the partition identity exact.
        cxu_obs::counter!("store.puts").inc();
        match out {
            Ok(o) => match o.result {
                PutResult::Created | PutResult::Applied => {
                    cxu_obs::counter!("store.put.applied").inc()
                }
                PutResult::Noop => cxu_obs::counter!("store.put.noop").inc(),
                PutResult::Merged => cxu_obs::counter!("store.put.merged").inc(),
                PutResult::Branched => cxu_obs::counter!("store.put.branched").inc(),
            },
            Err(_) => cxu_obs::counter!("store.put.rejected").inc(),
        }
    }

    /// Applies a transaction atomically: every write commits — all
    /// revisions minted, logged as a **single** checksummed WAL frame,
    /// visible in one changes-feed step per document — or nothing
    /// changes at all.
    ///
    /// A transaction is a program whose policy refuses (see the module
    /// docs): a guard whose revision is no longer the winner does not
    /// fail outright — the operations that landed in between are
    /// checked pairwise against the transaction's own ops on that
    /// document, and only when *every* pair is an exact, non-degraded
    /// no-conflict does the transaction replay on the current winner.
    /// Any genuine conflict, any conservative verdict, or a read-only
    /// guard whose winner moved at all, turns into a retryable
    /// [`TxnError::Conflict`]. Transactions never branch: a branch of
    /// half a program would not be a serializable unit.
    ///
    /// Same-document writes chain — the second op applies to the
    /// first's result — and detector calls run with the store
    /// unlocked, re-verifying winner stability before committing.
    ///
    /// Retries are idempotent when **every written document carries a
    /// guard**: each write's client-view revision id (derived by
    /// chaining from the guard) is recorded as a replay alias, so
    /// resubmitting an already-committed transaction resolves to a
    /// no-op at the originally minted revisions. Unguarded writes
    /// anchor at whatever the winner happens to be, which a retry
    /// cannot reproduce — clients that retry must guard.
    pub fn apply_txn(
        &self,
        guards: &[TxnGuard],
        writes: &[TxnWrite],
        check: &mut PairCheck<'_>,
    ) -> Result<TxnOutcome, TxnError> {
        let t0 = Instant::now();
        let out = self.apply_txn_inner(guards, writes, check);
        // `txn.commits` partitions exactly like `store.puts`:
        // `txn.commits == txn.applied + txn.conflicted + txn.rejected
        // + txn.failed`, where `failed` belongs to the serving layer
        // (a transaction that dies before the store can answer).
        cxu_obs::counter!("txn.commits").inc();
        cxu_obs::counter!("txn.ops").add(writes.len() as u64);
        match &out {
            Ok(_) => cxu_obs::counter!("txn.applied").inc(),
            Err(TxnError::Conflict { .. }) => cxu_obs::counter!("txn.conflicted").inc(),
            Err(TxnError::Rejected(_)) => cxu_obs::counter!("txn.rejected").inc(),
        }
        cxu_obs::histogram!("store.txn_ns").record_since(t0);
        out
    }

    fn apply_txn_inner(
        &self,
        guards: &[TxnGuard],
        writes: &[TxnWrite],
        check: &mut PairCheck<'_>,
    ) -> Result<TxnOutcome, TxnError> {
        let reject = |e: StoreError| TxnError::Rejected(e);
        if writes.is_empty() {
            return Err(reject(StoreError::Conflict(
                "transaction has no writes".to_owned(),
            )));
        }
        if writes.len() > MAX_TXN_OPS {
            return Err(reject(StoreError::Conflict(format!(
                "transaction has {} writes; the limit is {MAX_TXN_OPS}",
                writes.len()
            ))));
        }
        let mut guarded = HashSet::new();
        if let Some(g) = guards.iter().find(|g| !guarded.insert(g.doc.as_str())) {
            return Err(reject(StoreError::Conflict(format!(
                "duplicate guard for document {:?}",
                g.doc
            ))));
        }
        let guards: Vec<(&str, RevId)> = guards.iter().map(|g| (g.doc.as_str(), g.rev)).collect();
        let writes: Vec<(&str, PutPayload)> = writes
            .iter()
            .map(|w| (w.doc.as_str(), PutPayload::Op(w.op.clone())))
            .collect();
        let mut work = Work::default();
        let out = self.commit(Policy::Refuse, &guards, &writes, check, &mut work);
        cxu_obs::counter!("txn.pair.checked").add(work.checked as u64);
        if work.refuted {
            cxu_obs::counter!("txn.pair.conflicts").inc();
        }
        cxu_obs::counter!("txn.retries").add(work.retries);
        let c = out?;
        Ok(TxnOutcome {
            revs: c.revs,
            seq: c.seq,
            checked_pairs: work.checked,
            replayed: c.result == PutResult::Noop,
        })
    }

    /// The commit engine behind [`Store::put`], [`Store::delete`], and
    /// [`Store::apply_txn`]: runs `writes` against the `bases` the
    /// caller read its documents at, through the stages of the module
    /// docs, and settles unproved commutation by `policy`. Counts its
    /// detector work into `work`, answered or refused.
    fn commit(
        &self,
        policy: Policy,
        bases: &[(&str, RevId)],
        writes: &[(&str, PutPayload)],
        check: &mut PairCheck<'_>,
        work: &mut Work,
    ) -> Result<Committed, TxnError> {
        let reject = TxnError::Rejected;
        let texts: Vec<String> = writes.iter().map(|(_, p)| payload_text(p)).collect();
        // Documents in first-touch order, written ones first; `slot[i]`
        // is write i's document.
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut docs: Vec<&str> = Vec::new();
        for d in writes.iter().map(|w| w.0).chain(bases.iter().map(|b| b.0)) {
            index.entry(d).or_insert_with(|| {
                docs.push(d);
                docs.len() - 1
            });
        }
        let slot: Vec<usize> = writes.iter().map(|w| index[w.0]).collect();
        let n_written = slot.iter().max().map_or(0, |&k| k + 1);
        let mut base = vec![None; docs.len()];
        for &(d, rev) in bases {
            base[index[d]] = Some(rev);
        }

        let mut attempts = 0;
        loop {
            // 1. Validate and snapshot.
            let mut inner = self.lock();
            for &(d, rev) in bases {
                let doc = inner
                    .docs
                    .get(d)
                    .ok_or_else(|| reject(StoreError::NotFound(d.to_owned())))?;
                if !doc.revs.contains(&rev) {
                    return Err(reject(StoreError::UnknownRev(format!(
                        "document {d:?} has no revision {rev}"
                    ))));
                }
            }
            let mut plans: Vec<Plan> = Vec::with_capacity(docs.len());
            for (k, &d) in docs.iter().enumerate() {
                let state = inner.docs.get(d);
                let winner = state.and_then(|s| s.revs.winner());
                let mut rung = PutResult::Applied;
                match (base[k], winner) {
                    // A read-only guard holds the program to exactly
                    // what it read.
                    (Some(b), Some(w)) if k >= n_written && b != w => {
                        return Err(TxnError::Conflict {
                            doc: d.to_owned(),
                            detail: format!("read guard at {b} but the winner is {w}"),
                        });
                    }
                    // A base-less content write creates the document,
                    // or resurrects it over a tombstone winner.
                    (None, _)
                        if writes
                            .iter()
                            .any(|(wd, p)| *wd == d && matches!(p, PutPayload::Content(_))) =>
                    {
                        match (state, winner) {
                            (Some(s), Some(w))
                                if !s.revs.get(&w).expect("winner exists").deleted =>
                            {
                                return Err(reject(StoreError::Conflict(format!(
                                    "document {d:?} exists at {w}; supply base_rev"
                                ))));
                            }
                            (None, _) if inner.docs.len() >= self.cfg.max_docs => {
                                return Err(reject(StoreError::TooManyDocs));
                            }
                            _ => rung = PutResult::Created,
                        }
                    }
                    (_, None) => return Err(reject(StoreError::NotFound(d.to_owned()))),
                    _ => {}
                }
                plans.push(Plan {
                    doc: d,
                    base: base[k],
                    winner,
                    at: winner,
                    rung,
                    chain: Vec::new(),
                });
            }

            // 2. Replay anchors: the id each write would mint committed
            // directly at its base, chained per document — deterministic
            // in the caller's inputs, so a retry derives the same ones.
            let mut tips: Vec<Option<RevId>> = plans.iter().map(|p| p.base.or(p.winner)).collect();
            let anchors: Vec<RevId> = writes
                .iter()
                .zip(&texts)
                .zip(&slot)
                .map(|(((_, p), text), &k)| {
                    let a =
                        RevId::derive(tips[k].as_ref(), text, matches!(p, PutPayload::Tombstone));
                    tips[k] = Some(a);
                    a
                })
                .collect();
            if plans[..n_written].iter().all(|p| p.base.is_some()) {
                let found: Option<Vec<(String, RevId)>> = writes
                    .iter()
                    .zip(&anchors)
                    .map(|((d, _), a)| {
                        let doc = &inner.docs[*d];
                        let prior = if doc.revs.contains(a) {
                            Some(*a)
                        } else {
                            doc.merge_aliases.get(a).copied()
                        };
                        prior.map(|r| (d.to_string(), r))
                    })
                    .collect();
                if let Some(revs) = found {
                    return Ok(inner.answer(revs, PutResult::Noop));
                }
            }

            // 3. Plan each stale document's op chain.
            for p in &mut plans[..n_written] {
                let (Some(b), Some(w)) = (p.base, p.winner) else {
                    continue;
                };
                if b == w {
                    continue;
                }
                let ops_only = writes
                    .iter()
                    .all(|(d, pl)| *d != p.doc || matches!(pl, PutPayload::Op(_)));
                match ops_only
                    .then(|| Self::plan_chain(&inner.docs[p.doc].revs, &b, &w))
                    .flatten()
                {
                    Some(chain) => {
                        p.chain = chain;
                        p.rung = PutResult::Merged;
                    }
                    None => policy
                        .unproved(p, || format!("guard {b} cannot linearize to winner {w}"))?,
                }
            }

            // 4. Prove every (chain op, write op) pair, store unlocked.
            let mut pairs: Vec<(usize, Op, Op)> = Vec::new();
            for (k, p) in plans.iter().enumerate() {
                for iv in &p.chain {
                    for ((_, pl), _) in writes.iter().zip(&slot).filter(|(_, &s)| s == k) {
                        if let PutPayload::Op(u) = pl {
                            pairs.push((k, Op::Update(iv.clone()), Op::Update(u.clone())));
                        }
                    }
                }
            }
            if !pairs.is_empty() {
                drop(inner);
                let refuted = pairs.iter().find_map(|(k, a, b)| {
                    let v = check(a, b).verdict;
                    work.checked += 1;
                    let conservative = v.detector.is_conservative();
                    (v.conflict || conservative).then_some((*k, conservative))
                });
                if let Some((k, conservative)) = refuted {
                    work.refuted = true;
                    policy.unproved(&mut plans[k], || {
                        if conservative {
                            "an intervening operation could not be proved to commute \
                             (degraded verdict)"
                                .to_owned()
                        } else {
                            "an intervening operation conflicts with the transaction".to_owned()
                        }
                    })?;
                }
                inner = self.lock();
                // A moved winner voids the proof (a branch does not
                // care: it lands at its base).
                let moved = plans.iter().position(|p| {
                    p.rung != PutResult::Branched
                        && inner.docs.get(p.doc).and_then(|s| s.revs.winner()) != p.winner
                });
                if let Some(k) = moved {
                    if attempts < WINNER_MOVED_RETRIES {
                        attempts += 1;
                        work.retries += 1;
                        continue;
                    }
                    policy.unproved(&mut plans[k], || {
                        "the winner kept moving during validation".to_owned()
                    })?;
                }
            }

            // 5. Stage each write against its document's tip (chaining
            // same-document writes), then log and publish.
            let base_seq = inner.seq;
            let mut last: Vec<Option<usize>> = vec![None; plans.len()];
            let mut staged: Vec<Staged> = Vec::with_capacity(writes.len());
            for (i, (((d, pl), text), &k)) in writes.iter().zip(&texts).zip(&slot).enumerate() {
                let (tip, tree) = match last[k] {
                    Some(j) => (Some(staged[j].rev), staged[j].node.content.as_ref()),
                    None => {
                        let at = plans[k].at;
                        let node = at.and_then(|r| inner.docs.get(*d)?.revs.get(&r));
                        (at, node.and_then(|n| n.content.as_ref()))
                    }
                };
                let at = || tip.expect("only creates lack a tip");
                let (content, deleted) = match (pl, tree) {
                    (PutPayload::Content(t), _) => (Some(t.clone()), false),
                    (PutPayload::Op(u), Some(t)) => (Some(u.apply_to_copy(t).0), false),
                    (PutPayload::Op(_), None) => {
                        return Err(reject(StoreError::Conflict(format!(
                            "revision {} of {d:?} is deleted; operations need a live base",
                            at()
                        ))));
                    }
                    (PutPayload::Tombstone, Some(_)) => (None, true),
                    (PutPayload::Tombstone, None) => {
                        return Err(reject(StoreError::Conflict(format!(
                            "revision {} of {d:?} is already deleted",
                            at()
                        ))));
                    }
                };
                let rev = RevId::derive(tip.as_ref(), text, deleted);
                if inner.docs.get(*d).is_some_and(|s| s.revs.contains(&rev)) {
                    // An identical edit at the same parent raced in
                    // while the store was unlocked. A put is that edit;
                    // a transaction would weld half of itself to
                    // someone else's commit, so it hands the race back.
                    return match policy {
                        Policy::Branch => {
                            Ok(inner.answer(vec![(d.to_string(), rev)], PutResult::Noop))
                        }
                        Policy::Refuse => Err(TxnError::Conflict {
                            doc: d.to_string(),
                            detail: format!(
                                "revision {rev} already exists; identical edit raced in"
                            ),
                        }),
                    };
                }
                let node = RevNode {
                    parent: tip,
                    deleted,
                    content,
                    op: match pl {
                        PutPayload::Op(u) => Some(u.clone()),
                        _ => None,
                    },
                    seq: base_seq + i as u64 + 1,
                };
                last[k] = Some(staged.len());
                staged.push(Staged {
                    doc: d,
                    rev,
                    node,
                    rung: plans[k].rung,
                    alias: (anchors[i] != rev).then_some(anchors[i]),
                });
            }
            let revs = staged.iter().map(|s| (s.doc.to_owned(), s.rev)).collect();
            inner.publish(policy, staged).map_err(reject)?;
            return Ok(inner.answer(revs, plans[0].rung));
        }
    }

    /// The operations on the chain from `base` (exclusive) to `winner`
    /// (inclusive), oldest first — what a stale base must commute with.
    /// `None` when the chain cannot linearize: base deleted, base not
    /// an ancestor of the winner (sibling branches), or a revision on
    /// the way without a replayable op (a creation or a tombstone).
    fn plan_chain(revs: &RevTree, base: &RevId, winner: &RevId) -> Option<Vec<Update>> {
        let base_node = revs.get(base)?;
        if base_node.deleted {
            return None;
        }
        let chain = revs.chain(base, winner)?;
        let mut ops = Vec::with_capacity(chain.len());
        for r in &chain {
            ops.push(revs.get(r)?.op.clone()?);
        }
        Some(ops)
    }

    /// Reads a document: the winner, or a named revision.
    pub fn get(
        &self,
        doc_id: &str,
        rev: Option<RevId>,
        with_conflicts: bool,
    ) -> Result<GetResult, StoreError> {
        let t0 = Instant::now();
        cxu_obs::counter!("store.gets").inc();
        let inner = self.lock();
        let doc = inner
            .docs
            .get(doc_id)
            .ok_or_else(|| StoreError::NotFound(doc_id.to_owned()))?;
        let target = match rev {
            Some(r) => {
                if !doc.revs.contains(&r) {
                    return Err(StoreError::UnknownRev(format!(
                        "document {doc_id:?} has no revision {r}"
                    )));
                }
                r
            }
            None => doc.revs.winner().expect("known documents are nonempty"),
        };
        let node = doc.revs.get(&target).expect("checked above");
        let out = GetResult {
            rev: target,
            deleted: node.deleted,
            content: node.content.clone(),
            conflicts: if with_conflicts {
                doc.revs.conflicts()
            } else {
                Vec::new()
            },
            seq: doc.seq,
        };
        drop(inner);
        cxu_obs::histogram!("store.get_ns").record_since(t0);
        Ok(out)
    }

    /// The content of `doc_id` at `rev` (the winner when `None`) together
    /// with its structural index, for document-grounded conflict checks.
    ///
    /// The winner's index is cached per document and shared via `Arc`;
    /// any commit to the document invalidates the entry, so a hit is
    /// always the *current* winner at the moment of the lookup. Indexing
    /// runs **outside** the store lock — a multi-MB build never stalls
    /// puts — and the built entry is only cached after re-checking that
    /// the winner did not move meanwhile. Tombstones are an error:
    /// grounded checks need a live document.
    pub fn indexed(&self, doc_id: &str, rev: Option<RevId>) -> Result<Arc<IndexedDoc>, StoreError> {
        let t0 = Instant::now();
        let (target, content, is_winner) = {
            let inner = self.lock();
            let doc = inner
                .docs
                .get(doc_id)
                .ok_or_else(|| StoreError::NotFound(doc_id.to_owned()))?;
            let winner = doc.revs.winner().expect("known documents are nonempty");
            let target = match rev {
                Some(r) => {
                    if !doc.revs.contains(&r) {
                        return Err(StoreError::UnknownRev(format!(
                            "document {doc_id:?} has no revision {r}"
                        )));
                    }
                    r
                }
                None => winner,
            };
            if target == winner {
                if let Some(cached) = inner.index_cache.get(doc_id) {
                    if cached.rev == target {
                        cxu_obs::counter!("index.cache.hits").inc();
                        return Ok(Arc::clone(cached));
                    }
                }
            }
            let node = doc.revs.get(&target).expect("checked above");
            let Some(content) = node.content.clone() else {
                return Err(StoreError::Conflict(format!(
                    "document {doc_id:?} revision {target} is a tombstone; \
                     grounded checks need a live document"
                )));
            };
            (target, content, target == winner)
        };
        cxu_obs::counter!("index.cache.misses").inc();
        let built = Arc::new(IndexedDoc {
            rev: target,
            index: DocIndex::from_tree(&content),
            tree: content,
        });
        if is_winner {
            let mut inner = self.lock();
            if let Some(doc) = inner.docs.get(doc_id) {
                if doc.revs.winner() == Some(target) {
                    inner
                        .index_cache
                        .insert(doc_id.to_owned(), Arc::clone(&built));
                }
            }
        }
        cxu_obs::histogram!("store.index_ns").record_since(t0);
        Ok(built)
    }

    /// The changes feed: every document whose latest commit is after
    /// `since`, ordered by sequence. Returns the entries and the cursor
    /// to resume from — the last entry's sequence when `limit`
    /// truncated the page, the store's current sequence otherwise
    /// (so an idle tail poll makes progress past deleted history).
    pub fn changes(&self, since: u64, limit: Option<usize>) -> (Vec<ChangeEntry>, u64) {
        let t0 = Instant::now();
        cxu_obs::counter!("store.changes").inc();
        let inner = self.lock();
        let mut out = Vec::new();
        let mut truncated = false;
        for (&seq, doc_id) in inner.by_seq.range(since.saturating_add(1)..) {
            if limit.is_some_and(|l| out.len() >= l) {
                truncated = true;
                break;
            }
            let doc = inner.docs.get(doc_id).expect("by_seq entries are live");
            let rev = doc.revs.winner().expect("known documents are nonempty");
            out.push(ChangeEntry {
                seq,
                doc: doc_id.clone(),
                rev,
                deleted: doc.revs.get(&rev).expect("winner exists").deleted,
            });
        }
        let last_seq = if truncated {
            out.last().map(|e| e.seq).unwrap_or(since)
        } else {
            inner.seq.max(since)
        };
        drop(inner);
        cxu_obs::histogram!("store.changes_ns").record_since(t0);
        (out, last_seq)
    }

    /// Number of documents (live or tombstoned).
    pub fn docs_len(&self) -> usize {
        self.lock().docs.len()
    }

    /// Total revisions across all documents.
    pub fn revisions_len(&self) -> u64 {
        self.lock().revisions
    }

    /// The store's current (largest) sequence number.
    pub fn current_seq(&self) -> u64 {
        self.lock().seq
    }

    /// Sets the `store.docs` / `store.revisions` gauges to current
    /// levels. Gauges are states, not rates — callers rendering a
    /// metrics snapshot refresh them at snapshot time.
    pub fn set_gauges(&self) {
        let inner = self.lock();
        let docs = inner.docs.len() as i64;
        let revisions = inner.revisions.min(i64::MAX as u64) as i64;
        drop(inner);
        cxu_obs::gauge!("store.docs").set(docs);
        cxu_obs::gauge!("store.revisions").set(revisions);
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort final sync: a clean drop should not owe the disk
        // anything under `Interval`/`Never`.
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some(d) = &mut inner.durable {
            let _ = d.wal.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_ops::{Delete, Insert};
    use cxu_pattern::xpath;
    use cxu_sched::{Deadline, SchedConfig, Scheduler};
    use cxu_tree::iso;

    fn content(s: &str) -> PutPayload {
        PutPayload::Content(text::parse(s).unwrap())
    }

    fn insert_op(pattern: &str, subtree: &str) -> Update {
        Update::Insert(Insert::new(
            xpath::parse(pattern).unwrap(),
            text::parse(subtree).unwrap(),
        ))
    }

    fn delete_op(pattern: &str) -> Update {
        Update::Delete(Delete::new(xpath::parse(pattern).unwrap()).unwrap())
    }

    /// A checker backed by a real scheduler (exact verdicts for the
    /// small linear patterns used here).
    fn with_sched(f: impl FnOnce(&mut PairCheck<'_>)) {
        let mut sched = Scheduler::new(SchedConfig {
            jobs: 1,
            ..SchedConfig::default()
        });
        let deadline = Deadline::never();
        let mut check = move |a: &Op, b: &Op| sched.check_pair(a, b, &deadline);
        f(&mut check);
    }

    #[test]
    fn create_fast_path_and_idempotent_replay() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c)"), check).unwrap();
            assert_eq!(c.result, PutResult::Created);
            assert_eq!(c.rev.generation, 1);
            assert_eq!(c.seq, 1);

            let up = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            assert_eq!(up.result, PutResult::Applied);
            assert_eq!(up.rev.generation, 2);
            assert_eq!(up.winner, up.rev);

            // Replaying the identical put is a no-op at the same rev.
            let again = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            assert_eq!(again.result, PutResult::Noop);
            assert_eq!(again.rev, up.rev);
            assert_eq!(store.current_seq(), 2, "no-ops do not advance the feed");

            let g = store.get("d", None, true).unwrap();
            assert!(iso::isomorphic(
                g.content.as_ref().unwrap(),
                &text::parse("a(b(x) c)").unwrap()
            ));
            assert!(g.conflicts.is_empty());
        });
    }

    #[test]
    fn commuting_stale_put_merges_to_a_single_head() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c)"), check).unwrap();
            // Editor 1 lands first.
            let u1 = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            // Editor 2 also edits from the create: stale, but inserting
            // under `a/c` commutes with inserting under `a/b`.
            let u2 = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/c", "y")),
                    check,
                )
                .unwrap();
            assert_eq!(u2.result, PutResult::Merged);
            assert_eq!(u2.rev.generation, 3, "merged on top of the winner");
            assert!(u2.checked_pairs >= 1);
            assert_eq!(u2.winner, u2.rev);
            assert!(u1.rev != u2.rev);

            let g = store.get("d", None, true).unwrap();
            assert!(g.conflicts.is_empty(), "single head, no siblings");
            assert!(iso::isomorphic(
                g.content.as_ref().unwrap(),
                &text::parse("a(b(x) c(y))").unwrap()
            ));
        });
    }

    #[test]
    fn replaying_a_merged_put_is_a_noop_at_the_merged_rev() {
        // Regression: the retry-after-dropped-response case. A merged
        // put mints its rev from the winner, not the client's base; a
        // replay must still be detected (via the alias map) instead of
        // re-running the merge rung — the op commutes with itself, so
        // the detectors would happily apply it a second time.
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c)"), check).unwrap();
            store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            let merged = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/c", "y")),
                    check,
                )
                .unwrap();
            assert_eq!(merged.result, PutResult::Merged);

            let seq_before = store.current_seq();
            let retry = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/c", "y")),
                    check,
                )
                .unwrap();
            assert_eq!(retry.result, PutResult::Noop);
            assert_eq!(retry.rev, merged.rev, "the originally minted rev");
            assert_eq!(retry.winner, merged.winner);
            assert_eq!(store.current_seq(), seq_before, "nothing committed");

            let g = store.get("d", None, true).unwrap();
            assert!(g.conflicts.is_empty());
            assert!(
                iso::isomorphic(
                    g.content.as_ref().unwrap(),
                    &text::parse("a(b(x) c(y))").unwrap()
                ),
                "the edit applied exactly once"
            );
        });
    }

    #[test]
    fn conflicting_stale_put_branches_and_winner_is_deterministic() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b(q) c)"), check).unwrap();
            let u1 = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            // Deleting `a/b` genuinely conflicts with inserting under it.
            let u2 = store
                .put("d", Some(c.rev), PutPayload::Op(delete_op("a/b")), check)
                .unwrap();
            assert_eq!(u2.result, PutResult::Branched);
            assert_eq!(u2.rev.generation, 2, "sibling of the first edit");

            let g = store.get("d", None, true).unwrap();
            assert_eq!(g.conflicts.len(), 1, "both sides preserved");
            // Same generation: the greater hash wins, regardless of
            // which arrived first.
            let expect = if u1.rev.hash > u2.rev.hash {
                u1.rev
            } else {
                u2.rev
            };
            assert_eq!(g.rev, expect);
        });
    }

    #[test]
    fn tombstones_reject_edits_and_allow_resurrection() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b)"), check).unwrap();
            let del = store.delete("d", c.rev).unwrap();
            assert_eq!(del.result, PutResult::Applied);
            assert!(del.winner_deleted);

            // Operations against the tombstone are rejected.
            let err = store
                .put(
                    "d",
                    Some(del.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap_err();
            assert_eq!(err.code(), "conflict");
            // Double delete is rejected too.
            assert_eq!(store.delete("d", del.rev).unwrap_err().code(), "conflict");

            // A create resurrects on top of the tombstone.
            let re = store.put("d", None, content("a(z)"), check).unwrap();
            assert_eq!(re.result, PutResult::Created);
            assert_eq!(re.rev.generation, 3);
            assert!(!store.get("d", None, false).unwrap().deleted);
        });
    }

    #[test]
    fn rejections_name_their_reason() {
        let store = Store::new(StoreConfig { max_docs: 1 });
        with_sched(|check| {
            let c = store.put("d", None, content("a(b)"), check).unwrap();
            let e = store.put("d", None, content("a(c)"), check).unwrap_err();
            assert_eq!(e.code(), "conflict");
            let e = store
                .put(
                    "missing",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap_err();
            assert_eq!(e.code(), "not-found");
            let bogus = RevId {
                generation: 9,
                hash: 0xdead,
            };
            let e = store
                .put(
                    "d",
                    Some(bogus),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap_err();
            assert_eq!(e.code(), "unknown-rev");
            let e = store.put("e", None, content("a(b)"), check).unwrap_err();
            assert_eq!(e.code(), "too-many-docs");
            let e = store
                .put("d", None, PutPayload::Op(insert_op("a/b", "x")), check)
                .unwrap_err();
            assert_eq!(e.code(), "conflict");
        });
    }

    #[test]
    fn changes_feed_tracks_current_winners() {
        let store = Store::default();
        with_sched(|check| {
            let c1 = store.put("one", None, content("a(b)"), check).unwrap();
            let _c2 = store.put("two", None, content("a(c)"), check).unwrap();
            let u1 = store
                .put(
                    "one",
                    Some(c1.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();

            let (entries, last) = store.changes(0, None);
            assert_eq!(entries.len(), 2, "one row per document");
            assert_eq!(last, 3);
            assert_eq!(entries[0].doc, "two", "untouched doc keeps its older slot");
            assert_eq!(entries[1].doc, "one");
            assert_eq!(entries[1].rev, u1.rev);
            assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));

            // Cursor resume: nothing before or at `last`.
            let (tail, last2) = store.changes(last, None);
            assert!(tail.is_empty());
            assert_eq!(last2, last);

            // Limit truncates and hands back a resumable cursor.
            let (page, cursor) = store.changes(0, Some(1));
            assert_eq!(page.len(), 1);
            assert_eq!(cursor, page[0].seq);
            let (rest, _) = store.changes(cursor, None);
            assert_eq!(rest.len(), 1);
            assert_eq!(rest[0].doc, "one");
        });
    }

    #[test]
    fn durable_store_recovers_its_exact_state() {
        let dir = std::env::temp_dir().join(format!("cxu-store-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dcfg = DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 3, // force a compaction mid-history
        };
        let store = Store::open(StoreConfig::default(), dcfg.clone()).unwrap();
        let (revs, winner, changes, seq) = {
            with_sched(|check| {
                let c = store.put("d", None, content("a(b c)"), check).unwrap();
                store
                    .put(
                        "d",
                        Some(c.rev),
                        PutPayload::Op(insert_op("a/b", "x")),
                        check,
                    )
                    .unwrap();
                // Stale base that commutes: exercises the merged/alias
                // record shape.
                let m = store
                    .put(
                        "d",
                        Some(c.rev),
                        PutPayload::Op(insert_op("a/c", "y")),
                        check,
                    )
                    .unwrap();
                assert_eq!(m.result, PutResult::Merged);
                let e = store.put("gone", None, content("a(z)"), check).unwrap();
                store.delete("gone", e.rev).unwrap();
            });
            (
                store.doc_revs("d").unwrap(),
                store.get("d", None, true).unwrap().rev,
                store.changes(0, None),
                store.current_seq(),
            )
        };
        assert!(store.wal_records() < 5, "compaction ran");
        drop(store);

        let again = Store::open(StoreConfig::default(), dcfg).unwrap();
        let report = again.recovery_report().unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.seq, seq);
        assert_eq!(again.doc_revs("d").unwrap(), revs);
        assert_eq!(again.get("d", None, true).unwrap().rev, winner);
        assert_eq!(again.changes(0, None), changes);
        assert_eq!(again.current_seq(), seq);
        assert!(again.get("gone", None, false).unwrap().deleted);

        // The recovered alias map still answers a merged-put replay
        // with a noop at the originally minted rev.
        with_sched(|check| {
            let c_rev = again.doc_revs("d").unwrap()[0].0;
            let retry = again
                .put(
                    "d",
                    Some(c_rev),
                    PutPayload::Op(insert_op("a/c", "y")),
                    check,
                )
                .unwrap();
            assert_eq!(retry.result, PutResult::Noop);
        });
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gauges_report_levels() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("g1", None, content("a(b)"), check).unwrap();
            store
                .put(
                    "g1",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            store.put("g2", None, content("a(c)"), check).unwrap();
        });
        assert_eq!(store.docs_len(), 2);
        assert_eq!(store.revisions_len(), 3);
        store.set_gauges();
        let snap = cxu_obs::registry().snapshot();
        // Other tests in this binary may run concurrently and move the
        // gauges afterwards, but levels are at least as recent as ours;
        // assert through the store's own accessors plus a fresh set.
        store.set_gauges();
        let snap2 = cxu_obs::registry().snapshot();
        assert!(snap.gauge("store.docs") >= 2 || snap2.gauge("store.docs") >= 2);
    }

    #[test]
    fn indexed_caches_winner_and_invalidates_on_put() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c)"), check).unwrap();

            // First read builds; second read must share the same snapshot.
            let i1 = store.indexed("d", None).unwrap();
            assert_eq!(i1.rev, c.rev);
            assert_eq!(i1.index.len(), 3);
            let i2 = store.indexed("d", None).unwrap();
            assert!(Arc::ptr_eq(&i1, &i2), "second read must hit the cache");

            // A put moves the winner and must invalidate the entry.
            let up = store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            let i3 = store.indexed("d", None).unwrap();
            assert_eq!(i3.rev, up.rev);
            assert!(!Arc::ptr_eq(&i1, &i3));
            assert_eq!(i3.index.len(), 4);
            assert!(iso::isomorphic(
                &i3.tree,
                &text::parse("a(b(x) c)").unwrap()
            ));

            // Pinned old revisions build ad hoc and never poison the
            // winner cache.
            let old = store.indexed("d", Some(c.rev)).unwrap();
            assert_eq!(old.rev, c.rev);
            assert_eq!(old.index.len(), 3);
            let i4 = store.indexed("d", None).unwrap();
            assert_eq!(i4.rev, up.rev);
        });
    }

    fn guard(doc: &str, rev: RevId) -> TxnGuard {
        TxnGuard {
            doc: doc.to_owned(),
            rev,
        }
    }

    fn write(doc: &str, op: Update) -> TxnWrite {
        TxnWrite {
            doc: doc.to_owned(),
            op,
        }
    }

    #[test]
    fn txn_commits_all_writes_atomically_across_documents() {
        let store = Store::default();
        with_sched(|check| {
            let c1 = store.put("d1", None, content("a(b c)"), check).unwrap();
            let c2 = store.put("d2", None, content("x(y z)"), check).unwrap();
            let seq0 = store.current_seq();

            let out = store
                .apply_txn(
                    &[guard("d1", c1.rev), guard("d2", c2.rev)],
                    &[
                        write("d1", insert_op("a/b", "p")),
                        write("d2", insert_op("x/y", "q")),
                        write("d1", insert_op("a/c", "r")),
                    ],
                    check,
                )
                .unwrap();
            assert!(!out.replayed);
            assert_eq!(out.revs.len(), 3);
            assert_eq!(out.seq, seq0 + 3);
            assert_eq!(out.checked_pairs, 0, "fresh guards need no detectors");

            // Same-document writes chained: d1 advanced two generations.
            let g1 = store.get("d1", None, true).unwrap();
            assert_eq!(g1.rev.generation, 3);
            assert!(g1.conflicts.is_empty());
            assert!(iso::isomorphic(
                g1.content.as_ref().unwrap(),
                &text::parse("a(b(p) c(r))").unwrap()
            ));
            let g2 = store.get("d2", None, true).unwrap();
            assert!(iso::isomorphic(
                g2.content.as_ref().unwrap(),
                &text::parse("x(y(q) z)").unwrap()
            ));

            // One changes-feed row per document, at the final seqs.
            let (entries, _) = store.changes(seq0, None);
            assert_eq!(entries.len(), 2);
            assert_eq!(entries[0].doc, "d2");
            assert_eq!(entries[0].seq, seq0 + 2);
            assert_eq!(entries[1].doc, "d1");
            assert_eq!(entries[1].seq, seq0 + 3);
        });
    }

    #[test]
    fn txn_with_stale_guard_commits_when_chain_commutes_and_conflicts_otherwise() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c e)"), check).unwrap();
            // Another editor lands first.
            store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();

            // Commuting transaction: edits under a/c and a/e only.
            let out = store
                .apply_txn(
                    &[guard("d", c.rev)],
                    &[
                        write("d", insert_op("a/c", "y")),
                        write("d", insert_op("a/e", "z")),
                    ],
                    check,
                )
                .unwrap();
            assert!(out.checked_pairs >= 2, "chain op × both txn ops");
            let g = store.get("d", None, true).unwrap();
            assert!(g.conflicts.is_empty(), "no branching, single head");
            assert!(iso::isomorphic(
                g.content.as_ref().unwrap(),
                &text::parse("a(b(x) c(y) e(z))").unwrap()
            ));

            // Conflicting transaction: deleting a/b collides with the
            // intervening insert under a/b. Nothing may land — not even
            // the commuting first write.
            let before = store.doc_revs("d").unwrap();
            let err = store
                .apply_txn(
                    &[guard("d", c.rev)],
                    &[
                        write("d", insert_op("a/e", "w")),
                        write("d", delete_op("a/b")),
                    ],
                    check,
                )
                .unwrap_err();
            assert!(matches!(err, TxnError::Conflict { .. }));
            assert!(err.retryable());
            assert_eq!(err.code(), "txn-conflict");
            assert_eq!(store.doc_revs("d").unwrap(), before, "all-or-nothing");
        });
    }

    #[test]
    fn txn_read_only_guard_demands_unmoved_winner() {
        let store = Store::default();
        with_sched(|check| {
            let c1 = store.put("d1", None, content("a(b)"), check).unwrap();
            let c2 = store.put("d2", None, content("x(y)"), check).unwrap();

            // Guarding d2 read-only while it is unmoved: fine.
            store
                .apply_txn(
                    &[guard("d1", c1.rev), guard("d2", c2.rev)],
                    &[write("d1", insert_op("a/b", "p"))],
                    check,
                )
                .unwrap();

            // d2 moves; the same read guard now fails, even though the
            // write on d1 would commute.
            let u2 = store
                .put(
                    "d2",
                    Some(c2.rev),
                    PutPayload::Op(insert_op("x/y", "q")),
                    check,
                )
                .unwrap();
            let err = store
                .apply_txn(
                    &[guard("d1", c1.rev), guard("d2", c2.rev)],
                    &[write("d1", insert_op("a/b", "s"))],
                    check,
                )
                .unwrap_err();
            assert!(matches!(err, TxnError::Conflict { ref doc, .. } if doc == "d2"));

            // Re-guarding at the current winner succeeds.
            store
                .apply_txn(
                    &[guard("d1", c1.rev), guard("d2", u2.rev)],
                    &[write("d1", insert_op("a/b", "s"))],
                    check,
                )
                .unwrap();
        });
    }

    #[test]
    fn txn_retry_is_a_noop_at_the_original_revisions() {
        let store = Store::default();
        with_sched(|check| {
            let c1 = store.put("d1", None, content("a(b c)"), check).unwrap();
            let c2 = store.put("d2", None, content("x(y)"), check).unwrap();
            let guards = [guard("d1", c1.rev), guard("d2", c2.rev)];
            let writes = [
                write("d1", insert_op("a/b", "p")),
                write("d1", insert_op("a/c", "q")),
                write("d2", insert_op("x/y", "r")),
            ];
            let first = store.apply_txn(&guards, &writes, check).unwrap();
            let seq = store.current_seq();

            // The ack was lost; the client resubmits verbatim.
            let retry = store.apply_txn(&guards, &writes, check).unwrap();
            assert!(retry.replayed);
            assert_eq!(retry.revs, first.revs, "originally minted revisions");
            assert_eq!(store.current_seq(), seq, "nothing committed");
            let g = store.get("d1", None, false).unwrap();
            assert!(
                iso::isomorphic(
                    g.content.as_ref().unwrap(),
                    &text::parse("a(b(p) c(q))").unwrap()
                ),
                "edits applied exactly once"
            );
        });
    }

    #[test]
    fn txn_retry_replays_even_after_the_winner_moves_on() {
        // The anchors live in the tree/alias map forever, so a replay
        // is detected even when later commits buried the transaction.
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c)"), check).unwrap();
            let guards = [guard("d", c.rev)];
            let writes = [write("d", insert_op("a/b", "p"))];
            let first = store.apply_txn(&guards, &writes, check).unwrap();
            store
                .put(
                    "d",
                    Some(first.revs[0].1),
                    PutPayload::Op(insert_op("a/c", "z")),
                    check,
                )
                .unwrap();
            let retry = store.apply_txn(&guards, &writes, check).unwrap();
            assert!(retry.replayed);
            assert_eq!(retry.revs, first.revs);
        });
    }

    #[test]
    fn txn_stale_guard_retry_lands_on_the_alias_map() {
        // A transaction committed through a stale-but-commuting guard
        // mints revs from the winner, not the guard; the retry resolves
        // through the per-write aliases.
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c e)"), check).unwrap();
            store
                .put(
                    "d",
                    Some(c.rev),
                    PutPayload::Op(insert_op("a/b", "x")),
                    check,
                )
                .unwrap();
            let guards = [guard("d", c.rev)];
            let writes = [
                write("d", insert_op("a/c", "y")),
                write("d", insert_op("a/e", "z")),
            ];
            let first = store.apply_txn(&guards, &writes, check).unwrap();
            assert!(!first.replayed);
            let seq = store.current_seq();
            let retry = store.apply_txn(&guards, &writes, check).unwrap();
            assert!(retry.replayed);
            assert_eq!(retry.revs, first.revs);
            assert_eq!(store.current_seq(), seq);
        });
    }

    #[test]
    fn txn_rejections_name_their_reason() {
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b)"), check).unwrap();

            let e = store.apply_txn(&[], &[], check).unwrap_err();
            assert!(matches!(e, TxnError::Rejected(_)));
            assert!(!e.retryable());

            let e = store
                .apply_txn(&[], &[write("missing", insert_op("a/b", "x"))], check)
                .unwrap_err();
            assert_eq!(e.code(), "not-found");

            let bogus = RevId {
                generation: 9,
                hash: 0xdead,
            };
            let e = store
                .apply_txn(
                    &[guard("d", bogus)],
                    &[write("d", insert_op("a/b", "x"))],
                    check,
                )
                .unwrap_err();
            assert_eq!(e.code(), "unknown-rev");

            let e = store
                .apply_txn(
                    &[guard("d", c.rev), guard("d", c.rev)],
                    &[write("d", insert_op("a/b", "x"))],
                    check,
                )
                .unwrap_err();
            assert_eq!(e.code(), "conflict");

            let del = store.delete("d", c.rev).unwrap();
            let e = store
                .apply_txn(
                    &[guard("d", del.rev)],
                    &[write("d", insert_op("a/b", "x"))],
                    check,
                )
                .unwrap_err();
            assert_eq!(e.code(), "conflict", "tombstoned target");
        });
    }

    #[test]
    fn durable_txn_recovers_atomically() {
        let dir = std::env::temp_dir().join(format!("cxu-store-txn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dcfg = DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 0, // keep every frame in the log
        };
        let store = Store::open(StoreConfig::default(), dcfg.clone()).unwrap();
        let (revs, state, guards, writes) = {
            let mut out = None;
            with_sched(|check| {
                let c1 = store.put("d1", None, content("a(b c)"), check).unwrap();
                let c2 = store.put("d2", None, content("x(y)"), check).unwrap();
                let guards = vec![guard("d1", c1.rev), guard("d2", c2.rev)];
                let writes = vec![
                    write("d1", insert_op("a/b", "p")),
                    write("d2", insert_op("x/y", "q")),
                    write("d1", insert_op("a/c", "r")),
                ];
                let o = store.apply_txn(&guards, &writes, check).unwrap();
                out = Some((o, guards, writes));
            });
            let (o, guards, writes) = out.unwrap();
            (
                o.revs,
                (
                    store.doc_revs("d1").unwrap(),
                    store.doc_revs("d2").unwrap(),
                    store.changes(0, None),
                    store.current_seq(),
                ),
                guards,
                writes,
            )
        };
        // 2 creates + 1 txn frame.
        assert_eq!(store.wal_records(), 3, "the whole txn is one frame");
        drop(store);

        let again = Store::open(StoreConfig::default(), dcfg).unwrap();
        let report = again.recovery_report().unwrap();
        assert_eq!(report.replayed_records, 3);
        assert_eq!(again.doc_revs("d1").unwrap(), state.0);
        assert_eq!(again.doc_revs("d2").unwrap(), state.1);
        assert_eq!(again.changes(0, None), state.2);
        assert_eq!(again.current_seq(), state.3);

        // The recovered alias/tree state still answers a verbatim
        // retry with a replay at the original revisions.
        with_sched(|check| {
            let retry = again.apply_txn(&guards, &writes, check).unwrap();
            assert!(retry.replayed);
            assert_eq!(retry.revs, revs);
        });
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn txn_multi_generation_commit_invalidates_index_cache_once() {
        // Regression (satellite): one transaction advancing a document
        // several generations must invalidate the per-winner index
        // cache exactly once and rebuild against the *final* winner.
        let store = Store::default();
        with_sched(|check| {
            let c = store.put("d", None, content("a(b c e)"), check).unwrap();
            let warm = store.indexed("d", None).unwrap();
            assert_eq!(warm.rev, c.rev);

            let out = store
                .apply_txn(
                    &[guard("d", c.rev)],
                    &[
                        write("d", insert_op("a/b", "p")),
                        write("d", insert_op("a/c", "q")),
                        write("d", insert_op("a/e", "r")),
                    ],
                    check,
                )
                .unwrap();
            let final_rev = out.revs.last().unwrap().1;

            // One lookup after a three-generation commit: the cache
            // entry is gone (not a stale intermediate) and the rebuild
            // lands on the *final* winner.
            let rebuilt = store.indexed("d", None).unwrap();
            assert!(!Arc::ptr_eq(&warm, &rebuilt), "stale entry was dropped");
            assert_eq!(rebuilt.rev, final_rev);
            assert_eq!(rebuilt.index.len(), 7);
            assert!(iso::isomorphic(
                &rebuilt.tree,
                &text::parse("a(b(p) c(q) e(r))").unwrap()
            ));

            // And the rebuilt entry is cached: a second read shares it.
            // (The exact one-miss counter pin lives in
            // tests/obs_validation.rs, where the registry is serialized.)
            let hit = store.indexed("d", None).unwrap();
            assert!(Arc::ptr_eq(&rebuilt, &hit));
        });
    }

    #[test]
    fn indexed_rejects_tombstones_and_unknowns() {
        let store = Store::default();
        with_sched(|check| {
            assert!(matches!(
                store.indexed("nope", None),
                Err(StoreError::NotFound(_))
            ));
            let c = store.put("d", None, content("a"), check).unwrap();
            store
                .put("d", Some(c.rev), PutPayload::Tombstone, check)
                .unwrap();
            assert!(matches!(
                store.indexed("d", None),
                Err(StoreError::Conflict(_))
            ));
        });
    }
}
