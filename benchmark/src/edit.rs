//! `edit-durable`: concurrent editors on a durable store.
//!
//! 16 small documents (12 nodes) on a `--fsync always` data directory.
//! Each of the two connections owns 8 of them, so every outcome is a
//! function of the seed alone: racing editors made the same workload
//! swing 3× between runs, partitioned ownership does not. The mix is
//! 70% `doc_put` of an operation, 5% content reset, 15% two-document
//! guarded `txn`, 10% `doc_get`; puts and transactions share the
//! workload so that merging the two write paths cannot speed one up
//! while slowing the other. Bases and guards are stale on purpose: with
//! probability ½ the client's latest known winner, otherwise 1–4 known
//! winners back, so the merge rung, the branch rung and transaction OCC
//! all run.
//!
//! Put cost grows with a document's history, so the work is fixed, not
//! the time: the run is a series of identical rounds, each a fresh
//! server on an empty data directory driven through the same 4,000
//! requests per connection (the first 500 a warm-up, timed as set-up).
//! Every round reaches the same history at the same point, however fast
//! the server; a faster one only fits more rounds into the run, and the
//! metrics are medians over rounds.
//!
//! After the last round its server is SIGKILLed and restarted on the
//! same directory; every acknowledged revision must still be readable.
//! Every round must answer exactly as the first, and an in-process
//! replay of the first round's request log through the store must
//! reproduce every answer and the final winners.

use crate::client::{closed_loop_pair, is_ok, pipelined, Session, Work};
use crate::common::{self, doc_name, Ctx, Round};
use crate::report::Outcome;
use crate::server::ServerProc;
use crate::stats::percentile;
use crate::trace::Tracer;
use cxu::gen::json::Json;
use cxu::gen::patterns::{random_delete_pattern, random_pattern, PatternParams};
use cxu::gen::rng::{Rng, SplitMix64};
use cxu::gen::trees::{random_tree, TreeParams};
use cxu::gen::wire;
use cxu::ops::{Delete, Insert, Update};
use cxu::sched::{Deadline, Op, PairDecision, Scheduler};
use cxu::serve::proto::{self, Route};
use cxu::store::{DurabilityConfig, FsyncPolicy, PutPayload, Store, StoreConfig, StoreError};
use cxu::tree::{Symbol, Tree};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

const DOCS: usize = 16;
const PER_CONN: usize = DOCS / 2;
/// Requests per connection in one round, warm-up included.
const ROUND: usize = 4_000;
/// The warm-up: the first requests of each round per connection.
const ROUND_WARMUP: usize = 500;
/// Requests of the durable replay that measures the WAL's cost.
const DURABLE_PREFIX: usize = 1_500;

/// The workload's generated inputs.
pub struct Inputs {
    /// Initial document content, compact text form.
    docs: Vec<String>,
    /// Update operations: wire JSON and parsed.
    ops: Vec<(String, Update)>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x65646974);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = 0.15;
    // Inserts are rigid (child edges and labels only): a descendant edge
    // or wildcard can match the nodes an insert adds, and repeated
    // inserts then grow a document exponentially — and with it every
    // stored revision. Deletes keep the full pattern language.
    let rigid = PatternParams {
        descendant_rate: 0.0,
        wildcard_rate: 0.0,
        ..pattern.clone()
    };
    let labels: Vec<Symbol> = (0..6).map(|i| Symbol::intern(&format!("l{i}"))).collect();
    let ops = (0..60)
        .map(|_| {
            let u = if rng.gen_bool(0.3) {
                Update::Delete(
                    Delete::new(random_delete_pattern(&mut rng, &pattern))
                        .expect("delete patterns have output below the root"),
                )
            } else {
                let p = random_pattern(&mut rng, &rigid);
                let mut x = Tree::new(labels[rng.gen_range(0..6)]);
                if rng.gen_bool(0.5) {
                    let r = x.root();
                    x.build_child(r, labels[rng.gen_range(0..6)]);
                }
                Update::Insert(Insert::new(p, x))
            };
            (wire::update_to_json(&u).to_string(), u)
        })
        .collect();
    let tparams = TreeParams {
        nodes: 12,
        alphabet: 6,
        ..TreeParams::default()
    };
    let docs = (0..DOCS)
        .map(|_| cxu::tree::text::to_text(&random_tree(&mut rng, &tparams)))
        .collect();
    Inputs { docs, ops }
}

/// Staleness draw: the latest known winner with probability ½,
/// otherwise 1–4 known winners back.
fn staleness(rng: &mut SplitMix64) -> usize {
    if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(1..=4)
    }
}

/// One drawn request, before it is bound to the client's known
/// revisions. A pure function of the seed and the connection.
#[derive(Clone, Copy, Debug)]
enum Choice {
    Put {
        k: usize,
        op: usize,
        stale: usize,
    },
    /// Replace the document with its original content, at the latest
    /// known winner: bounds how far edits can grow it.
    Reset {
        k: usize,
    },
    Txn {
        k: [usize; 2],
        op: [usize; 2],
        stale: [usize; 2],
    },
    Get {
        k: usize,
    },
}

struct Chooser {
    rng: SplitMix64,
    nops: usize,
}

impl Chooser {
    fn new(seed: u64, conn: usize, nops: usize) -> Chooser {
        Chooser {
            rng: SplitMix64::seed_from_u64(
                seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            nops,
        }
    }

    fn next(&mut self) -> Choice {
        let r = &mut self.rng;
        let roll = r.next_f64();
        if roll < 0.70 {
            Choice::Put {
                k: r.gen_range(0..PER_CONN),
                op: r.gen_range(0..self.nops),
                stale: staleness(r),
            }
        } else if roll < 0.75 {
            Choice::Reset {
                k: r.gen_range(0..PER_CONN),
            }
        } else if roll < 0.90 {
            let k1 = r.gen_range(0..PER_CONN);
            let k2 = (k1 + 1 + r.gen_range(0..PER_CONN - 1)) % PER_CONN;
            Choice::Txn {
                k: [k1, k2],
                op: [r.gen_range(0..self.nops), r.gen_range(0..self.nops)],
                stale: [staleness(r), staleness(r)],
            }
        } else {
            Choice::Get {
                k: r.gen_range(0..PER_CONN),
            }
        }
    }
}

/// One request as sent, with what the server answered.
#[derive(Clone, Debug, PartialEq)]
enum Sent {
    Put {
        doc: usize,
        base: String,
        op: usize,
    },
    Reset {
        doc: usize,
        base: String,
    },
    Txn {
        writes: [(usize, String, usize); 2],
        first: bool,
    },
    Get {
        doc: usize,
    },
}

#[derive(Clone, Debug, PartialEq)]
struct Logged {
    req: Sent,
    /// `result` for puts and txns, `"found"` for gets.
    result: String,
    /// Minted (or read) revisions, in order.
    revs: Vec<String>,
}

fn render(req: &Sent, inputs: &Inputs, id: u64, out: &mut String) {
    match req {
        Sent::Put { doc, base, op } => {
            out.push_str(&format!(
                "{{\"route\": \"doc_put\", \"id\": {id}, \"doc\": \"{}\", \"base_rev\": \"{base}\", \"op\": {}}}",
                doc_name(*doc),
                inputs.ops[*op].0
            ));
        }
        Sent::Reset { doc, base } => {
            out.push_str(&format!(
                "{{\"route\": \"doc_put\", \"id\": {id}, \"doc\": \"{}\", \"base_rev\": \"{base}\", \"content\": {}}}",
                doc_name(*doc),
                Json::str(inputs.docs[*doc].as_str())
            ));
        }
        Sent::Txn { writes, .. } => {
            let guards: Vec<String> = writes
                .iter()
                .map(|(d, g, _)| format!("{{\"doc\": \"{}\", \"rev\": \"{g}\"}}", doc_name(*d)))
                .collect();
            let ops: Vec<String> = writes
                .iter()
                .map(|(d, _, op)| {
                    format!(
                        "{{\"doc\": \"{}\", \"op\": {}}}",
                        doc_name(*d),
                        inputs.ops[*op].0
                    )
                })
                .collect();
            out.push_str(&format!(
                "{{\"route\": \"txn\", \"id\": {id}, \"guards\": [{}], \"ops\": [{}]}}",
                guards.join(", "),
                ops.join(", ")
            ));
        }
        Sent::Get { doc } => {
            out.push_str(&format!(
                "{{\"route\": \"doc_get\", \"id\": {id}, \"doc\": \"{}\"}}",
                doc_name(*doc)
            ));
        }
    }
}

/// Outcome counts, comparable between the served run and the replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tally {
    puts: BTreeMap<String, u64>,
    txns: BTreeMap<String, u64>,
    txn_first_commits: u64,
    txn_first: u64,
}

impl Tally {
    fn add(&mut self, l: &Logged) {
        match &l.req {
            Sent::Put { .. } | Sent::Reset { .. } => {
                *self.puts.entry(l.result.clone()).or_default() += 1
            }
            Sent::Txn { first, .. } => {
                *self.txns.entry(l.result.clone()).or_default() += 1;
                if *first {
                    self.txn_first += 1;
                    if l.result == "applied" {
                        self.txn_first_commits += 1;
                    }
                }
            }
            Sent::Get { .. } => {}
        }
    }
}

/// One editor connection.
struct EditSession<'a> {
    inputs: &'a Inputs,
    conn: usize,
    chooser: Chooser,
    /// Winners observed per owned document, oldest first.
    known: Vec<Vec<String>>,
    /// Requests queued ahead of the chooser (a refused transaction's
    /// refresh reads and its one retry).
    follow: std::collections::VecDeque<Sent>,
    pending: Option<Sent>,
    id: u64,
    log: Vec<Logged>,
    put_ns: Vec<u64>,
    txn_ns: Vec<u64>,
}

impl<'a> EditSession<'a> {
    fn new(inputs: &'a Inputs, seed: u64, conn: usize, created: &[String]) -> EditSession<'a> {
        EditSession {
            inputs,
            conn,
            chooser: Chooser::new(seed, conn, inputs.ops.len()),
            known: (0..PER_CONN)
                .map(|k| vec![created[conn * PER_CONN + k].clone()])
                .collect(),
            follow: Default::default(),
            pending: None,
            id: 0,
            log: Vec::new(),
            put_ns: Vec::new(),
            txn_ns: Vec::new(),
        }
    }

    fn doc(&self, k: usize) -> usize {
        self.conn * PER_CONN + k
    }

    fn base(&self, k: usize, stale: usize) -> String {
        let h = &self.known[k];
        h[h.len() - 1 - stale.min(h.len() - 1)].clone()
    }

    fn observe(&mut self, doc: usize, winner: &str) {
        let h = &mut self.known[doc - self.conn * PER_CONN];
        if h.last().map(String::as_str) != Some(winner) {
            h.push(winner.to_owned());
        }
    }

    fn bind(&mut self, c: Choice) -> Sent {
        match c {
            Choice::Put { k, op, stale } => Sent::Put {
                doc: self.doc(k),
                base: self.base(k, stale),
                op,
            },
            Choice::Txn { k, op, stale } => Sent::Txn {
                writes: [
                    (self.doc(k[0]), self.base(k[0], stale[0]), op[0]),
                    (self.doc(k[1]), self.base(k[1], stale[1]), op[1]),
                ],
                first: true,
            },
            Choice::Reset { k } => Sent::Reset {
                doc: self.doc(k),
                base: self.base(k, 0),
            },
            Choice::Get { k } => Sent::Get { doc: self.doc(k) },
        }
    }

    fn reset_latencies(&mut self) {
        self.put_ns.clear();
        self.txn_ns.clear();
    }
}

impl Session for EditSession<'_> {
    fn next(&mut self, out: &mut String) {
        let req = match self.follow.pop_front() {
            Some(r) => r,
            None => {
                let c = self.chooser.next();
                self.bind(c)
            }
        };
        // A retry is bound at send time: its guards are the winners the
        // refresh reads just observed.
        let req = match req {
            Sent::Txn {
                writes,
                first: false,
            } => Sent::Txn {
                writes: writes.map(|(d, _, op)| {
                    let w = self.known[d - self.conn * PER_CONN]
                        .last()
                        .cloned()
                        .unwrap_or_default();
                    (d, w, op)
                }),
                first: false,
            },
            r => r,
        };
        render(&req, self.inputs, self.id, out);
        self.id += 1;
        self.pending = Some(req);
    }

    fn answer(&mut self, v: &Json, latency_ns: u64) {
        let Some(req) = self.pending.take() else {
            return;
        };
        if !is_ok(v) {
            return;
        }
        let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let logged = match &req {
            Sent::Put { doc, .. } | Sent::Reset { doc, .. } => {
                self.put_ns.push(latency_ns);
                let winner = s("winner");
                if !winner.is_empty() {
                    self.observe(*doc, &winner);
                }
                Logged {
                    result: s("result"),
                    revs: Some(s("rev"))
                        .filter(|r| !r.is_empty())
                        .into_iter()
                        .collect(),
                    req,
                }
            }
            Sent::Txn { writes, first } => {
                self.txn_ns.push(latency_ns);
                let result = s("result");
                let revs: Vec<String> = v
                    .get("revs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|r| r.get("rev").and_then(Json::as_str).map(str::to_owned))
                    .collect();
                if result == "applied" {
                    // A commit extends each written document's winner,
                    // so the last minted revision per document is its
                    // new winner.
                    for ((d, _, _), r) in writes.iter().zip(&revs) {
                        self.observe(*d, r);
                    }
                } else if result == "conflict" && *first {
                    self.follow.push_back(Sent::Get { doc: writes[0].0 });
                    self.follow.push_back(Sent::Get { doc: writes[1].0 });
                    self.follow.push_back(Sent::Txn {
                        writes: writes.clone(),
                        first: false,
                    });
                }
                Logged { result, revs, req }
            }
            Sent::Get { doc } => {
                let rev = s("rev");
                if !rev.is_empty() {
                    self.observe(*doc, &rev);
                }
                Logged {
                    result: if v.get("found").and_then(Json::as_bool) == Some(true) {
                        "found".to_owned()
                    } else {
                        "missing".to_owned()
                    },
                    revs: Some(rev).filter(|r| !r.is_empty()).into_iter().collect(),
                    req,
                }
            }
        };
        self.log.push(logged);
    }
}

fn fingerprint(ctx: &Ctx, inputs: &Inputs, round: usize) -> String {
    let mut f = ctx.fingerprint("edit-durable");
    f.u64(round as u64);
    for d in &inputs.docs {
        f.str(d);
    }
    for (j, _) in &inputs.ops {
        f.str(j);
    }
    for conn in 0..2 {
        let mut c = Chooser::new(ctx.seed, conn, inputs.ops.len());
        for _ in 0..round {
            f.str(&format!("{:?}", c.next()));
        }
    }
    f.hex()
}

fn server_args(dir: &Path) -> Vec<String> {
    [
        "--shards",
        "2",
        "--data-dir",
        &dir.display().to_string(),
        "--fsync",
        "always",
        // Generous, so no verdict ever degrades on time: outcomes stay a
        // function of the seed and the replay can reproduce them.
        "--deadline-ms",
        "60000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// What the replay produced.
struct Replay {
    tally: Tally,
    winners: Vec<String>,
    disagreements: u64,
    /// The first few disagreements, spelled out.
    examples: Vec<String>,
    /// `Store::put` durations (µs) of the puts in the durable prefix.
    prefix_put_us: Vec<f64>,
    /// Node counts of the final winners.
    winner_nodes: Vec<usize>,
}

/// Replays both connections' logs, in order, through a fresh store:
/// parse, dispatch, render, with spans around each layer's call.
/// Returns what the store answered; `durable` opens the store on a
/// fresh data directory with the server's WAL settings.
fn replay(
    inputs: &Inputs,
    logs: &[&[Logged]],
    limit: usize,
    durable: Option<&Path>,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let store = match durable {
        None => Store::new(StoreConfig::default()),
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Store::open(
                StoreConfig::default(),
                DurabilityConfig {
                    dir: dir.to_path_buf(),
                    fsync: FsyncPolicy::Always,
                    snapshot_every: cxu::serve::ServeConfig::default().snapshot_every,
                },
            )
            .map_err(|e| e.to_string())?
        }
    };
    let mut sched = Scheduler::new(common::served_sched_config());
    for (d, content) in inputs.docs.iter().enumerate() {
        let tree = tracer
            .span("tree.parse", d as u64, || cxu::tree::text::parse(content))
            .map_err(|e| e.to_string())?;
        store
            .put(
                &doc_name(d),
                None,
                PutPayload::Content(tree),
                &mut |_: &Op, _: &Op| -> PairDecision {
                    unreachable!("creates never consult the detectors")
                },
            )
            .map_err(|e| e.to_string())?;
    }
    let mut out = Replay {
        tally: Tally::default(),
        winners: Vec::new(),
        disagreements: 0,
        examples: Vec::new(),
        prefix_put_us: Vec::new(),
        winner_nodes: Vec::new(),
    };
    let mut line = String::new();
    let mut req_id = 0u64;
    for (conn, log) in logs.iter().enumerate() {
        for (i, l) in log.iter().enumerate().take(limit) {
            req_id += 1;
            line.clear();
            render(&l.req, inputs, i as u64, &mut line);
            let (result, revs) = tracer.span(
                "request",
                req_id,
                || -> Result<(String, Vec<String>), String> {
                    let req = tracer
                        .span("serve.parse", req_id, || proto::parse_request(&line))
                        .map_err(|e| format!("replayed request does not parse: {e}"))?;
                    if matches!(req.route, Route::Txn { .. }) {
                        let v = Json::parse(&line).map_err(|e| e.to_string())?;
                        tracer
                            .span("txn.parse", req_id, || wire::txn_from_json(&v))
                            .map_err(|e| e.to_string())?;
                    }
                    let mut check = |a: &Op, b: &Op| {
                        tracer.span("store.pair_check", req_id, || {
                            sched.check_pair(a, b, &Deadline::never())
                        })
                    };
                    let (result, revs, rendered) = match &req.route {
                        Route::DocPut {
                            doc,
                            base_rev,
                            payload,
                        } => {
                            let t = Instant::now();
                            let o = tracer.span("store.put", req_id, || {
                                store.put(doc, *base_rev, (**payload).clone(), &mut check)
                            });
                            if conn == 0 && i < DURABLE_PREFIX {
                                out.prefix_put_us.push(t.elapsed().as_secs_f64() * 1e6);
                            }
                            match o {
                                Ok(o) => (
                                    o.result.name().to_owned(),
                                    vec![o.rev.to_string()],
                                    tracer.span("serve.render", req_id, || {
                                        proto::render_doc_put(req.id, "doc_put", doc, &o)
                                    }),
                                ),
                                Err(e) => (
                                    "rejected".to_owned(),
                                    vec![],
                                    render_rejected(&req, doc, &e),
                                ),
                            }
                        }
                        Route::Txn { txn } => {
                            let o = tracer.span("store.apply_txn", req_id, || {
                                store.apply_txn(&txn.guards, &txn.writes, &mut check)
                            });
                            match o {
                                Ok(o) => (
                                    "applied".to_owned(),
                                    o.revs.iter().map(|(_, r)| r.to_string()).collect(),
                                    tracer.span("serve.render", req_id, || {
                                        proto::render_txn_applied(req.id, &o)
                                    }),
                                ),
                                Err(e) => (
                                    if e.retryable() {
                                        "conflict"
                                    } else {
                                        "rejected"
                                    }
                                    .to_owned(),
                                    vec![],
                                    tracer.span("serve.render", req_id, || {
                                        proto::render_txn_denied(req.id, &e)
                                    }),
                                ),
                            }
                        }
                        Route::DocGet {
                            doc,
                            rev,
                            conflicts,
                        } => {
                            match tracer
                                .span("store.get", req_id, || store.get(doc, *rev, *conflicts))
                            {
                                Ok(o) => (
                                    "found".to_owned(),
                                    vec![o.rev.to_string()],
                                    tracer.span("serve.render", req_id, || {
                                        proto::render_doc_get(req.id, doc, &o)
                                    }),
                                ),
                                Err(e) => {
                                    ("missing".to_owned(), vec![], render_rejected(&req, doc, &e))
                                }
                            }
                        }
                        other => return Err(format!("unexpected replayed route {}", other.name())),
                    };
                    std::hint::black_box(rendered);
                    Ok((result, revs))
                },
            )?;
            if result != l.result || revs != l.revs {
                out.disagreements += 1;
                if out.examples.len() < 5 {
                    out.examples.push(format!(
                        "conn {conn} request {i}: served {} {:?}, replay {result} {revs:?}",
                        l.result, l.revs
                    ));
                }
            }
            out.tally.add(&Logged {
                req: l.req.clone(),
                result,
                revs,
            });
        }
    }
    for d in 0..DOCS {
        let g = store
            .get(&doc_name(d), None, false)
            .map_err(|e| e.to_string())?;
        out.winners.push(g.rev.to_string());
        out.winner_nodes
            .push(g.content.map_or(0, |t| t.live_count()));
    }
    Ok(out)
}

fn render_rejected(req: &cxu::serve::Request, doc: &str, e: &StoreError) -> String {
    proto::render_doc_rejected(req.id, req.route.name(), doc, e)
}

/// Reads every acknowledged revision back by id, pipelined; returns the
/// number that could not be read.
fn verify_acked(server: &ServerProc, acked: &[(usize, String)]) -> Result<u64, String> {
    let mut lost = 0u64;
    let st = pipelined(
        &server.addr,
        &mut |k, out| match acked.get(k as usize) {
            Some((d, rev)) => {
                out.push_str(&format!(
                    "{{\"route\": \"doc_get\", \"id\": {k}, \"doc\": \"{}\", \"rev\": \"{rev}\"}}",
                    doc_name(*d)
                ));
                true
            }
            None => false,
        },
        &mut |id, v| {
            let want = acked.get(id as usize).map(|(_, r)| r.as_str());
            if v.get("found").and_then(Json::as_bool) != Some(true)
                || v.get("rev").and_then(Json::as_str) != want
            {
                lost += 1;
            }
        },
        64,
        Duration::from_secs(60),
        false,
    );
    if st.completed as usize != acked.len() {
        return Err(format!(
            "read back {} of {} acknowledged revisions",
            st.completed,
            acked.len()
        ));
    }
    Ok(lost)
}

fn p99_ms(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile(&v, 0.99) as f64 / 1e6
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What a round keeps: each connection's request log, and the put and
/// transaction latencies of its measured requests.
struct Kept {
    logs: [Vec<Logged>; 2],
    put_ns: Vec<u64>,
    txn_ns: Vec<u64>,
}

/// Runs one round on a fresh server over an empty `dir`: creates the
/// documents, drives `warmup` requests per connection (set-up), then
/// the rest of the round's `per_conn` (measured).
fn round(
    ctx: &Ctx,
    inputs: &Inputs,
    dir: &Path,
    (per_conn, warmup): (usize, usize),
    tag: &str,
) -> Result<(Round<Kept>, ServerProc), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let server = ServerProc::spawn(&ctx.cxu, &server_args(dir), &ctx.out, tag)?;
    let created = common::create_docs(&server, &inputs.docs)?;
    let mut a = EditSession::new(inputs, ctx.seed, 0, &created);
    let mut b = EditSession::new(inputs, ctx.seed, 1, &created);
    let work = |each: usize| Work::Requests {
        each: each as u64,
        until: ctx.deadline,
    };
    let warm = closed_loop_pair(&server.addr, &mut a, &mut b, work(warmup), false, None);
    if warm.completed != 2 * warmup as u64 {
        return Err(format!(
            "warm-up answered {} of {} requests",
            warm.completed,
            2 * warmup
        ));
    }
    let setup_s = t.elapsed().as_secs_f64();
    a.reset_latencies();
    b.reset_latencies();
    let mut started = Instant::now();
    let phase = common::measure(&server, || {
        started = Instant::now();
        closed_loop_pair(
            &server.addr,
            &mut a,
            &mut b,
            work(per_conn - warmup),
            ctx.trace,
            Some(server.pid),
        )
    })?;
    let kept = Kept {
        put_ns: [a.put_ns, b.put_ns].concat(),
        txn_ns: [a.txn_ns, b.txn_ns].concat(),
        logs: [a.log, b.log],
    };
    Ok((
        Round {
            phase,
            started,
            setup_s,
            kept,
        },
        server,
    ))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = inputs(ctx.seed);
    let sizes = (ctx.scaled(ROUND, 100), ctx.scaled(ROUND_WARMUP, 10));
    let mut out = Outcome::new("edit-durable", fingerprint(ctx, &inputs, sizes.0));
    let dir = ctx.out.join("edit-data");
    let (rounds, mut server) = common::run_rounds(ctx, &mut out, |i| {
        round(ctx, &inputs, &dir, sizes, &format!("edit-durable-{i}"))
    })?;
    if ctx.trace {
        common::idle_probes(&mut out, &server, Duration::from_secs(2))?;
    }
    out.set("serve.rss_mb", server.rss_hwm_mb()?);
    let (phase, lat, kept) = common::report_rounds(&mut out, rounds);
    out.set("serve.closed_p50_ms", lat.whole_p50_us / 1e3);
    let first_logs = &kept[0].logs;
    let differing = kept.iter().filter(|k| k.logs != *first_logs).count();
    out.check(
        "rounds.identical",
        differing == 0,
        format!(
            "{} rounds, {differing} answered differently from the first",
            kept.len()
        ),
    );
    let put_ns: Vec<u64> = kept.iter().flat_map(|k| k.put_ns.iter().copied()).collect();
    let txn_ns: Vec<u64> = kept.iter().flat_map(|k| k.txn_ns.iter().copied()).collect();
    out.set("store.put_p99_ms", p99_ms(&put_ns));
    out.set("txn.p99_ms", p99_ms(&txn_ns));
    out.diag("latency.put_samples", put_ns.len() as f64, "count");
    out.diag("latency.txn_samples", txn_ns.len() as f64, "count");

    let logs = &kept.last().expect("at least one round ran").logs;
    let mut served = Tally::default();
    for l in logs.iter().flatten() {
        served.add(l);
    }
    let merged = served.puts.get("merged").copied().unwrap_or(0);
    let branched = served.puts.get("branched").copied().unwrap_or(0);
    out.set(
        "store.merge_rate",
        merged as f64 / (merged + branched).max(1) as f64,
    );
    out.set(
        "txn.commit_rate",
        served.txn_first_commits as f64 / served.txn_first.max(1) as f64,
    );
    for (k, v) in &served.puts {
        out.diag(&format!("outcome.put.{k}"), *v as f64, "count");
    }
    for (k, v) in &served.txns {
        out.diag(&format!("outcome.txn.{k}"), *v as f64, "count");
    }
    let user_bytes: u64 = logs
        .iter()
        .flatten()
        .map(|l| match &l.req {
            Sent::Put { op, .. } => inputs.ops[*op].0.len() as u64,
            Sent::Reset { doc, .. } => inputs.docs[*doc].len() as u64,
            Sent::Txn { writes, .. } if l.result == "applied" => writes
                .iter()
                .map(|(_, _, op)| inputs.ops[*op].0.len() as u64)
                .sum(),
            _ => 0,
        })
        .sum();
    out.set(
        "wal.disk_bytes_per_user_byte",
        dir_bytes(&dir) as f64 / user_bytes.max(1) as f64,
    );

    // Crash: SIGKILL the last round's server, restart it on the same
    // directory, read back every acknowledged revision and the winners.
    let before = common::winners(&server, DOCS)?;
    server.kill();
    ctx.in_time("edit-durable recovery")?;
    let restarted = ServerProc::spawn(
        &ctx.cxu,
        &server_args(&dir),
        &ctx.out,
        "edit-durable-restart",
    )?;
    out.set("wal.recovery_s", restarted.ready_s);
    let frames = restarted
        .recovered
        .as_ref()
        .and_then(|r| r.get("replayed_records"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    out.set("wal.replayed_frames", frames as f64);
    // Recovery loads the last snapshot and replays the frames after it,
    // so its cost follows the revisions it restores, not the frames.
    let revisions = restarted
        .recovered
        .as_ref()
        .and_then(|r| r.get("revisions"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    out.set(
        "wal.recovery_us_per_rev",
        restarted.ready_s * 1e6 / revisions.max(1) as f64,
    );
    let acked: Vec<(usize, String)> = logs
        .iter()
        .flatten()
        .flat_map(|l| {
            let docs: Vec<usize> = match &l.req {
                Sent::Put { doc, .. } | Sent::Reset { doc, .. } | Sent::Get { doc } => vec![*doc],
                Sent::Txn { writes, .. } => writes.iter().map(|w| w.0).collect(),
            };
            docs.into_iter()
                .zip(l.revs.clone())
                .filter(|(_, r)| !r.is_empty())
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let lost = verify_acked(&restarted, &acked)?;
    out.check(
        "durability.acked_readable",
        lost == 0,
        format!("{} acknowledged revisions, {lost} lost", acked.len()),
    );
    let after = common::winners(&restarted, DOCS)?;
    out.check(
        "durability.winners",
        after == before,
        "winners after SIGKILL + restart equal those before",
    );
    common::stop_server(&mut out, restarted);

    // Oracle: the in-process replay of the first round must reproduce
    // every answer (and so, by `rounds.identical`, every round's).
    ctx.in_time("edit-durable replay")?;
    let tracer = Tracer::default();
    let t_replay = Instant::now();
    let rep = replay(
        &inputs,
        &[&first_logs[0], &first_logs[1]],
        usize::MAX,
        None,
        &tracer,
    )?;
    out.diag("replay.seconds", t_replay.elapsed().as_secs_f64(), "s");
    out.check(
        "oracle.outcomes",
        rep.disagreements == 0,
        format!(
            "{} requests replayed, {} disagreements {:?}",
            first_logs[0].len() + first_logs[1].len(),
            rep.disagreements,
            rep.examples
        ),
    );
    out.check(
        "oracle.tally",
        rep.tally == served,
        format!("served {served:?} replay {:?}", rep.tally),
    );
    out.check(
        "oracle.winners",
        rep.winners == before,
        "replayed winners equal served winners",
    );

    out.diag(
        "docs.max_nodes",
        rep.winner_nodes.iter().copied().max().unwrap_or(0) as f64,
        "count",
    );
    out.diag(
        "docs.mean_nodes",
        rep.winner_nodes.iter().sum::<usize>() as f64 / DOCS as f64,
        "count",
    );
    let s = tracer.summary();
    let mean = |name: &str| s.get(name).map_or(0.0, |v| v.1);
    out.set("serve.parse_us", mean("serve.parse"));
    out.set("serve.render_us", mean("serve.render"));
    out.set("tree.parse_us", mean("tree.parse"));
    out.set("txn.parse_us", mean("txn.parse"));
    out.set("store.txn_us", mean("store.apply_txn"));
    out.set("store.get_us", mean("store.get"));
    out.set("sched.check_pair_us", mean("store.pair_check"));
    let put_self = tracer.self_us("store.put");
    let puts = put_self.len();
    out.set(
        "store.put_us",
        put_self.iter().sum::<f64>() / puts.max(1) as f64,
    );
    let checks_total: f64 = tracer.durations_us("store.pair_check").iter().sum();
    let calls = s.get("store.put").map_or(0, |v| v.0) + s.get("store.apply_txn").map_or(0, |v| v.0);
    out.set("store.put_check_us", checks_total / calls.max(1) as f64);
    let tenth = (puts / 10).max(1);
    if puts >= 10 {
        let first: f64 = put_self[..tenth].iter().sum::<f64>() / tenth as f64;
        let last: f64 = put_self[puts - tenth..].iter().sum::<f64>() / tenth as f64;
        out.set("store.put_growth", last / first);
    }

    if ctx.trace {
        // The WAL's cost: the same request prefix against a durable store
        // (server settings) and the in-memory one above.
        let wal_dir = ctx.out.join("edit-replay-wal");
        let durable = replay(
            &inputs,
            &[&first_logs[0]],
            DURABLE_PREFIX,
            Some(&wal_dir),
            &Tracer::default(),
        )?;
        let mean_f = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.set(
            "wal.put_overhead_us",
            mean_f(&durable.prefix_put_us) - mean_f(&rep.prefix_put_us),
        );
        let _ = std::fs::remove_dir_all(&wal_dir);
        common::write_trace(ctx, &out, &tracer, &phase.stats.spans)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_are_a_function_of_the_seed() {
        let ctx = |seed: u64, seconds: f64| Ctx {
            cxu: Default::default(),
            out: Default::default(),
            seed,
            seconds,
            trace: false,
            scale: 1.0,
            deadline: Instant::now(),
        };
        let i = inputs(7);
        let f = |seed: u64, seconds: f64| fingerprint(&ctx(seed, seconds), &inputs(seed), ROUND);
        assert_eq!(f(7, 25.0), f(7, 25.0));
        assert_ne!(f(7, 25.0), f(8, 25.0));
        assert_ne!(
            f(7, 25.0),
            f(7, 20.0),
            "the run length is part of the fingerprint"
        );
        let mut c = Chooser::new(7, 0, i.ops.len());
        let mut kinds = [0usize; 3];
        for _ in 0..10_000 {
            match c.next() {
                Choice::Put { .. } | Choice::Reset { .. } => kinds[0] += 1,
                Choice::Txn { k, .. } => {
                    assert_ne!(k[0], k[1], "a transaction spans two documents");
                    kinds[1] += 1
                }
                Choice::Get { .. } => kinds[2] += 1,
            }
        }
        assert!((7_000..8_000).contains(&kinds[0]), "{kinds:?}");
        assert!((1_200..1_800).contains(&kinds[1]), "{kinds:?}");
    }
}
