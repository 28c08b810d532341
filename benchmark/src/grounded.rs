//! `grounded-rw`: document-grounded checks beside writes.
//!
//! Eight documents of about 20k nodes each (text form well under the
//! 1 MiB line cap), in memory. Two closed-loop connections send
//! `doc_check` requests — read/update pairs from a 60-op pool with
//! branching patterns, judged against the stored document under node
//! semantics — so the index layer's evaluation does most of the work.
//! Beside them each connection puts a small edit into one of its own
//! four documents twice a second, which invalidates that document's
//! cached index and forces a rebuild on its next check. Writes are
//! paced by time rather than by share so that the number of stored
//! 20k-node revisions, and with it memory, is the same on every run.
//!
//! Oracles: a replay of each connection's puts must mint the same
//! revisions, and a seeded sample of checks is re-decided by the
//! tree-walk witness check on the document as it stood at that point.

use crate::client::{closed_loop_pair, is_ok, Conn, Session, Work};
use crate::common::{self, doc_name, Ctx};
use crate::report::Outcome;
use crate::server::ServerProc;
use crate::trace::Tracer;
use cxu::gen::json::Json;
use cxu::gen::program::{random_program, ProgramParams, Stmt};
use cxu::gen::rng::{Rng, SplitMix64};
use cxu::gen::trees::TreeParams;
use cxu::gen::{patterns::PatternParams, wire};
use cxu::index::{detect_grounded, DocIndex};
use cxu::ops::witness::witnesses_update_conflict;
use cxu::ops::{Read, Semantics, Update};
use cxu::sched::{Op, PairDecision};
use cxu::serve::proto::{self, Route};
use cxu::store::{PutPayload, Store, StoreConfig};
use cxu::tree::Tree;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const DOCS: usize = 8;
const NODES: usize = 20_000;
/// Operations in the check pool. Large, so that the pool's mean check
/// cost — which a handful of expensive patterns dominate — barely moves
/// from seed to seed.
const POOL: usize = 400;
/// Each connection's write period.
const PUT_EVERY: Duration = Duration::from_millis(500);
/// Checks re-decided by the tree walk per run.
const SAMPLE: usize = 2_000;
/// Marker edits: insert one of six leaves under the document's `w`
/// child, or delete every `w` child with one of the six labels. Both
/// touch a handful of nodes, so documents keep their size.
const MARKERS: usize = 12;

struct Inputs {
    docs: Vec<String>,
    reads: Vec<(String, Read)>,
    updates: Vec<(String, Update)>,
    markers: Vec<(String, Update)>,
}

fn inputs(seed: u64, nodes: usize) -> Inputs {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x67726f756e64);
    let mut pattern = PatternParams::linear(4);
    pattern.alphabet = 6;
    pattern.branch_rate = 0.2;
    let program = random_program(
        &mut rng,
        &ProgramParams {
            len: POOL,
            update_rate: 0.5,
            delete_rate: 0.4,
            pattern,
        },
    );
    let (mut reads, mut updates) = (Vec::new(), Vec::new());
    for s in &program.stmts {
        let j = wire::stmt_to_json(s).to_string();
        match s {
            Stmt::Read(r) => reads.push((j, r.clone())),
            Stmt::Update(u) => updates.push((j, u.clone())),
        }
    }
    let tparams = TreeParams {
        nodes,
        alphabet: 6,
        ..TreeParams::default()
    };
    let trees: Vec<Tree> = (0..DOCS).map(|_| doc_tree(&mut rng, &tparams)).collect();
    let markers = (0..MARKERS)
        .map(|m| {
            let j = if m < 6 {
                format!("{{\"kind\": \"insert\", \"pattern\": \"*/w\", \"subtree\": \"l{m}\"}}")
            } else {
                format!("{{\"kind\": \"delete\", \"pattern\": \"*/w/l{}\"}}", m - 6)
            };
            let u = Json::parse(&j)
                .ok()
                .and_then(|v| wire::update_from_json(&v).ok())
                .expect("marker ops are well formed");
            (j, u)
        })
        .collect();
    Inputs {
        docs: trees.iter().map(cxu::tree::text::to_text).collect(),
        reads,
        updates,
        markers,
    }
}

/// A random document (uniform attachment with a depth bias, as
/// `random_tree`) whose root is always `l0`, like the documents of one
/// collection sharing their root element, plus the `w` child the marker
/// edits use. A shared root keeps the share of patterns that can match
/// at all the same for every seed.
fn doc_tree(rng: &mut SplitMix64, p: &TreeParams) -> Tree {
    let pool = p.pool();
    let mut t = Tree::new(pool[0]);
    let mut ids = vec![t.root()];
    let mut last = t.root();
    for _ in 1..p.nodes {
        let parent = if rng.gen_bool(p.deep_bias) {
            last
        } else {
            ids[rng.gen_range(0..ids.len())]
        };
        last = t.build_child(parent, pool[rng.gen_range(0..pool.len())]);
        ids.push(last);
    }
    let root = t.root();
    t.build_child(root, "w");
    t
}

/// A request as sent, with the served answer.
#[derive(Clone, Debug)]
enum Entry {
    Check {
        doc: usize,
        r: usize,
        u: usize,
        conflict: bool,
    },
    Put {
        doc: usize,
        marker: usize,
        base: String,
        result: String,
        rev: String,
    },
}

fn render_check(inp: &Inputs, doc: usize, r: usize, u: usize, id: u64, out: &mut String) {
    out.push_str(&format!(
        "{{\"route\": \"doc_check\", \"id\": {id}, \"doc\": \"{}\", \"semantics\": \"node\", \"read\": {}, \"update\": {}}}",
        doc_name(doc),
        inp.reads[r].0,
        inp.updates[u].0
    ));
}

fn render_put(inp: &Inputs, doc: usize, marker: usize, base: &str, id: u64, out: &mut String) {
    out.push_str(&format!(
        "{{\"route\": \"doc_put\", \"id\": {id}, \"doc\": \"{}\", \"base_rev\": \"{base}\", \"op\": {}}}",
        doc_name(doc),
        inp.markers[marker].0
    ));
}

fn rngs(seed: u64, conn: usize) -> (SplitMix64, SplitMix64) {
    let c = (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (
        SplitMix64::seed_from_u64(seed ^ c ^ 0x636865636b),
        SplitMix64::seed_from_u64(seed ^ c ^ 0x707574),
    )
}

struct GroundedSession<'a> {
    inp: &'a Inputs,
    conn: usize,
    checks: SplitMix64,
    puts: SplitMix64,
    winner: Vec<String>,
    next_put: Option<Instant>,
    pending: Option<Entry>,
    id: u64,
    log: Vec<Entry>,
    /// `doc_check` answers indexed at a revision other than the winner
    /// this connection last wrote.
    stale_index: u64,
}

impl<'a> GroundedSession<'a> {
    fn new(inp: &'a Inputs, seed: u64, conn: usize, created: &[String]) -> GroundedSession<'a> {
        let (checks, puts) = rngs(seed, conn);
        GroundedSession {
            inp,
            conn,
            checks,
            puts,
            winner: created.to_vec(),
            next_put: None,
            pending: None,
            id: 0,
            log: Vec::new(),
            stale_index: 0,
        }
    }
}

/// The documents connection `conn` owns: every other one.
fn owned(conn: usize, k: usize) -> usize {
    conn + 2 * k
}

impl Session for GroundedSession<'_> {
    fn next(&mut self, out: &mut String) {
        let now = Instant::now();
        let due = *self.next_put.get_or_insert(now + PUT_EVERY);
        let entry = if now >= due {
            self.next_put = Some(due + PUT_EVERY);
            let doc = owned(self.conn, self.puts.gen_range(0..DOCS / 2));
            let marker = self.puts.gen_range(0..MARKERS);
            let base = self.winner[doc].clone();
            render_put(self.inp, doc, marker, &base, self.id, out);
            Entry::Put {
                doc,
                marker,
                base,
                result: String::new(),
                rev: String::new(),
            }
        } else {
            let doc = owned(self.conn, self.checks.gen_range(0..DOCS / 2));
            let r = self.checks.gen_range(0..self.inp.reads.len());
            let u = self.checks.gen_range(0..self.inp.updates.len());
            render_check(self.inp, doc, r, u, self.id, out);
            Entry::Check {
                doc,
                r,
                u,
                conflict: false,
            }
        };
        self.id += 1;
        self.pending = Some(entry);
    }

    fn answer(&mut self, v: &Json, _latency_ns: u64) {
        let Some(mut entry) = self.pending.take() else {
            return;
        };
        if !is_ok(v) {
            return;
        }
        let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        match &mut entry {
            Entry::Check { doc, conflict, .. } => {
                *conflict = v.get("conflict").and_then(Json::as_bool) == Some(true);
                if s("rev") != self.winner[*doc] {
                    self.stale_index += 1;
                }
            }
            Entry::Put {
                doc, result, rev, ..
            } => {
                *result = s("result");
                *rev = s("rev");
                let w = s("winner");
                if !w.is_empty() {
                    self.winner[*doc] = w;
                }
            }
        }
        self.log.push(entry);
    }
}

fn fingerprint(ctx: &Ctx, inp: &Inputs) -> String {
    let seed = ctx.seed;
    let mut f = ctx.fingerprint("grounded-rw");
    for d in &inp.docs {
        f.str(d);
    }
    for j in inp
        .reads
        .iter()
        .map(|r| &r.0)
        .chain(inp.updates.iter().map(|u| &u.0))
    {
        f.str(j);
    }
    for conn in 0..2 {
        let (mut c, mut p) = rngs(seed, conn);
        for _ in 0..4096 {
            f.u64(c.next_u64());
        }
        for _ in 0..64 {
            f.u64(p.next_u64());
        }
    }
    f.hex()
}

/// Creates the documents and builds each one's index with a first
/// check — both part of set-up. Returns the first revisions.
fn seed_docs(server: &ServerProc, inp: &Inputs) -> Result<Vec<String>, String> {
    let revs = common::create_docs(server, &inp.docs)?;
    let mut c = Conn::connect(&server.addr)?;
    let mut line = String::new();
    for d in 0..DOCS {
        line.clear();
        render_check(inp, d, 0, 0, 0, &mut line);
        c.call_ok(&line)?;
    }
    Ok(revs)
}

/// Replays both connections' logs in order: puts through a fresh store
/// (every minted revision must match), document trees and indexes
/// maintained beside it, and the sampled checks re-decided both by the
/// index and by the tree-walk witness check.
struct Replay {
    put_disagreements: u64,
    check_disagreements: u64,
    checked: usize,
    winners: Vec<String>,
}

fn replay(
    inp: &Inputs,
    logs: &[&[Entry]],
    sample: &BTreeSet<(usize, usize)>,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let store = Store::new(StoreConfig::default());
    let mut trees: Vec<Tree> = Vec::with_capacity(DOCS);
    for (d, content) in inp.docs.iter().enumerate() {
        let tree = tracer
            .span("tree.parse", d as u64, || cxu::tree::text::parse(content))
            .map_err(|e| e.to_string())?;
        store
            .put(
                &doc_name(d),
                None,
                PutPayload::Content(tree.clone()),
                &mut |_: &Op, _: &Op| -> PairDecision {
                    unreachable!("creates never consult the detectors")
                },
            )
            .map_err(|e| e.to_string())?;
        trees.push(tree);
    }
    let mut indexes: Vec<DocIndex> = trees
        .iter()
        .enumerate()
        .map(|(d, t)| tracer.span("index.build", d as u64, || DocIndex::from_tree(t)))
        .collect();
    let mut out = Replay {
        put_disagreements: 0,
        check_disagreements: 0,
        checked: 0,
        winners: Vec::new(),
    };
    let no_rev: cxu::store::RevId = "1-00000000000000000000000000000000"
        .parse()
        .expect("well-formed revision id");
    let mut line = String::new();
    let mut req = 0u64;
    for (conn, log) in logs.iter().enumerate() {
        for (i, e) in log.iter().enumerate() {
            req += 1;
            match e {
                Entry::Put {
                    doc,
                    marker,
                    base,
                    result,
                    rev,
                } => {
                    line.clear();
                    render_put(inp, *doc, *marker, base, i as u64, &mut line);
                    let ok = tracer.span("request", req, || -> Result<bool, String> {
                        let parsed =
                            tracer.span("serve.parse", req, || proto::parse_request(&line))?;
                        let Route::DocPut {
                            doc: name,
                            base_rev,
                            payload,
                        } = &parsed.route
                        else {
                            return Err("replayed put is not a doc_put".to_owned());
                        };
                        let o = tracer
                            .span("store.put", req, || {
                                store.put(
                                    name,
                                    *base_rev,
                                    (**payload).clone(),
                                    &mut |_: &Op, _: &Op| -> PairDecision {
                                        unreachable!(
                                            "puts at the winner never reach the merge rung"
                                        )
                                    },
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        tracer.span("serve.render", req, || {
                            proto::render_doc_put(parsed.id, "doc_put", name, &o)
                        });
                        Ok(o.result.name() == result && o.rev.to_string() == *rev)
                    })?;
                    if !ok {
                        out.put_disagreements += 1;
                    }
                    inp.markers[*marker].1.apply(&mut trees[*doc]);
                    indexes[*doc] =
                        tracer.span("index.build", req, || DocIndex::from_tree(&trees[*doc]));
                }
                Entry::Check {
                    doc,
                    r,
                    u,
                    conflict,
                } if sample.contains(&(conn, i)) => {
                    line.clear();
                    render_check(inp, *doc, *r, *u, i as u64, &mut line);
                    let (read, update) = (&inp.reads[*r].1, &inp.updates[*u].1);
                    let (grounded, walk) =
                        tracer.span("request", req, || -> Result<(bool, bool), String> {
                            let parsed =
                                tracer.span("serve.parse", req, || proto::parse_request(&line))?;
                            let grounded = tracer.span("index.check", req, || {
                                detect_grounded(
                                    read,
                                    update,
                                    &trees[*doc],
                                    &indexes[*doc],
                                    Semantics::Node,
                                )
                            });
                            tracer.span("serve.render", req, || {
                                proto::render_doc_check(
                                    parsed.id,
                                    &doc_name(*doc),
                                    &no_rev,
                                    Semantics::Node,
                                    grounded,
                                    indexes[*doc].len(),
                                )
                            });
                            let walk = witnesses_update_conflict(
                                read,
                                update,
                                &trees[*doc],
                                Semantics::Node,
                            );
                            Ok((grounded, walk))
                        })?;
                    out.checked += 1;
                    if grounded != *conflict || walk != *conflict {
                        out.check_disagreements += 1;
                    }
                }
                Entry::Check { .. } => {}
            }
        }
    }
    out.winners = (0..DOCS)
        .map(|d| {
            store
                .get(&doc_name(d), None, false)
                .map(|g| g.rev.to_string())
                .unwrap_or_default()
        })
        .collect();
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let inp = inputs(ctx.seed, ctx.scaled(NODES, 200));
    let mut out = Outcome::new("grounded-rw", fingerprint(ctx, &inp));
    out.diag(
        "docs.bytes",
        inp.docs.iter().map(String::len).sum::<usize>() as f64,
        "bytes",
    );
    let args: Vec<String> = ["--shards", "2", "--deadline-ms", "60000"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut created = Vec::new();
    let (server, setup_s) = common::setup(if ctx.trace { 1 } else { 5 }, |i| {
        let s = ServerProc::spawn(&ctx.cxu, &args, &ctx.out, &format!("grounded-rw-{i}"))?;
        created = seed_docs(&s, &inp)?;
        Ok(s)
    })?;
    if ctx.trace {
        common::idle_probes(&mut out, &server, Duration::from_secs(2))?;
    }
    let mut a = GroundedSession::new(&inp, ctx.seed, 0, &created);
    let mut b = GroundedSession::new(&inp, ctx.seed, 1, &created);
    closed_loop_pair(
        &server.addr,
        &mut a,
        &mut b,
        Work::For(ctx.dur(0.05).max(Duration::from_millis(500))),
        false,
        None,
    );
    ctx.in_time("grounded-rw measured phase")?;
    let mut phase = common::measure(&server, || {
        closed_loop_pair(
            &server.addr,
            &mut a,
            &mut b,
            Work::For(ctx.dur(1.0)),
            ctx.trace,
            Some(server.pid),
        )
    })?;
    out.set("serve.rss_mb", server.rss_hwm_mb()?);
    let lat = common::report_phase(&mut out, &mut phase, setup_s);
    out.set("serve.closed_p50_ms", lat.whole_p50_us / 1e3);
    let served_winners = common::winners(&server, DOCS)?;
    common::stop_server(&mut out, server);

    let puts = a
        .log
        .iter()
        .chain(&b.log)
        .filter(|e| matches!(e, Entry::Put { .. }))
        .count();
    out.diag("outcome.puts", puts as f64, "count");
    out.check(
        "index.current_winner",
        a.stale_index + b.stale_index == 0,
        format!(
            "{} checks answered from an index of a revision other than the winner",
            a.stale_index + b.stale_index
        ),
    );

    ctx.in_time("grounded-rw replay")?;
    let positions: Vec<(usize, usize)> = [&a.log, &b.log]
        .iter()
        .enumerate()
        .flat_map(|(c, log)| {
            log.iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, Entry::Check { .. }))
                .map(move |(i, _)| (c, i))
        })
        .collect();
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x73616d706c65);
    let sample: BTreeSet<(usize, usize)> = (0..SAMPLE.min(positions.len()))
        .map(|_| positions[rng.gen_range(0..positions.len())])
        .collect();
    let tracer = Tracer::default();
    let t_replay = Instant::now();
    let rep = replay(&inp, &[&a.log, &b.log], &sample, &tracer)?;
    out.diag("replay.seconds", t_replay.elapsed().as_secs_f64(), "s");
    out.check(
        "oracle.puts",
        rep.put_disagreements == 0,
        format!(
            "{puts} puts replayed, {} disagreements",
            rep.put_disagreements
        ),
    );
    out.check(
        "oracle.winners",
        rep.winners == served_winners,
        "replayed winners equal served winners",
    );
    out.check(
        "doc_check_verdicts",
        rep.check_disagreements == 0 && rep.checked > 0,
        format!(
            "{} sampled checks re-decided by index and tree walk, {} disagreements",
            rep.checked, rep.check_disagreements
        ),
    );

    let s = tracer.summary();
    let mean = |name: &str| s.get(name).map_or(0.0, |v| v.1);
    out.set("serve.parse_us", mean("serve.parse"));
    out.set("serve.render_us", mean("serve.render"));
    out.set("tree.parse_us", mean("tree.parse"));
    out.set("index.check_us", mean("index.check"));
    out.set("index.build_us", mean("index.build"));
    out.set("store.big_put_us", mean("store.put"));
    if ctx.trace {
        common::write_trace(ctx, &out, &tracer, &phase.stats.spans)?;
    }
    Ok(out)
}
