//! `cxu` — command-line conflict checker for XML update operations.
//!
//! ```text
//! cxu check   --read <xpath> (--insert <xpath> --subtree <term> | --delete <xpath>)
//!             [--semantics node|tree|value]
//! cxu witness --read <xpath> (--insert … --subtree … | --delete …) --doc <term|file>
//!             [--semantics node|tree|value] [--minimize]
//! cxu eval    --pattern <xpath> --doc <term|file>
//! cxu contain --sub <xpath> --sup <xpath>
//! ```
//!
//! Documents are given inline in the `a(b c(d))` term syntax, or as a
//! path to a `.xml` / `.tree` file.

use cxu::core::{brute, witness_min};
use cxu::pattern::{containment, eval, xpath, Pattern};
use cxu::prelude::*;
use cxu::tree::{text, xml};
use cxu::{detect, witness};
use std::process::ExitCode;

const USAGE: &str = "\
cxu — conflict detection for XML updates (Raghavachari–Shmueli, EDBT'06)

USAGE:
  cxu check   --read <xpath> --insert <xpath> --subtree <term> [--semantics S]
  cxu check   --read <xpath> --delete <xpath>                  [--semantics S]
  cxu check   … --doc <D> [--index]   (grounded: conflict on THIS document)
  cxu detect  … (alias of check)
  cxu witness --read <xpath> --insert <xpath> --subtree <term> --doc <D> [--minimize]
  cxu witness --read <xpath> --delete <xpath>                  --doc <D> [--minimize]
  cxu eval    --pattern <xpath> --doc <D>
  cxu contain --sub <xpath> --sup <xpath>
  cxu analyze --program <file|source>
  cxu schedule (--program <file|source> | --gen-seed N [--gen-len L] [--gen-branch R])
               [--jobs N] [--semantics S] [--deadline-ms MS]
               [--format text|json|dot] [--metrics text|json]
  cxu dot     (--pattern <xpath> | --doc <D>)
  cxu serve   [--addr A] [--shards N] [--queue-depth N] [--pipeline-depth N]
              [--deadline-ms MS] [--data-dir DIR] [--fsync always|interval|never]
              [--fsync-interval-ms MS] [--snapshot-every N]
              [--read-timeout-ms MS] [--max-line-bytes N]
  cxu loadgen --addr A [--connections N] [--duration-ms MS] [--seed N]
              [--profile linear|store|txn] [--delay-ms MS]
              [--validate] [--out FILE]
              linear: [--pipeline W] [--sweep R1,R2,…]   store|txn: [--docs N]
  cxu txn     --file <file|-> (--addr A | [--data-dir DIR]) [--semantics S]
  cxu crashtest --data-dir DIR [--cycles N] [--editors N] [--txn-editors N]
              [--docs N] [--seed N]
              [--min-uptime-ms MS] [--max-uptime-ms MS] [--out FILE]
              [--server-bin PATH]

  S = node | tree | value        (default: node; schedule/serve default to value)
  D = inline term like 'a(b c)', or a path to a .xml / .tree file
  --program -  reads the program from stdin (also works for --doc)
  --deadline-ms MS  per-pair time slice (must be > 0): NP-side analyses
                    that outlive it degrade to conservative conflicts
                    (shown as \"conservative-deadline\" edges)
  --metrics M       append the run's metrics delta (counters + latency
                    histograms) as text, or embed it as a \"metrics\"
                    object when --format json
  --trace PATH      write JSONL span/event tracing to PATH (any command;
                    every other flag a command does not read is refused)
  --gen-seed N      generate the batch from a seeded PRNG instead of
                    --program (deterministic; used by the CI smoke job)
  --profile store   loadgen races concurrent editors over shared
                    documents via doc_put (stale bases auto-merge when
                    the detectors prove commutation); --docs sets how
                    many documents the editors share (default 4)
  --profile txn     loadgen races atomic multi-op transactions (the
                    one-shot txn route) over shared documents, guarded
                    at each editor's last-seen winners; reports commit /
                    conflict / retry rates, and --validate probes every
                    acked transaction's revision set for all-or-nothing
                    visibility
  cxu txn           applies one transaction program — a JSON object with
                    \"guards\" ([{doc, rev}]) and \"ops\" ([{doc, op}]) —
                    read from --file (or stdin via -). With --addr it is
                    sent to a live server; otherwise it commits against
                    an in-process store (--data-dir for a durable one)
  --txn-editors N   crashtest also races N transaction editors; acked
                    transactions are checked for all-or-nothing survival
                    across every kill (txn_partial must stay 0)
  --index           check --doc answers through the structural index
                    (preorder spans + label postings) instead of the
                    recursive tree walk; same verdict, microseconds
  --data-dir DIR    serve persists the store in DIR (checksummed WAL +
                    snapshots) and recovers it on startup; doc_put acks
                    only after the record is durable per --fsync
                    (always = fsync per record, interval = periodic,
                    never = OS-buffered)
  --shards N        serve runs N shards, each owning a slice of the memo
                    cache and one worker; requests route to shards by a
                    deterministic hash of their operations' shapes
                    (--workers is accepted as an alias)
  --pipeline-depth N  serve reads at most N pipelined requests per
                    connection before backpressuring the socket
  --profile linear  loadgen (the default) fires check requests over a
                    seeded pool of linear patterns; --validate re-checks
                    every exact verdict against an in-process scheduler
  --pipeline W      loadgen keeps W requests in flight per connection
                    (one batched write per window; closed loop)
  --sweep R1,R2,…   after the main run, rerun the workload open loop at
                    each fixed arrival rate (req/s total) and attach a
                    `sweep` array to the JSON report: the saturation
                    curve, with latency both raw and coordinated-
                    omission-corrected (from each intended arrival time)
  crashtest         SIGKILLs a real `cxu serve --data-dir` child at
                    seeded random points under editor load, restarts it,
                    and fails on any acked-but-lost write, phantom
                    revision, or changes-feed inconsistency

EXAMPLES:
  cxu check --read 'x//C' --insert 'x/B' --subtree 'C'
  cxu check --read 'x//C' --delete 'x/A' --doc inventory.xml --index
  cxu detect --read 'x//C' --insert 'x/B' --subtree 'C' --trace trace.jsonl
  cxu witness --read 'x//C' --insert 'x/B' --subtree 'C' --doc 'x(B)'
  cxu eval --pattern 'inventory/book[.//quantity]' --doc inventory.xml
  cxu contain --sub 'a/b' --sup 'a//b'
  cxu schedule --program 'y = read $x//A; insert $x/B, C; z = read $x//C'
  cxu schedule --program batch.cxu --deadline-ms 50 --format json
  cxu schedule --gen-seed 42 --gen-len 60 --metrics json
  echo 'y = read $x//A; insert $x/B, C' | cxu schedule --program -
  cxu serve --addr 127.0.0.1:7878 --shards 4 --queue-depth 64 --deadline-ms 100
  cxu loadgen --addr 127.0.0.1:7878 --connections 8 --duration-ms 1500 \\
              --validate --out BENCH_SERVE.json
  cxu loadgen --addr 127.0.0.1:7878 --connections 2 --pipeline 64 \\
              --sweep 20000,50000,100000,200000 --out BENCH_SERVE.json
  cxu loadgen --addr 127.0.0.1:7878 --profile store --docs 4 \\
              --validate --out BENCH_STORE.json
  cxu serve --addr 127.0.0.1:7878 --data-dir ./data --fsync always
  cxu loadgen --addr 127.0.0.1:7878 --profile txn --docs 3 \\
              --validate --out BENCH_TXN.json
  echo '{\"guards\": [{\"doc\": \"d\", \"rev\": \"1-ab\"}], \
\"ops\": [{\"doc\": \"d\", \"op\": {\"kind\": \"insert\", \"pattern\": \"d/a\", \"subtree\": \"x\"}}]}' \\
              | cxu txn --file - --addr 127.0.0.1:7878
  cxu crashtest --data-dir ./crashdata --cycles 100 --seed 42 --out CRASH.json
";

/// Flags that never take a value. Every other flag consumes the next
/// argument verbatim — even one starting with `--`, so values like a
/// label literally named `--x` parse correctly.
const BOOL_FLAGS: &[&str] = &["minimize", "validate", "index"];

struct Args {
    flags: Vec<(String, String)>,
    bools: Vec<String>,
    /// Every flag name a command has looked up, so [`Args::finish`] can
    /// refuse the rest.
    read: std::cell::RefCell<Vec<String>>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut bools = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument: {a}"));
            };
            if let Some((n, v)) = name.split_once('=') {
                flags.push((n.to_owned(), v.to_owned()));
                i += 1;
            } else if BOOL_FLAGS.contains(&name) {
                bools.push(name.to_owned());
                i += 1;
            } else if i + 1 < argv.len() {
                flags.push((name.to_owned(), argv[i + 1].clone()));
                i += 2;
            } else {
                return Err(format!("flag --{name} requires a value"));
            }
        }
        Ok(Args {
            flags,
            bools,
            read: Default::default(),
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().push(name.to_owned());
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        self.read.borrow_mut().push(name.to_owned());
        self.bools.iter().any(|b| b == name)
    }

    /// Refuses any flag the command never looked up. Each command calls
    /// it once, after reading its flags and before it binds, connects or
    /// writes, so a mistyped or stale flag fails loudly instead of
    /// silently running something else.
    fn finish(&self, cmd: &str) -> Result<(), String> {
        let read = self.read.borrow();
        let mut names = self.flags.iter().map(|(n, _)| n).chain(&self.bools);
        match names.find(|n| !read.contains(n)) {
            Some(n) => Err(format!("cxu {cmd} does not take --{n} (see `cxu help`)")),
            None => Ok(()),
        }
    }
}

fn parse_pattern(src: &str) -> Result<Pattern, String> {
    xpath::parse(src).map_err(|e| format!("bad pattern '{src}': {e}"))
}

/// Reads all of stdin; `-` in a file-accepting position means "here".
fn read_stdin() -> Result<String, String> {
    use std::io::Read as _;
    let mut s = String::new();
    std::io::stdin()
        .read_to_string(&mut s)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    Ok(s)
}

fn parse_doc(src: &str) -> Result<Tree, String> {
    if src == "-" {
        let content = read_stdin()?;
        return if content.trim_start().starts_with('<') {
            xml::parse(&content).map_err(|e| format!("bad XML on stdin: {e}"))
        } else {
            text::parse(content.trim()).map_err(|e| format!("bad tree on stdin: {e}"))
        };
    }
    if std::path::Path::new(src).exists() {
        let content =
            std::fs::read_to_string(src).map_err(|e| format!("cannot read {src}: {e}"))?;
        if src.ends_with(".xml") || content.trim_start().starts_with('<') {
            xml::parse(&content).map_err(|e| format!("bad XML in {src}: {e}"))
        } else {
            text::parse(content.trim()).map_err(|e| format!("bad tree in {src}: {e}"))
        }
    } else if src.trim_start().starts_with('<') {
        xml::parse(src).map_err(|e| format!("bad XML: {e}"))
    } else {
        text::parse(src).map_err(|e| format!("bad tree term '{src}': {e}"))
    }
}

fn parse_semantics(args: &Args) -> Result<Semantics, String> {
    match args.get("semantics").unwrap_or("node") {
        "node" => Ok(Semantics::Node),
        "tree" => Ok(Semantics::Tree),
        "value" => Ok(Semantics::Value),
        other => Err(format!("unknown semantics '{other}' (node|tree|value)")),
    }
}

fn parse_update(args: &Args) -> Result<Update, String> {
    if let Some(ins) = args.get("insert") {
        let sub = args.require("subtree")?;
        Ok(Update::Insert(Insert::new(
            parse_pattern(ins)?,
            parse_doc(sub)?,
        )))
    } else if let Some(del) = args.get("delete") {
        Delete::new(parse_pattern(del)?)
            .map(Update::Delete)
            .map_err(|e| format!("bad delete pattern: {e}"))
    } else {
        Err("need --insert <xpath> --subtree <term>, or --delete <xpath>".into())
    }
}

fn cmd_check(args: &Args) -> Result<String, String> {
    let read = Read::new(parse_pattern(args.require("read")?)?);
    let update = parse_update(args)?;
    let sem = parse_semantics(args)?;
    let doc_src = args.get("doc");
    let index = doc_src.is_some() && args.has("index");
    args.finish("check")?;
    // Document-grounded mode: "does the conflict manifest on THIS
    // document" (Lemma 1), rather than "could any document witness it".
    if let Some(doc_src) = doc_src {
        let doc = parse_doc(doc_src)?;
        let (conflict, engine) = if index {
            let idx = cxu::index::DocIndex::from_tree(&doc);
            (
                cxu::index::detect_grounded(&read, &update, &doc, &idx, sem),
                "structural index",
            )
        } else {
            (
                witness::witnesses_update_conflict(&read, &update, &doc, sem),
                "tree walk",
            )
        };
        return Ok(format!(
            "{} on this {}-node document ({:?} semantics, grounded check, {engine})",
            if conflict { "CONFLICT" } else { "independent" },
            doc.live_count(),
            sem
        ));
    }
    if read.pattern().is_linear() {
        let conflict = detect::read_update_conflict(&read, &update, sem)
            .map_err(|e| format!("detector rejected the pair: {e}"))?;
        let mut out = format!(
            "{} ({:?} semantics, PTIME detector, Theorems 1-2)",
            if conflict { "CONFLICT" } else { "independent" },
            sem
        );
        if conflict {
            if let Some(ev) = cxu::core::construct::explain(&read, &update, sem) {
                match (ev.edge, ev.axis) {
                    (Some(edge), Some(axis)) => out.push_str(&format!(
                        "\n  fired at read edge {edge} ({axis:?} axis); witness: {}",
                        text::to_text(&ev.witness)
                    )),
                    _ => out.push_str(&format!(
                        "\n  update lands inside a selected subtree; witness: {}",
                        text::to_text(&ev.witness)
                    )),
                }
            }
        }
        Ok(out)
    } else {
        // NP path: bounded exhaustive search.
        let budget = brute::Budget::default();
        let out = brute::find_witness(&read, &update, sem, budget);
        Ok(match out {
            brute::SearchOutcome::Conflict(w) => format!(
                "CONFLICT — witness: {} ({:?} semantics, exhaustive search)",
                text::to_text(&w),
                sem
            ),
            brute::SearchOutcome::NoConflictWithin(n) => format!(
                "no conflict witnessed by trees of <= {n} nodes \
                 (branching read: problem is NP-complete, §5)"
            ),
            brute::SearchOutcome::BudgetExceeded(_) => format!(
                "undecided: more than {} candidate trees, over the search budget",
                budget.max_trees
            ),
            brute::SearchOutcome::DeadlineExceeded => {
                "undecided: the search deadline expired".into()
            }
        })
    }
}

fn cmd_witness(args: &Args) -> Result<String, String> {
    let read = Read::new(parse_pattern(args.require("read")?)?);
    let update = parse_update(args)?;
    let sem = parse_semantics(args)?;
    let doc = parse_doc(args.require("doc")?)?;
    let minimize = args.has("minimize");
    args.finish("witness")?;
    let is_witness = witness::witnesses_update_conflict(&read, &update, &doc, sem);
    let mut out = format!(
        "document {} a {:?}-semantics conflict",
        if is_witness {
            "WITNESSES"
        } else {
            "does not witness"
        },
        sem
    );
    if is_witness && minimize {
        if let Some(small) = witness_min::minimize(&read, &update, &doc, sem) {
            out.push_str(&format!(
                "\nminimized witness ({} → {} nodes): {}",
                doc.live_count(),
                small.live_count(),
                text::to_text(&small)
            ));
        }
    }
    Ok(out)
}

fn cmd_eval(args: &Args) -> Result<String, String> {
    let p = parse_pattern(args.require("pattern")?)?;
    let doc = parse_doc(args.require("doc")?)?;
    args.finish("eval")?;
    let hits = eval::eval(&p, &doc);
    let mut out = format!("{} node(s) selected", hits.len());
    for n in hits {
        out.push_str(&format!("\n  {}", text::subtree_to_text(&doc, n)));
    }
    Ok(out)
}

fn cmd_contain(args: &Args) -> Result<String, String> {
    let p = parse_pattern(args.require("sub")?)?;
    let q = parse_pattern(args.require("sup")?)?;
    args.finish("contain")?;
    match containment::contains_within(&p, &q, 1 << 22) {
        Some(true) => Ok(format!("{p}  ⊆  {q}")),
        Some(false) => {
            let cx = containment::find_counterexample(&p, &q, 5)
                .map(|t| format!(" (counterexample: {})", text::to_text(&t)))
                .unwrap_or_default();
            Ok(format!("{p}  ⊄  {q}{cx}"))
        }
        None => Err("instance too large for the exact canonical-model procedure".into()),
    }
}

fn cmd_dot(args: &Args) -> Result<String, String> {
    let pattern = args.get("pattern");
    let doc = if pattern.is_none() {
        args.get("doc")
    } else {
        None
    };
    args.finish("dot")?;
    match (pattern, doc) {
        (Some(src), _) => Ok(cxu::pattern::dot::pattern_to_dot(
            &parse_pattern(src)?,
            "pattern",
        )),
        (None, Some(src)) => Ok(cxu::pattern::dot::tree_to_dot(&parse_doc(src)?, "doc")),
        (None, None) => Err("dot needs --pattern <xpath> or --doc <D>".into()),
    }
}

fn load_program(args: &Args) -> Result<cxu::gen::program::Program, String> {
    if let Some(seed) = args.get("gen-seed") {
        if args.get("program").is_some() {
            return Err("--program and --gen-seed are mutually exclusive".into());
        }
        let seed = seed
            .parse::<u64>()
            .map_err(|_| format!("bad --gen-seed '{seed}' (want a u64)"))?;
        let len = match args.get("gen-len") {
            Some(l) => l
                .parse::<usize>()
                .ok()
                .filter(|&l| l >= 1)
                .ok_or_else(|| format!("bad --gen-len '{l}' (want a positive integer)"))?,
            None => 40,
        };
        let branch_rate = match args.get("gen-branch") {
            Some(r) => r
                .parse::<f64>()
                .ok()
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or_else(|| format!("bad --gen-branch '{r}' (want a rate in [0, 1])"))?,
            None => 0.25,
        };
        let mut rng = cxu::gen::rng::SplitMix64::seed_from_u64(seed);
        let params = cxu::gen::program::ProgramParams {
            len,
            pattern: cxu::gen::patterns::PatternParams {
                nodes: 4,
                alphabet: 6,
                branch_rate,
                ..cxu::gen::patterns::PatternParams::default()
            },
            ..cxu::gen::program::ProgramParams::default()
        };
        return Ok(cxu::gen::program::random_program(&mut rng, &params));
    }
    let spec = args.require("program")?;
    let src = if spec == "-" {
        read_stdin()?
    } else if std::path::Path::new(spec).exists() {
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?
    } else {
        spec.to_owned()
    };
    cxu::gen::parse::parse_program(&src).map_err(|e| e.to_string())
}

fn cmd_analyze(args: &Args) -> Result<String, String> {
    use cxu::gen::analysis::{conflict_matrix, cse_pairs, hoistable};
    use cxu::gen::parse::to_source;
    use cxu::gen::program::Stmt;

    let program = load_program(args)?;
    args.finish("analyze")?;

    let mut out = String::from("program:\n");
    for (i, line) in to_source(&program).lines().enumerate() {
        out.push_str(&format!("  {i}: {line}\n"));
    }

    out.push_str("\nconflict matrix (update → later read):\n");
    for v in conflict_matrix(&program, Semantics::Node) {
        let Stmt::Read(r) = &program.stmts[v.read] else {
            unreachable!()
        };
        let u = match &program.stmts[v.update] {
            Stmt::Update(u) => u,
            _ => unreachable!(),
        };
        out.push_str(&format!(
            "  stmt {} ({}) vs read {} ({}): {}\n",
            v.update,
            u.pattern(),
            v.read,
            r.pattern(),
            if v.independent {
                "independent"
            } else {
                "CONFLICT"
            }
        ));
    }

    let hoists = hoistable(&program);
    out.push_str(&format!("\nhoistable reads (tree semantics): {hoists:?}\n"));
    let cse = cse_pairs(&program);
    out.push_str(&format!("CSE-reusable read pairs: {cse:?}\n"));
    Ok(out)
}

fn cmd_schedule(args: &Args) -> Result<String, String> {
    use cxu::sched::{ops_of_program, Detector, SchedConfig, Scheduler};

    let program = load_program(args)?;
    let ops = ops_of_program(&program);

    let mut cfg = SchedConfig {
        semantics: Semantics::Value,
        ..SchedConfig::default()
    };
    if args.get("semantics").is_some() {
        cfg.semantics = parse_semantics(args)?;
    }
    if let Some(j) = args.get("jobs") {
        cfg.jobs = j
            .parse::<usize>()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| format!("bad --jobs '{j}' (want a positive integer)"))?;
    }
    if let Some(ms) = args.get("deadline-ms") {
        let ms = ms
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms >= 1)
            .ok_or_else(|| {
                format!(
                    "bad --deadline-ms '{ms}': want a positive number of milliseconds \
                     (a zero deadline would instantly degrade every NP-side pair \
                     to a conservative conflict)"
                )
            })?;
        cfg.pair_deadline = Some(std::time::Duration::from_millis(ms));
    }
    let metrics_mode = match args.get("metrics") {
        None => None,
        Some(m @ ("text" | "json")) => Some(m),
        Some(other) => return Err(format!("unknown --metrics '{other}' (text|json)")),
    };
    let format = args.get("format").unwrap_or("text");
    args.finish("schedule")?;
    let before = cxu::obs::registry().snapshot();
    let out = Scheduler::new(cfg).run(&ops);
    let delta = cxu::obs::registry().snapshot().delta(&before);

    let detector_name = |d: Detector| d.name();

    let result = match format {
        "text" => {
            let mut s = String::from("ops:\n");
            for (i, op) in ops.iter().enumerate() {
                s.push_str(&format!("  {i}: {op}\n"));
            }
            s.push_str("\nconflict edges:\n");
            let conflicts: Vec<_> = out
                .graph
                .edges()
                .iter()
                .filter(|e| e.verdict.conflict)
                .collect();
            if conflicts.is_empty() {
                s.push_str("  (none — the whole batch is one round)\n");
            }
            for e in conflicts {
                s.push_str(&format!(
                    "  {} -- {}  [{}{}]\n",
                    e.a,
                    e.b,
                    detector_name(e.verdict.detector),
                    if e.cached { ", cached" } else { "" }
                ));
            }
            s.push_str("\nrounds:\n");
            for (k, round) in out.schedule.rounds.iter().enumerate() {
                s.push_str(&format!("  {k}: {round:?}\n"));
            }
            s.push_str(&format!("\n{}", out.stats));
            Ok(s)
        }
        "json" => {
            let mut s = String::from("{\n  \"rounds\": [");
            for (k, round) in out.schedule.rounds.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "[{}]",
                    round
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            s.push_str("],\n  \"conflicts\": [");
            let mut first = true;
            for e in out.graph.edges().iter().filter(|e| e.verdict.conflict) {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!(
                    "\n    {{\"a\": {}, \"b\": {}, \"detector\": \"{}\", \"cached\": {}}}",
                    e.a,
                    e.b,
                    detector_name(e.verdict.detector),
                    e.cached
                ));
            }
            if !first {
                s.push_str("\n  ");
            }
            let st = &out.stats;
            s.push_str(&format!(
                "],\n  \"stats\": {{\"ops\": {}, \"pairs_total\": {}, \"trivial\": {}, \
                 \"pairs_analyzed\": {}, \"cache_hits\": {}, \"prefilter_skips\": {}, \
                 \"ptime_linear_read\": {}, \
                 \"ptime_linear_updates\": {}, \"witness_search\": {}, \"conservative\": {}, \
                 \"degraded_budget\": {}, \"degraded_deadline\": {}, \"degraded_panic\": {}, \
                 \"conflict_edges\": {}, \"rounds\": {}, \"jobs\": {}}}",
                st.ops,
                st.pairs_total,
                st.trivial,
                st.pairs_analyzed,
                st.cache_hits,
                st.prefilter_skips,
                st.ptime_linear_read,
                st.ptime_linear_updates,
                st.witness_search,
                st.conservative,
                st.degraded_budget,
                st.degraded_deadline,
                st.degraded_panic,
                st.conflict_edges,
                st.rounds,
                st.jobs
            ));
            if metrics_mode == Some("json") {
                s.push_str(&format!(",\n  \"metrics\": {}", delta.to_json()));
            }
            s.push_str("\n}");
            Ok(s)
        }
        "dot" => Ok(out.graph.to_dot(&ops, "conflicts")),
        other => Err(format!("unknown format '{other}' (text|json|dot)")),
    };
    let mut result = result?;
    match metrics_mode {
        Some("text") => {
            result.push_str(&format!("\n\nmetrics (delta for this run):\n{delta}"));
        }
        Some("json") if format != "json" => {
            result.push_str(&format!("\n{}", delta.to_json()));
        }
        _ => {}
    }
    Ok(result)
}

/// The write end of the signal self-pipe, as a raw fd for the handler
/// (−1 until [`SignalWatcher::spawn`] installs it). The handler's only
/// work is one `write(2)`, which is async-signal-safe, and a successful
/// write leaves `errno` untouched.
static SIGNAL_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

/// The byte the handler writes; [`SignalWatcher::finish`] writes any
/// other.
const SIGNAL_BYTE: u8 = b'S';

extern "C" fn note_signal(_signum: i32) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    let fd = SIGNAL_FD.load(std::sync::atomic::Ordering::Relaxed);
    if fd >= 0 {
        // SAFETY: one byte from a static, to an fd that stays open for
        // the life of the process.
        unsafe {
            write(fd, &SIGNAL_BYTE, 1);
        }
    }
}

/// Routes SIGINT (2) and SIGTERM (15) into the self-pipe via libc's
/// `signal`, declared directly so the binary stays dependency-free.
fn install_signal_hooks() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, note_signal);
        signal(15, note_signal);
    }
}

/// A thread that turns the first SIGINT/SIGTERM into a graceful
/// [`cxu::serve::ServerHandle::shutdown`]. It blocks reading the signal
/// self-pipe, so an idle server has no timer to wake for. `finish` reaps
/// it once the server has drained on its own (e.g. via the `shutdown`
/// route).
struct SignalWatcher {
    pipe: std::os::unix::net::UnixStream,
    thread: std::thread::JoinHandle<()>,
}

impl SignalWatcher {
    fn spawn(server: cxu::serve::ServerHandle) -> std::io::Result<SignalWatcher> {
        use std::io::Read as _;
        use std::os::unix::io::IntoRawFd as _;
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        // Nonblocking, so a burst of signals can never block the handler.
        tx.set_nonblocking(true)?;
        let pipe = tx.try_clone()?;
        // Both ends stay open for the life of the process: the handler
        // may run at any moment, and a write to a closed pipe would fail.
        SIGNAL_FD.store(tx.into_raw_fd(), std::sync::atomic::Ordering::Relaxed);
        let rx: &'static std::os::unix::net::UnixStream = Box::leak(Box::new(rx));
        install_signal_hooks();
        let thread = std::thread::spawn(move || {
            let mut byte = [0u8];
            loop {
                match (&*rx).read(&mut byte) {
                    Ok(1) if byte[0] == SIGNAL_BYTE => {
                        server.shutdown();
                        return;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    _ => return,
                }
            }
        });
        Ok(SignalWatcher { pipe, thread })
    }

    fn finish(self) {
        use std::io::Write as _;
        let _ = (&self.pipe).write(&[0]);
        let _ = self.thread.join();
    }
}

fn cmd_serve(args: &Args) -> Result<String, String> {
    use cxu::serve::{ServeConfig, Server};
    use cxu::store::FsyncPolicy;

    let mut cfg = ServeConfig::default();
    if let Some(dir) = args.get("data-dir") {
        cfg.data_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(f) = args.get("fsync") {
        cfg.fsync = FsyncPolicy::parse(f)
            .ok_or_else(|| format!("bad --fsync '{f}' (always|interval|never)"))?;
    }
    if let Some(ms) = args.get("fsync-interval-ms") {
        let ms = ms
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms >= 1)
            .ok_or_else(|| {
                format!("bad --fsync-interval-ms '{ms}' (want a positive number of milliseconds)")
            })?;
        cfg.fsync = FsyncPolicy::Interval(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = args.get("snapshot-every") {
        cfg.snapshot_every = n
            .parse::<u64>()
            .map_err(|_| format!("bad --snapshot-every '{n}' (want a record count; 0 disables)"))?;
    }
    if let Some(ms) = args.get("read-timeout-ms") {
        let ms = ms
            .parse::<u64>()
            .map_err(|_| format!("bad --read-timeout-ms '{ms}' (want milliseconds; 0 disables)"))?;
        cfg.read_timeout = if ms == 0 {
            None
        } else {
            Some(std::time::Duration::from_millis(ms))
        };
    }
    if let Some(n) = args.get("max-line-bytes") {
        cfg.max_line_bytes = n
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 64)
            .ok_or_else(|| format!("bad --max-line-bytes '{n}' (want an integer >= 64)"))?;
    }
    // --shards is the real name; --workers survives as an alias (every
    // shard runs exactly one worker).
    if let Some(w) = args.get("shards").or_else(|| args.get("workers")) {
        cfg.workers = w
            .parse::<usize>()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("bad --shards '{w}' (want a positive integer)"))?;
    }
    if let Some(p) = args.get("pipeline-depth") {
        cfg.pipeline_depth = p
            .parse::<usize>()
            .ok()
            .filter(|&p| p >= 1)
            .ok_or_else(|| format!("bad --pipeline-depth '{p}' (want a positive integer)"))?;
    }
    if let Some(q) = args.get("queue-depth") {
        cfg.queue_depth = q
            .parse::<usize>()
            .ok()
            .filter(|&q| q >= 1)
            .ok_or_else(|| format!("bad --queue-depth '{q}' (want a positive integer)"))?;
    }
    if let Some(ms) = args.get("deadline-ms") {
        let ms = ms
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms >= 1)
            .ok_or_else(|| {
                format!("bad --deadline-ms '{ms}' (want a positive number of milliseconds)")
            })?;
        cfg.default_deadline = Some(std::time::Duration::from_millis(ms));
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    args.finish("serve")?;
    let server = Server::bind(cfg, addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;

    // The recovery report precedes the readiness line so harnesses can
    // parse both in one stdout pass.
    if let Some(report) = server.recovery_report() {
        println!("cxu-serve recovered {}", report.to_json());
    }
    // Announce readiness before blocking in the accept loop, so scripts
    // can `grep` the line (it carries the resolved port for `:0`).
    println!("cxu-serve listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let watcher = SignalWatcher::spawn(server.handle())
        .map_err(|e| format!("cannot install the signal watcher: {e}"))?;
    let summary = server.run().map_err(|e| format!("server error: {e}"))?;
    watcher.finish();
    Ok(format!(
        "drained after {} connection(s): accepted {} = completed {} \
         + rejected_overload {} + failed {}",
        summary.connections,
        summary.accepted,
        summary.completed,
        summary.rejected_overload,
        summary.failed
    ))
}

fn cmd_loadgen(args: &Args) -> Result<String, String> {
    use cxu::serve::{loadgen, LoadConfig, LoadProfile};

    let mut cfg = LoadConfig {
        addr: args.require("addr")?.to_owned(),
        validate: args.has("validate"),
        ..LoadConfig::default()
    };
    if let Some(c) = args.get("connections") {
        cfg.connections = c
            .parse::<usize>()
            .ok()
            .filter(|&c| c >= 1)
            .ok_or_else(|| format!("bad --connections '{c}' (want a positive integer)"))?;
    }
    if let Some(ms) = args.get("duration-ms") {
        let ms = ms
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms >= 1)
            .ok_or_else(|| {
                format!("bad --duration-ms '{ms}' (want a positive number of milliseconds)")
            })?;
        cfg.duration = std::time::Duration::from_millis(ms);
    }
    if let Some(s) = args.get("seed") {
        cfg.seed = s
            .parse::<u64>()
            .map_err(|_| format!("bad --seed '{s}' (want a u64)"))?;
    }
    if let Some(p) = args.get("profile") {
        cfg.profile = LoadProfile::from_name(p)?;
    }
    if let Some(ms) = args.get("delay-ms") {
        cfg.delay_ms = ms
            .parse::<u64>()
            .map_err(|_| format!("bad --delay-ms '{ms}' (want milliseconds)"))?;
    }
    // --pipeline and --sweep shape the linear profile's `check` traffic,
    // --docs the editor profiles' shared documents; each profile leaves
    // the others' flags unread, so `finish` refuses them.
    let mut sweep: Vec<f64> = Vec::new();
    if cfg.profile == LoadProfile::Linear {
        if let Some(w) = args.get("pipeline") {
            cfg.pipeline = w
                .parse::<usize>()
                .ok()
                .filter(|&w| w >= 1)
                .ok_or_else(|| format!("bad --pipeline '{w}' (want a positive integer)"))?;
        }
        if let Some(s) = args.get("sweep") {
            sweep = s
                .split(',')
                .map(|t| t.trim().parse::<f64>().ok().filter(|&r| r >= 1.0))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    format!("bad --sweep '{s}' (want comma-separated rates in req/s)")
                })?;
        }
    } else if let Some(n) = args.get("docs") {
        cfg.docs = n
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --docs '{n}' (want a positive integer)"))?;
    }
    let out_path = args.get("out");
    args.finish(&format!("loadgen --profile {}", cfg.profile.name()))?;

    let report = loadgen::run(&cfg)?;
    let json = if sweep.is_empty() {
        report.to_json()
    } else {
        // Each sweep point is an independent open-loop run at a fixed
        // arrival rate; validation stays on the headline run.
        let mut points = Vec::with_capacity(sweep.len());
        for &rate in &sweep {
            let mut pcfg = cfg.clone();
            pcfg.rate = Some(rate);
            pcfg.validate = false;
            points.push(loadgen::run(&pcfg)?);
        }
        loadgen::sweep_to_json(&report, &points)
    };
    let out = if let Some(path) = out_path {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let mut summary = format!(
            "wrote {path}\nsent {} | completed {} ({:.0} req/s) | overloaded {} ({:.1}%) \
             | failed {}\nlatency p50 {} us, p99 {} us, max {} us\
             \nvalidated {} distinct pair(s)",
            report.sent,
            report.completed,
            report.throughput_rps(),
            report.overloaded,
            100.0 * report.rejection_rate(),
            report.failed,
            report.p50_us,
            report.p99_us,
            report.max_us,
            report.checked_pairs,
        );
        if !sweep.is_empty() {
            summary.push_str(&format!("\nsweep: {} rate point(s) attached", sweep.len()));
        }
        if cfg.profile == LoadProfile::Store {
            let s = &report.store;
            summary.push_str(&format!(
                "\nstore: created {} | applied {} | merged {} | branched {} \
                 | rejected {} | noop {}",
                s.created, s.applied, s.merged, s.branched, s.rejected, s.noop
            ));
        }
        if cfg.profile == LoadProfile::Txn {
            let t = &report.txn;
            summary.push_str(&format!(
                "\ntxn: applied {} | replayed {} | conflicted {} | rejected {} \
                 | conflict retries {}",
                t.applied, t.replayed, t.conflicted, t.rejected, t.conflict_retries
            ));
        }
        summary
    } else {
        json
    };
    if cfg.validate && report.disagreements > 0 {
        return Err(format!(
            "{out}\nverdict disagreements: {} (server vs in-process oracle)",
            report.disagreements
        ));
    }
    Ok(out)
}

/// Renders a server `txn` response for humans; wire errors and losses
/// become CLI failures so scripts can branch on the exit code.
fn render_txn_answer(resp: &cxu::gen::json::Json) -> Result<String, String> {
    use cxu::gen::json::Json;
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("server refused the transaction: {resp}"));
    }
    match resp.get("result").and_then(Json::as_str) {
        Some("applied") => {
            let replayed = resp.get("replayed").and_then(Json::as_bool) == Some(true);
            let mut out = String::from(if replayed {
                "applied (idempotent replay of an earlier commit):"
            } else {
                "applied:"
            });
            for row in resp.get("revs").and_then(Json::as_arr).unwrap_or(&[]) {
                out.push_str(&format!(
                    "\n  {} @ {}",
                    row.get("doc").and_then(Json::as_str).unwrap_or("?"),
                    row.get("rev").and_then(Json::as_str).unwrap_or("?"),
                ));
            }
            if let Some(seq) = resp.get("seq").and_then(Json::as_u64) {
                out.push_str(&format!("\nseq {seq}"));
            }
            if let Some(n) = resp.get("checked_pairs").and_then(Json::as_u64) {
                out.push_str(&format!(", {n} detector pair(s) checked"));
            }
            Ok(out)
        }
        Some(other) => {
            let retryable = resp.get("retryable").and_then(Json::as_bool) == Some(true);
            let detail = resp
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("no detail");
            Err(format!(
                "transaction {other}{}: {detail}",
                if retryable {
                    " (retryable — refresh the guards and resubmit)"
                } else {
                    ""
                }
            ))
        }
        None => Err(format!("malformed server response: {resp}")),
    }
}

fn cmd_txn(args: &Args) -> Result<String, String> {
    use cxu::gen::json::Json;

    let spec = args.require("file")?;
    let semantics = match args.get("semantics") {
        Some(_) => Some(parse_semantics(args)?),
        None => None,
    };
    let addr = args.get("addr");
    let data_dir = if addr.is_none() {
        args.get("data-dir")
    } else {
        None
    };
    args.finish("txn")?;
    let src = if spec == "-" {
        read_stdin()?
    } else {
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?
    };
    let v = Json::parse(src.trim()).map_err(|e| format!("bad transaction JSON: {e}"))?;

    // Live server: wrap the program as a one-shot `txn` request and
    // send it over the socket — the same commit path the load
    // generator and the crash harness exercise.
    if let Some(addr) = addr {
        let Json::Obj(mut members) = v else {
            return Err("transaction must be a JSON object with \"guards\" and \"ops\"".into());
        };
        members.retain(|(k, _)| k != "route" && k != "semantics");
        members.insert(0, ("route".to_owned(), Json::str("txn")));
        if let Some(sem) = semantics {
            members.push(("semantics".to_owned(), Json::str(sem.name())));
        }
        let req = Json::Obj(members).to_string();
        use std::io::{BufRead as _, BufReader, Write as _};
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        writer
            .write_all(req.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        let resp = Json::parse(line.trim_end()).map_err(|e| format!("bad response line: {e}"))?;
        return render_txn_answer(&resp);
    }

    // In-process: apply the transaction directly to a store opened
    // from --data-dir (durable, WAL-committed as one frame) or to an
    // ephemeral empty store without it.
    use cxu::sched::{Deadline, SchedConfig, Scheduler};
    use cxu::store::{DurabilityConfig, Store, StoreConfig};

    let wire_txn =
        cxu::gen::wire::txn_from_json(&v).map_err(|e| format!("bad transaction: {e}"))?;
    if wire_txn.ops.is_empty() {
        return Err("transaction has no ops".into());
    }
    let txn = cxu::txn::Txn::from_wire(&wire_txn).map_err(|e| format!("bad transaction: {e}"))?;
    let store = match data_dir {
        Some(dir) => Store::open(StoreConfig::default(), DurabilityConfig::new(dir))
            .map_err(|e| format!("cannot open store in {dir}: {e}"))?,
        None => Store::new(StoreConfig::default()),
    };
    let mut sched = Scheduler::new(SchedConfig {
        semantics: semantics.unwrap_or(Semantics::Value),
        jobs: 1,
        ..SchedConfig::default()
    });
    let deadline = Deadline::never();
    let mut check = |a: &cxu::sched::Op, b: &cxu::sched::Op| sched.check_pair(a, b, &deadline);
    match txn.apply(&store, &mut check) {
        Ok(out) => {
            let mut s = String::from(if out.replayed {
                "applied (idempotent replay of an earlier commit):"
            } else {
                "applied:"
            });
            for (doc, rev) in &out.revs {
                s.push_str(&format!("\n  {doc} @ {rev}"));
            }
            s.push_str(&format!(
                "\nseq {}, {} detector pair(s) checked",
                out.seq, out.checked_pairs
            ));
            Ok(s)
        }
        Err(e) => Err(format!(
            "transaction {}: {e}",
            if e.retryable() {
                "conflicted (retryable — refresh the guards and resubmit)"
            } else {
                "rejected"
            }
        )),
    }
}

fn cmd_crashtest(args: &Args) -> Result<String, String> {
    use cxu::serve::{crash, CrashConfig};

    let server_bin = match args.get("server-bin") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?,
    };
    let data_dir = std::path::PathBuf::from(args.require("data-dir")?);
    let mut cfg = CrashConfig::new(server_bin, data_dir);
    if let Some(n) = args.get("cycles") {
        cfg.cycles = n
            .parse::<u32>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --cycles '{n}' (want a positive integer)"))?;
    }
    if let Some(n) = args.get("editors") {
        cfg.editors = n
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --editors '{n}' (want a positive integer)"))?;
    }
    if let Some(n) = args.get("txn-editors") {
        cfg.txn_editors = n
            .parse::<usize>()
            .map_err(|_| format!("bad --txn-editors '{n}' (want a thread count; 0 disables)"))?;
    }
    if let Some(n) = args.get("docs") {
        cfg.docs = n
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --docs '{n}' (want a positive integer)"))?;
    }
    if let Some(s) = args.get("seed") {
        cfg.seed = s
            .parse::<u64>()
            .map_err(|_| format!("bad --seed '{s}' (want a u64)"))?;
    }
    if let Some(ms) = args.get("min-uptime-ms") {
        cfg.min_uptime_ms = ms
            .parse::<u64>()
            .map_err(|_| format!("bad --min-uptime-ms '{ms}' (want milliseconds)"))?;
    }
    if let Some(ms) = args.get("max-uptime-ms") {
        cfg.max_uptime_ms = ms
            .parse::<u64>()
            .ok()
            .filter(|&ms| ms > cfg.min_uptime_ms)
            .ok_or_else(|| {
                format!("bad --max-uptime-ms '{ms}' (want milliseconds > --min-uptime-ms)")
            })?;
    }

    let out_path = args.get("out");
    args.finish("crashtest")?;

    let report = crash::run(&cfg)?;
    let json = report.to_json();
    if let Some(path) = out_path {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let summary = format!(
        "{} cycle(s): acked {} (minted {}) | checked {} | lost {} | phantoms {} \
         | txns {} (partial {}) | torn recoveries {} | replayed {} record(s), final seq {}",
        report.cycles,
        report.acked,
        report.minted,
        report.checked,
        report.lost,
        report.phantoms,
        report.txn_acked,
        report.txn_partial,
        report.torn_recoveries,
        report.replayed_records,
        report.recovered_seq,
    );
    if report.ok() {
        Ok(format!(
            "{summary}\ndurability holds: every acked write survived, \
             every acked transaction survived whole"
        ))
    } else {
        Err(format!(
            "{summary}\nDURABILITY VIOLATIONS:\n  {}",
            report.violations.join("\n  ")
        ))
    }
}

fn run() -> Result<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(USAGE.into());
    };
    let args = Args::parse(rest)?;
    if let Some(path) = args.get("trace") {
        cxu::obs::trace::enable_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot open trace file '{path}': {e}"))?;
    }
    let result = match cmd.as_str() {
        "check" | "detect" => cmd_check(&args),
        "witness" => cmd_witness(&args),
        "eval" => cmd_eval(&args),
        "contain" => cmd_contain(&args),
        "analyze" => cmd_analyze(&args),
        "schedule" => cmd_schedule(&args),
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        "txn" => cmd_txn(&args),
        "crashtest" => cmd_crashtest(&args),
        "dot" => cmd_dot(&args),
        "help" | "--help" | "-h" => Ok(USAGE.into()),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    // Flush and close the JSONL sink before the process exits.
    cxu::obs::trace::disable();
    result
}

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
