//! `cxu-benchmark` — the benchmark every performance change to this
//! repository is judged by.
//!
//! It spawns the real `cxu serve --shards 2` once per workload, drives
//! one of four seeded workloads from this process (at most two load
//! threads and two connections at any moment), checks every answer it
//! can against in-process oracles, and prints the metrics. The last
//! line of standard output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}, ...}}
//! ```
//!
//! holding every end-to-end metric, or — with `--trace 1` — every
//! per-layer metric, as `BENCHMARK.json` (read from the working
//! directory) lists them. A table goes to standard error, the full report to
//! `benchmark/out/report-<workload>.json`, and traced runs write their
//! spans to `benchmark/out/trace-<workload>.jsonl`.
//!
//! Usage (normally through `benchmark/run.sh`, which builds first):
//!
//! ```text
//! cxu-benchmark --cxu PATH [--workload W] [--seed N] [--seconds S]
//!               [--trace 0|1] [--smoke]
//! ```
//!
//! `--seconds` (default 25, the `run_seconds` of `BENCHMARK.json`) is how
//! long each workload measures; it is part of every fingerprint, so runs
//! of different lengths never compare as equal.
//!
//! Exit status: 0 when every correctness check held, 1 when one failed
//! (the result line is still printed), 2 when the run could not be
//! carried out (no result line).

mod check;
mod client;
mod common;
mod edit;
mod grounded;
mod report;
mod server;
mod stats;
mod trace;

use common::Ctx;
use report::{catalog, Catalog, Outcome};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, in the order a plain invocation runs them.
const WORKLOADS: &[&str] = &["check-hot", "check-cold", "edit-durable", "grounded-rw"];
/// Measured seconds per run unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 25.0;
/// The default workload seed. Seed 7 is held out (see README).
const DEFAULT_SEED: u64 = 42;
/// A workload that runs longer than this fails instead of hanging.
const WORKLOAD_CAP: Duration = Duration::from_secs(150);

struct Args {
    cxu: PathBuf,
    out: PathBuf,
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        cxu: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: usize| -> Result<&String, String> {
        argv.get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--cxu" => {
                a.cxu = PathBuf::from(value(i)?);
                i += 1;
            }
            "--workload" => {
                let w = value(i)?;
                let w = WORKLOADS
                    .iter()
                    .find(|n| *n == w)
                    .ok_or_else(|| format!("unknown workload {w:?} (one of {WORKLOADS:?})"))?;
                a.workloads = vec![w];
                i += 1;
            }
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|_| "--seed wants an integer")?;
                i += 1;
            }
            "--seconds" => {
                a.seconds = value(i)?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 60.0)
                    .ok_or("--seconds wants a number from 1 to 60")?;
                i += 1;
            }
            "--trace" => {
                a.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_owned()),
                };
                i += 1;
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if a.cxu.as_os_str().is_empty() {
        return Err("--cxu PATH (the cxu binary under test) is required".to_owned());
    }
    if a.smoke {
        a.seconds = a.seconds.min(2.0);
    }
    Ok(a)
}

fn run_one(args: &Args, workload: &'static str) -> Result<Outcome, String> {
    let ctx = Ctx {
        cxu: args.cxu.clone(),
        out: args.out.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke { 0.05 } else { 1.0 },
        deadline: Instant::now() + WORKLOAD_CAP,
    };
    let out = match workload {
        "check-hot" => check::run_hot(&ctx)?,
        "check-cold" => check::run_cold(&ctx)?,
        "edit-durable" => edit::run(&ctx)?,
        "grounded-rw" => grounded::run(&ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    ctx.in_time("the report")?;
    Ok(out)
}

/// Smoke assertions: every end-to-end metric is reported and none
/// reads zero.
fn smoke_checks(out: &mut Outcome) {
    let unset: Vec<&String> = catalog()
        .end_to_end
        .iter()
        .map(|m| &m.0)
        .filter(|n| out.values.get(*n).is_none_or(|v| v.0 <= 0.0))
        .collect();
    out.check(
        "smoke.end_to_end_set",
        unset.is_empty(),
        format!("unset or zero: {unset:?}"),
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cxu-benchmark: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = Catalog::load(Path::new("BENCHMARK.json")) {
        eprintln!("cxu-benchmark: {e}");
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cxu-benchmark: {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        eprintln!(
            "cxu-benchmark: {w} seed {} for {}s{}",
            args.seed,
            args.seconds,
            if args.trace { " (traced)" } else { "" }
        );
        match run_one(&args, w) {
            Ok(mut out) => {
                if args.smoke {
                    smoke_checks(&mut out);
                }
                eprint!("{}", out.table());
                let path = args.out.join(format!("report-{w}.json"));
                if let Err(e) =
                    std::fs::write(&path, out.report_json(args.seed, args.seconds, args.trace))
                {
                    eprintln!("cxu-benchmark: {}: {e}", path.display());
                }
                outcomes.push(out);
            }
            Err(e) => {
                eprintln!("cxu-benchmark: {w}: {e}");
                std::process::exit(2);
            }
        }
    }
    let correct = outcomes.iter().all(Outcome::correct);
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    if let [one] = outcomes.as_slice() {
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            one.metrics_json(args.trace)
        );
    } else {
        let per: Vec<String> = outcomes
            .iter()
            .map(|o| {
                format!(
                    "\"{}\": {{\"fingerprint\": \"{}\", \"correct\": {}, \"metrics\": {}}}",
                    o.workload,
                    o.fingerprint,
                    o.correct(),
                    o.metrics_json(args.trace)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
            per.join(", ")
        );
    }
    std::process::exit(if correct { 0 } else { 1 });
}
