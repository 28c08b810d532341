//! Integration tests driving the `cxu` binary end to end.

use std::process::{Command, Output};

fn cxu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cxu"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn check_conflict_linear() {
    let out = cxu(&[
        "check",
        "--read",
        "x//C",
        "--insert",
        "x/B",
        "--subtree",
        "C",
    ]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("CONFLICT"), "{s}");
    assert!(s.contains("witness"), "evidence shown: {s}");
}

#[test]
fn check_independent_linear() {
    let out = cxu(&[
        "check",
        "--read",
        "x//D",
        "--insert",
        "x/B",
        "--subtree",
        "C",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("independent"));
}

#[test]
fn check_delete() {
    let out = cxu(&["check", "--read", "a/b//v", "--delete", "a/b/u"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("CONFLICT"));
}

#[test]
fn check_semantics_flag() {
    // Node-independent but tree-conflicting pair.
    let node = cxu(&[
        "check",
        "--read",
        "a/b",
        "--insert",
        "a/b/c",
        "--subtree",
        "x",
    ]);
    assert!(stdout(&node).contains("independent"));
    let tree = cxu(&[
        "check",
        "--read",
        "a/b",
        "--insert",
        "a/b/c",
        "--subtree",
        "x",
        "--semantics",
        "tree",
    ]);
    assert!(stdout(&tree).contains("CONFLICT"), "{}", stdout(&tree));
}

#[test]
fn check_branching_read_uses_search() {
    let out = cxu(&[
        "check",
        "--read",
        "a[b][c]",
        "--insert",
        "a[b]",
        "--subtree",
        "c",
    ]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("CONFLICT") && s.contains("exhaustive"), "{s}");
}

#[test]
fn witness_and_minimize() {
    let out = cxu(&[
        "witness",
        "--read",
        "x//C",
        "--insert",
        "x/B",
        "--subtree",
        "C",
        "--doc",
        "x(B(pad) junk(j1 j2))",
        "--minimize",
    ]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("WITNESSES"), "{s}");
    assert!(s.contains("minimized witness"), "{s}");
    assert!(s.contains("x(B)"), "{s}");
}

#[test]
fn witness_negative() {
    let out = cxu(&[
        "witness",
        "--read",
        "x//C",
        "--insert",
        "x/B",
        "--subtree",
        "C",
        "--doc",
        "x(D)",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("does not witness"));
}

#[test]
fn eval_inline_term() {
    let out = cxu(&["eval", "--pattern", "a//b", "--doc", "a(b x(b))"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("2 node(s) selected"));
}

#[test]
fn eval_xml_file() {
    let dir = std::env::temp_dir().join("cxu-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.xml");
    std::fs::write(&path, "<inv><book><q/></book><book/></inv>").unwrap();
    let out = cxu(&[
        "eval",
        "--pattern",
        "inv/book[q]",
        "--doc",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("1 node(s) selected"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn containment_both_ways() {
    let yes = cxu(&["contain", "--sub", "a/b", "--sup", "a//b"]);
    assert!(stdout(&yes).contains("⊆"));
    let no = cxu(&["contain", "--sub", "a//b", "--sup", "a/b"]);
    let s = stdout(&no);
    assert!(s.contains("⊄") && s.contains("counterexample"), "{s}");
}

#[test]
fn missing_args_fail_cleanly() {
    let out = cxu(&["check", "--read", "a/b"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--insert"));
}

#[test]
fn bad_pattern_reports_position() {
    let out = cxu(&["check", "--read", "a[", "--delete", "a/b"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad pattern"));
}

#[test]
fn help_and_unknown_command() {
    let help = cxu(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("USAGE"));
    let unknown = cxu(&["frobnicate"]);
    assert!(!unknown.status.success());
}

#[test]
fn no_args_prints_usage() {
    let out = cxu(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn analyze_inline_program() {
    let out = cxu(&[
        "analyze",
        "--program",
        "y = read $x//A; insert $x/B, <C/>; z = read $x//C; w = read $x//D",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("CONFLICT"), "{s}");
    assert!(s.contains("independent"), "{s}");
}

#[test]
fn analyze_program_file() {
    let dir = std::env::temp_dir().join("cxu-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.cxu");
    std::fs::write(
        &path,
        "# restock pipeline\ny = read $x/book/title\ninsert $x/book, restock\nz = read $x/book/title\n",
    )
    .unwrap();
    let out = cxu(&["analyze", "--program", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("CSE-reusable read pairs: [(0, 2)]"), "{s}");
}

#[test]
fn analyze_bad_program() {
    let out = cxu(&["analyze", "--program", "launch the missiles"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("statement 1"));
}

#[test]
fn dot_export() {
    let p = cxu(&["dot", "--pattern", "a[.//c]/b"]);
    assert!(p.status.success());
    let s = stdout(&p);
    assert!(
        s.starts_with("digraph") && s.contains("style=dashed"),
        "{s}"
    );
    let t = cxu(&["dot", "--doc", "a(b c(d))"]);
    assert!(stdout(&t).matches("->").count() == 3);
    let neither = cxu(&["dot"]);
    assert!(!neither.status.success());
}

#[test]
fn flag_value_starting_with_dashes() {
    // A label literally named `--x`: the old parser treated the flag as
    // boolean whenever the next argument started with `--`.
    let out = cxu(&["dot", "--doc", "--x(b)"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("--x"), "{}", stdout(&out));
    // Also as an inserted subtree.
    let w = cxu(&[
        "witness",
        "--read",
        "x//--x",
        "--insert",
        "x/B",
        "--subtree",
        "--x",
        "--doc",
        "x(B)",
    ]);
    assert!(w.status.success(), "{}", stderr(&w));
    assert!(stdout(&w).contains("WITNESSES"), "{}", stdout(&w));
}

#[test]
fn flag_equals_value_form() {
    let out = cxu(&[
        "check",
        "--read=a/b",
        "--insert=a/b/c",
        "--subtree=x",
        "--semantics=tree",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("CONFLICT"), "{}", stdout(&out));
}

#[test]
fn missing_flag_value_is_an_error() {
    let out = cxu(&["eval", "--pattern", "a/b", "--doc"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("requires a value"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn schedule_text() {
    let out = cxu(&[
        "schedule",
        "--program",
        "y = read $x//A; insert $x/B, C; z = read $x//C",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("rounds:"), "{s}");
    assert!(s.contains("0: [0, 1]"), "{s}");
    assert!(s.contains("1: [2]"), "{s}");
    assert!(s.contains("ptime-linear-read"), "{s}");
}

#[test]
fn schedule_json_and_dot() {
    let prog = "y = read $x//A; insert $x/B, C; z = read $x//C";
    let json = cxu(&[
        "schedule",
        "--program",
        prog,
        "--format",
        "json",
        "--jobs",
        "2",
    ]);
    assert!(json.status.success(), "{}", stderr(&json));
    let s = stdout(&json);
    assert!(s.contains("\"rounds\": [[0, 1], [2]]"), "{s}");
    assert!(s.contains("\"detector\": \"ptime-linear-read\""), "{s}");
    assert!(s.contains("\"jobs\": 2"), "{s}");
    let dot = cxu(&["schedule", "--program", prog, "--format", "dot"]);
    assert!(dot.status.success());
    let d = stdout(&dot);
    assert!(d.starts_with("graph conflicts {"), "{d}");
    assert!(d.contains("n1 -- n2"), "{d}");
}

#[test]
fn schedule_rejects_bad_jobs_and_format() {
    let prog = "insert $x/B, C";
    let bad_jobs = cxu(&["schedule", "--program", prog, "--jobs", "0"]);
    assert!(!bad_jobs.status.success());
    assert!(
        stderr(&bad_jobs).contains("positive integer"),
        "{}",
        stderr(&bad_jobs)
    );
    let bad_fmt = cxu(&["schedule", "--program", prog, "--format", "yaml"]);
    assert!(!bad_fmt.status.success());
}

#[test]
fn schedule_rejects_zero_deadline() {
    let out = cxu(&[
        "schedule",
        "--program",
        "insert $x/B, C",
        "--deadline-ms",
        "0",
    ]);
    assert!(!out.status.success());
    let e = stderr(&out);
    assert!(e.contains("--deadline-ms"), "{e}");
    assert!(e.contains("positive"), "{e}");
}

#[test]
fn detect_is_an_alias_of_check() {
    let out = cxu(&[
        "detect",
        "--read",
        "x//C",
        "--insert",
        "x/B",
        "--subtree",
        "C",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("CONFLICT"), "{}", stdout(&out));
}

#[test]
fn schedule_metrics_text() {
    let out = cxu(&[
        "schedule",
        "--program",
        "y = read $x//A; insert $x/B, C; z = read $x//C",
        "--metrics",
        "text",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("metrics (delta for this run):"), "{s}");
    assert!(s.contains("sched.route.ptime_linear_read"), "{s}");
    assert!(s.contains("sched.cache.lookups"), "{s}");
}

#[test]
fn schedule_metrics_json_embedded() {
    let out = cxu(&[
        "schedule",
        "--program",
        "y = read $x//A; insert $x/B, C; z = read $x//C",
        "--format",
        "json",
        "--metrics",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("\"metrics\": {\"counters\": {"), "{s}");
    assert!(s.contains("\"sched.route.ptime_linear_read\": 2"), "{s}");
    assert!(s.contains("\"histograms\""), "{s}");
    // Braces balance — the metrics object nests inside the report.
    let opens = s.matches('{').count();
    let closes = s.matches('}').count();
    assert_eq!(opens, closes, "{s}");
    let bad = cxu(&[
        "schedule",
        "--program",
        "insert $x/B, C",
        "--metrics",
        "xml",
    ]);
    assert!(!bad.status.success());
}

#[test]
fn schedule_gen_seed_is_deterministic() {
    let run = || {
        let out = cxu(&[
            "schedule",
            "--gen-seed",
            "7",
            "--gen-len",
            "8",
            "--gen-branch",
            "0.0",
            "--format",
            "json",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    assert_eq!(run(), run());
    let conflicting = cxu(&[
        "schedule",
        "--gen-seed",
        "7",
        "--gen-len",
        "8",
        "--program",
        "insert $x/B, C",
    ]);
    assert!(!conflicting.status.success());
    assert!(
        stderr(&conflicting).contains("mutually exclusive"),
        "{}",
        stderr(&conflicting)
    );
}

#[test]
fn trace_writes_jsonl() {
    let dir = std::env::temp_dir().join("cxu-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let out = cxu(&[
        "detect",
        "--read",
        "x//C",
        "--insert",
        "x/B",
        "--subtree",
        "C",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(!trace.is_empty(), "trace file has events");
    for line in trace.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(
        trace.contains("\"name\": \"core.detect.linear\""),
        "{trace}"
    );
}

#[test]
fn unread_flags_are_refused() {
    let out = cxu(&[
        "check",
        "--read",
        "a/b",
        "--delete",
        "a/b",
        "--bogus-flag",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--bogus-flag"), "{}", stderr(&out));
    // `check` has no deadline; the flag must not look like it bounds
    // the NP-side search.
    let out = cxu(&[
        "check",
        "--read",
        "a[b]",
        "--delete",
        "a/b",
        "--deadline-ms",
        "5",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--deadline-ms"), "{}", stderr(&out));
}

#[test]
fn loadgen_refuses_unread_flags_before_connecting() {
    // Nothing listens on port 1: a refusal that names the flag, and no
    // connection error, shows the flag was refused before any connect.
    for extra in [
        &["--retries", "1"][..],
        &["--profile", "store", "--pipeline", "4"],
        &["--docs", "3"],
    ] {
        let mut argv = vec!["loadgen", "--addr", "127.0.0.1:1"];
        argv.extend_from_slice(extra);
        let out = cxu(&argv);
        assert!(!out.status.success(), "{argv:?}");
        let e = stderr(&out);
        let flag = extra.iter().rev().nth(1).unwrap();
        assert!(e.contains(flag), "{argv:?}: {e}");
        assert!(!e.contains("connect"), "{argv:?}: {e}");
    }
}
