//! The command lines of `penny-eval`, `penny-prof`, `penny-herd` and
//! `penny-lint`: both flag spellings, the usage-error rule (exit 2 with
//! nothing on stdout, the flag named, before any work runs) and the
//! shared scheme vocabulary.

use std::path::PathBuf;
use std::process::Command;

/// A banked kernel file `penny-lint` takes as a target.
const KERNEL: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/fzs-3b3dc8d507.pir");

/// The five scheme tokens and README's lowercase spellings of them.
const SPELLINGS: [(&str, &str); 5] = [
    ("Baseline", "baseline"),
    ("IGpu", "igpu"),
    ("BoltGlobal", "bolt-global"),
    ("BoltAuto", "bolt-auto"),
    ("Penny", "penny"),
];

/// What one invocation left behind.
#[derive(Debug, PartialEq)]
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn run(bin: &str, args: &[&str]) -> Run {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

fn eval(args: &[&str]) -> Run {
    run(env!("CARGO_BIN_EXE_penny-eval"), args)
}

fn prof(args: &[&str]) -> Run {
    run(env!("CARGO_BIN_EXE_penny-prof"), args)
}

fn herd(args: &[&str]) -> Run {
    run(env!("CARGO_BIN_EXE_penny-herd"), args)
}

fn lint(args: &[&str]) -> Run {
    run(env!("CARGO_BIN_EXE_penny-lint"), args)
}

/// Asserts `r` is a usage error of `prog` that names `named`.
fn assert_usage_error(r: &Run, prog: &str, named: &str, args: &[&str]) {
    assert_eq!(r.code, Some(2), "{prog} {args:?}: {}", r.stderr);
    assert!(r.stdout.is_empty(), "{prog} {args:?} printed {}", r.stdout);
    assert!(r.stderr.starts_with(&format!("{prog}: ")), "{prog} {args:?}: {}", r.stderr);
    assert!(
        r.stderr.contains(named),
        "{prog} {args:?} does not name {named}: {}",
        r.stderr
    );
}

/// A conformance report with its wall-clock bracket cut off.
fn untimed(stdout: &str) -> String {
    stdout
        .lines()
        .map(|l| l.split("  [").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A fresh scratch directory, unique per process and test.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("penny-cli-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn eval_flag_spellings_give_identical_reports() {
    let dir = scratch("eval-spellings");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    let split = eval(&[
        "--jobs",
        "1",
        "--workloads",
        "MT",
        "--schemes",
        "Penny",
        "--budget",
        "40",
        "--report-json",
        a.to_str().expect("utf-8 path"),
        "conformance",
        "table1",
    ]);
    let joined = eval(&[
        "--jobs=1",
        "--workloads=MT",
        "--schemes=Penny",
        "--budget=40",
        &format!("--report-json={}", b.display()),
        "conformance",
        "table1",
    ]);
    assert_eq!(split.code, Some(0), "{}", split.stderr);
    assert_eq!(untimed(&split.stdout), untimed(&joined.stdout));
    assert_eq!(joined.code, Some(0));
    let read = |p: &PathBuf| std::fs::read(p).expect("report written");
    assert_eq!(read(&a), read(&b));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["--bogus", "table1"][..], "--bogus"),
        (&["table1", "--budget"][..], "--budget"),
        (&["--budget", "lots", "table1"][..], "--budget"),
        (&["--budget=0", "table1"][..], "--budget"),
        (&["--jobs", "0", "table1"][..], "--jobs"),
        (&["--shard", "2/2", "table1"][..], "--shard"),
        (&["--bench-json=1", "table1"][..], "--bench-json"),
        (
            &["--workloads", "MT,NOPE", "table1"][..],
            "--workloads: unknown workload \"NOPE\"",
        ),
        (&["--schemes", "Bolt", "table1"][..], "--schemes: unknown scheme \"Bolt\""),
        (&["table1", "fig99"][..], "unknown target `fig99`"),
    ] {
        assert_usage_error(&eval(args), "penny-eval", named, args);
    }
}

#[test]
fn eval_gate_thresholds_reject_non_finite_numbers() {
    for args in [
        &["vulnerability", "--min-prune", "nan"][..],
        &["vulnerability", "--min-prune=inf"][..],
        &["conformance", "--min-speedup", "nan"][..],
        &["conformance", "--min-speedup", "-inf"][..],
    ] {
        let flag = args[1].split('=').next().expect("flag");
        assert_usage_error(&eval(args), "penny-eval", flag, args);
    }
}

#[test]
fn eval_checks_every_flag_and_target_before_running_any() {
    // A misspelled flag or target after a real one must not run the
    // real one first.
    for (args, named) in [
        (&["--budget", "5", "conformance", "--statc-prune"][..], "--statc-prune"),
        (&["--budget", "5", "conformance", "conformence"][..], "conformence"),
        (&["table1", "--jobs", "0"][..], "--jobs"),
    ] {
        assert_usage_error(&eval(args), "penny-eval", named, args);
    }
}

#[test]
fn eval_accepts_every_scheme_spelling() {
    let tokens: Vec<&str> = SPELLINGS.iter().map(|&(t, _)| t).collect();
    let lower: Vec<&str> = SPELLINGS.iter().map(|&(_, l)| l).collect();
    let sweep = |schemes: &str| {
        eval(&[
            "--jobs",
            "1",
            "--workloads",
            "MT",
            "--schemes",
            schemes,
            "--budget",
            "8",
            "conformance",
        ])
    };
    let by_token = sweep(&tokens.join(","));
    let by_lower = sweep(&lower.join(","));
    // Baseline is unprotected, so its sweep finds failures: exit 1.
    assert_eq!(by_token.code, Some(1), "{}", by_token.stderr);
    assert_eq!(by_lower.code, by_token.code);
    let reports = untimed(&by_token.stdout);
    assert_eq!(reports, untimed(&by_lower.stdout));
    for name in ["Baseline", "iGPU", "Bolt/Global", "Bolt/Auto_storage", "Penny"] {
        assert!(reports.contains(name), "no {name} report in\n{reports}");
    }
}

#[test]
fn prof_flag_spellings_give_identical_output() {
    let sims = |r: &Run| {
        assert_eq!(r.code, Some(0), "{}", r.stderr);
        r.stdout.split("== Simulator runs ==").nth(1).expect("sim table").to_string()
    };
    let split =
        prof(&["--workload", "MT", "--scheme", "bolt-global", "--jobs", "1", "--summary"]);
    let joined = prof(&["--workload=MT", "--scheme=bolt-global", "--jobs=1", "--summary"]);
    assert_eq!(sims(&split), sims(&joined));
}

#[test]
fn prof_usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["--workload", "MT", "--bogus"][..], "--bogus"),
        (&["--workload", "MT", "stray"][..], "stray"),
        (&["--workload"][..], "--workload"),
        (&["--workload", "NOPE"][..], "--workload"),
        (&["--workload", "MT", "--jobs", "x"][..], "--jobs"),
        (&["--workload", "MT", "--conformance", "0"][..], "--conformance"),
        (&["--workload", "MT", "--assert-share", "codegen:nan"][..], "--assert-share"),
        (&["--workload", "MT", "--scheme", "BoltGlobals"][..], "--scheme"),
        (&["--workload", "MT", "--summary=yes"][..], "--summary"),
    ] {
        assert_usage_error(&prof(args), "penny-prof", named, args);
    }
}

#[test]
fn prof_accepts_every_scheme_spelling() {
    let names = ["Baseline", "iGPU", "Bolt/Global", "Bolt/Auto_storage", "Penny"];
    for ((token, lower), name) in SPELLINGS.into_iter().zip(names) {
        // Every span carries the display name of the scheme it ran.
        let tag = format!("\"scheme\":\"{name}\"");
        for scheme in [token, lower] {
            let r = prof(&["--workload", "MT", "--scheme", scheme, "--json"]);
            assert_eq!(r.code, Some(0), "{scheme}: {}", r.stderr);
            assert!(!r.stdout.is_empty(), "{scheme}: no spans");
            assert!(r.stdout.lines().all(|l| l.contains(&tag)), "{scheme}: {}", r.stdout);
        }
    }
}

#[test]
fn herd_flag_spellings_give_identical_merges() {
    let dir = scratch("herd-spellings");
    let merge = |args: &[&str]| {
        let r = herd(args);
        assert_eq!(r.code, Some(0), "{args:?}: {}", r.stderr);
        r.stdout
    };
    let out_a = dir.join("a");
    let out_b = dir.join("b");
    let split = merge(&[
        "--workloads",
        "MT",
        "--schemes",
        "penny",
        "--budget",
        "24",
        "--shards",
        "2",
        "--jobs",
        "1",
        "--out",
        out_a.to_str().expect("utf-8 path"),
    ]);
    let joined = merge(&[
        "--workloads=MT",
        "--schemes=Penny",
        "--budget=24",
        "--shards=2",
        "--jobs=1",
        &format!("--out={}", out_b.display()),
    ]);
    assert!(split.contains("MT"), "{split}");
    assert_eq!(split, joined);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn herd_usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["--bogus"][..], "--bogus"),
        (&["stray"][..], "stray"),
        (&["--budget"][..], "--budget"),
        (&["--budget", "x"][..], "--budget"),
        (&["--shards=0"][..], "--shards"),
        (&["--timeout", "-1"][..], "--timeout"),
        (&["--schemes", "Bolt"][..], "--schemes"),
        (&["--workloads", "NOPE"][..], "--workloads"),
    ] {
        assert_usage_error(&herd(args), "penny-herd", named, args);
    }
}

#[test]
fn herd_accepts_every_scheme_spelling() {
    // Each list parses, so the usage error lands on the later flag and
    // no shard is spawned.
    for (token, lower) in SPELLINGS {
        for schemes in [token, lower] {
            let args = ["--schemes", schemes, "--shards", "0"];
            assert_usage_error(&herd(&args), "penny-herd", "--shards", &args);
        }
    }
}

#[test]
fn lint_flag_spellings_give_identical_output() {
    let split = lint(&["--launch", "64,1,2,1", "--allow", "unused-def", KERNEL]);
    let joined = lint(&["--launch=64,1,2,1", "--allow=unused-def", KERNEL]);
    assert_eq!(split.code, Some(0), "{}", split.stderr);
    assert_eq!(split, joined);
    let by_abbr = lint(&["MT"]);
    assert_eq!(by_abbr.code, Some(0), "{}", by_abbr.stderr);
}

#[test]
fn lint_usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["MT", "--bogus"][..], "--bogus"),
        (&["MT", "--allow"][..], "--allow"),
        (&["MT", "--launch", "8,x"][..], "--launch"),
        (&["MT", "--launch=1,2,3,4,5"][..], "--launch"),
        (&["MT", "--json=1"][..], "--json"),
    ] {
        assert_usage_error(&lint(args), "penny-lint", named, args);
    }
}
