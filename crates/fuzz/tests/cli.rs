//! The `penny-fuzz` command line: both flag spellings, the usage-error
//! rule (exit 2 with nothing on stdout, the flag named) and the
//! schema-checked span dump.

use std::process::Command;

/// What one invocation left behind.
#[derive(Debug, PartialEq)]
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn fuzz(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_penny-fuzz"))
        .args(args)
        .output()
        .expect("run fuzz");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

#[test]
fn flag_value_and_flag_equals_value_give_identical_reports() {
    let split =
        fuzz(&["--seed", "1", "--iters", "1", "--conformance-budget", "0", "--jobs", "1"]);
    let joined = fuzz(&["--seed=1", "--iters=1", "--conformance-budget=0", "--jobs=1"]);
    assert_eq!(split.code, Some(0), "{}", split.stderr);
    assert!(split.stdout.contains("divergences 0"), "{}", split.stdout);
    assert_eq!(split, joined);
}

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["--iters", "1", "--bogus"][..], "--bogus"),
        (&["--iters", "1", "stray"][..], "stray"),
        (&["--iters", "1", "--seed"][..], "--seed"),
        (&["--iters", "many"][..], "--iters"),
        (&["--iters=-1"][..], "--iters"),
        (&["--iters", "1", "--jobs", "0"][..], "--jobs"),
        (&["--iters", "1", "--obs"][..], "--obs"),
    ] {
        let r = fuzz(args);
        assert_eq!(r.code, Some(2), "{args:?}: {}", r.stderr);
        assert!(r.stdout.is_empty(), "{args:?} printed {}", r.stdout);
        assert!(r.stderr.starts_with("penny-fuzz: "), "{args:?}: {}", r.stderr);
        assert!(r.stderr.contains(named), "{args:?} does not name {named}: {}", r.stderr);
    }
}

#[test]
fn obs_dump_writes_schema_valid_span_lines() {
    let path = std::env::temp_dir()
        .join(format!("penny-fuzz-cli-{}.obs.jsonl", std::process::id()));
    let r = fuzz(&[
        "--seed=3",
        "--iters=1",
        "--conformance-budget=4",
        &format!("--obs={}", path.display()),
    ]);
    assert_eq!(r.code, Some(0), "{}", r.stderr);
    let text = std::fs::read_to_string(&path).expect("span dump written");
    let _ = std::fs::remove_file(&path);
    assert!(text.lines().any(|l| l.contains("\"kind\":\"campaign\"")), "{text}");
    for line in text.lines() {
        penny_obs::schema::validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
}
