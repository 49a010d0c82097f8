//! The `penny` command line: both flag spellings, the usage-error rule
//! (exit 2, the flag named) and the shared scheme vocabulary.

use std::process::Command;

/// A banked kernel with five params, small enough to compile and run
/// in milliseconds.
const KERNEL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/fzs-3b3dc8d507.pir");

/// `penny ARGS`: exit code, stdout, stderr.
fn penny(args: &[&str]) -> (Option<i32>, String, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_penny")).args(args).output().expect("run penny");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn flag_value_and_flag_equals_value_give_identical_output() {
    let split = penny(&[
        "run",
        KERNEL,
        "--scheme",
        "penny",
        "--grid",
        "2",
        "--block",
        "32",
        "--param",
        "0x1000",
        "--param",
        "0x2000",
        "--param",
        "0x3000",
        "--param",
        "0x4000",
        "--param",
        "0x5000",
        "--dump",
        "0x4000",
        "8",
        "--inject",
        "0,0,3,4,5,20",
    ]);
    let joined = penny(&[
        "run",
        KERNEL,
        "--scheme=penny",
        "--grid=2",
        "--block=32",
        "--param=0x1000",
        "--param=0x2000",
        "--param=0x3000",
        "--param=0x4000",
        "--param=0x5000",
        "--dump=0x4000",
        "8",
        "--inject=0,0,3,4,5,20",
    ]);
    assert_eq!(split.0, Some(0), "{}", split.2);
    assert!(split.1.contains("[0x00004000..+8] = "), "{}", split.1);
    assert_eq!(split, joined);

    let split =
        penny(&["compile", KERNEL, "--scheme", "bolt-auto", "--grid", "4", "--emit"]);
    let joined = penny(&["compile", KERNEL, "--scheme=bolt-auto", "--grid=4", "--emit"]);
    assert_eq!(split.0, Some(0), "{}", split.2);
    assert_eq!(split, joined);
}

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, named) in [
        (&["check", KERNEL, "--bogus"][..], "--bogus"),
        (&["check", KERNEL, "--grid"][..], "--grid"),
        (&["check", KERNEL, "--grid", "many"][..], "--grid"),
        (&["check", KERNEL, "--grid=many"][..], "--grid"),
        (&["check", KERNEL, "--emit=yes"][..], "--emit"),
        (&["check", KERNEL, "--inject", "1,2,3"][..], "--inject"),
        (&["compile", KERNEL, "--scheme", "bolt"][..], "--scheme"),
        (&["compile", KERNEL, "--scheme", "none"][..], "--scheme"),
        (&["frobnicate", KERNEL][..], "frobnicate"),
        (&["check"][..], "usage: penny"),
        (&["check", KERNEL, "extra"][..], "usage: penny"),
    ] {
        let (code, stdout, stderr) = penny(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        assert!(stderr.starts_with("penny: "), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} does not name {named}: {stderr}");
    }
    // A well-formed command line whose kernel cannot be loaded is a
    // failure, not a usage error.
    let (code, _, stderr) = penny(&["check", "no/such/kernel.pir"]);
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn every_scheme_spelling_compiles_like_its_token() {
    for (token, readme) in [
        ("Baseline", "baseline"),
        ("IGpu", "igpu"),
        ("BoltGlobal", "bolt-global"),
        ("BoltAuto", "bolt-auto"),
        ("Penny", "penny"),
    ] {
        let (code, by_token, stderr) = penny(&["compile", KERNEL, "--scheme", token]);
        assert_eq!(code, Some(0), "{token}: {stderr}");
        let (code, by_readme, stderr) = penny(&["compile", KERNEL, "--scheme", readme]);
        assert_eq!(code, Some(0), "{readme}: {stderr}");
        // The first line echoes the spelling; the statistics must match.
        assert_eq!(by_token.lines().next(), Some(format!("scheme: {token}").as_str()));
        assert_eq!(
            by_token.lines().skip(1).collect::<Vec<_>>(),
            by_readme.lines().skip(1).collect::<Vec<_>>(),
            "{token} vs {readme}"
        );
    }
}
