//! The workspace's JSON readers and writers on the shared codec
//! (`penny_obs::json`): the shard-report and span-line decoders survive
//! every truncation and single-byte corruption of real output without
//! panicking, and `penny-lint --json` emits lines the codec parses.

use std::process::Command;

use penny_bench::conformance::Sweep;
use penny_bench::json::{reports_from_json, reports_to_json};
use penny_bench::SchemeId;
use penny_obs::json;
use penny_obs::schema::validate_line;
use penny_obs::{Span, SpanKind};

/// Bytes substituted at every position: the JSON structural and escape
/// characters, a digit, a newline, and a UTF-8 lead byte.
const ALPHABET: [u8; 8] = [b'"', b'\\', b'{', b'[', b']', b'9', b'\n', 0xC3];

/// Feeds `decode` every proper prefix of `text` and every single-byte
/// substitution from [`ALPHABET`]; a panic fails the test, `Ok` and
/// `Err` are both acceptable outcomes. Returns how many substituted
/// inputs were rejected.
fn mutate(text: &str, decode: &dyn Fn(&str) -> bool) -> usize {
    let complete = text.trim_end().len();
    for end in 0..text.len() {
        if let Some(prefix) = text.get(..end) {
            // A cut inside the document can never be a whole document.
            assert!(end >= complete || !decode(prefix), "prefix of {end} bytes accepted");
        }
    }
    let mut rejected = 0;
    let mut bytes = text.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for &b in ALPHABET.iter().filter(|&&b| b != original) {
            bytes[i] = b;
            // The decoders take `&str`; invalid UTF-8 reaches them as a
            // replacement character in the same place.
            if !decode(&String::from_utf8_lossy(&bytes)) {
                rejected += 1;
            }
        }
        bytes[i] = original;
    }
    rejected
}

#[test]
fn report_decoder_survives_truncation_and_byte_substitution() {
    // Baseline MT fails, so the file carries failures whose reproducer
    // strings span several lines.
    let report = Sweep::of("MT", SchemeId::Baseline, 120).expect("MT").run();
    assert!(report.failures.iter().any(|f| f.reproducer.contains('\n')));
    let text = reports_to_json(std::slice::from_ref(&report));
    assert!(reports_from_json(&text).is_ok());
    let rejected = mutate(&text, &|s| reports_from_json(s).is_ok());
    assert!(rejected > 0, "substitutions must be able to corrupt the file");
}

#[test]
fn span_validator_survives_truncation_and_byte_substitution() {
    let span = Span {
        kind: SpanKind::Campaign,
        subject: "MT \"quoted\"\\path\n\u{1}".into(),
        label: "Penny".into(),
        wall_ns: 120_000,
        counters: vec![("sites".into(), 2000), ("forks".into(), 640)],
    };
    let line = span.to_jsonl_with(&[("workload", "MT"), ("scheme", "Penny")]);
    validate_line(&line).expect("emitted line validates");
    let rejected = mutate(&line, &|s| validate_line(s).is_ok());
    assert!(rejected > 0, "substitutions must be able to corrupt the line");
}

#[test]
fn lint_json_lines_parse_with_the_codec() {
    // The seeded reduction that forgot its barrier (see
    // `penny-workloads`' lint_kernels tests): a shared-memory race.
    let kernel = "\
.kernel reduce_bad .params OUT
entry:
    mov.u32 %r0, %tid.x
    shl.u32 %r1, %r0, 2
    st.shared.u32 [%r1], %r0
    ld.shared.u32 %r2, [%r1+4]
    add.u32 %r3, %r2, %r0
    ld.param.u32 %r4, [OUT]
    st.global.u32 [%r4], %r3
    ret
";
    let dir = std::env::temp_dir().join(format!("penny-lint-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    // A path that itself needs escaping.
    let path = dir.join("reduce \"bad\".penny");
    std::fs::write(&path, kernel).expect("write kernel");
    let out = Command::new(env!("CARGO_BIN_EXE_penny-lint"))
        .arg("--json")
        .args(["--launch", "8"])
        .arg(&path)
        .output()
        .expect("run penny-lint");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "the race is an error");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut races = 0;
    for line in stdout.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(v.str("target").unwrap(), path.display().to_string());
        for key in ["severity", "kernel", "block", "loc", "inst", "message"] {
            v.str(key).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        races += usize::from(v.str("name").unwrap() == penny_analysis::SHARED_RACE);
    }
    assert!(races > 0, "expected a shared-race diagnostic in:\n{stdout}");
}
