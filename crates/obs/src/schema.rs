//! Span JSONL schema (version 1) and its validator.
//!
//! Every line `penny-prof` (and the bench sink) emits is one JSON
//! object with this shape:
//!
//! ```json
//! {"v":1,"kind":"pass","subject":"mt_kernel","label":"pruning",
//!  "wall_ns":1234,"counters":{"total":5,"committed":2},
//!  "workload":"MT","scheme":"Penny"}
//! ```
//!
//! Required fields, in any order (emission order is fixed but the
//! validator does not require it):
//!
//! | field      | type                     | constraint                                |
//! |------------|--------------------------|-------------------------------------------|
//! | `v`        | integer                  | must be `1`                               |
//! | `kind`     | string                   | `"pass"`, `"sim"`, `"site"`, `"cache"`, `"campaign"`, or `"shard"` |
//! | `subject`  | string                   | non-empty                                 |
//! | `label`    | string                   | non-empty                                 |
//! | `wall_ns`  | unsigned integer         |                                           |
//! | `counters` | object of name → integer | names non-empty                           |
//!
//! Any additional top-level key (e.g. `workload`, `scheme`,
//! `sim_error`) must be a string. Lines are parsed by the workspace's
//! JSON codec ([`crate::json`]), which also rejects duplicate keys
//! (counter names included), nesting beyond its depth bound and
//! trailing input; this module holds only the schema rules on top.

use crate::json::{self, Value};

/// Validates one emitted JSONL line against span schema v1.
pub fn validate_line(line: &str) -> Result<(), String> {
    let line = json::parse(line)?;
    let obj = line.as_obj("span line")?;
    let get = |key: &str| line.field(key).ok();
    match get("v") {
        Some(Value::Num(1)) => {}
        Some(_) => return Err("field 'v' must be the integer 1".into()),
        None => return Err("missing field 'v'".into()),
    }
    match get("kind") {
        Some(Value::Str(kind)) => {
            if crate::SpanKind::from_name(kind).is_none() {
                return Err(format!("unknown kind {kind:?}"));
            }
        }
        _ => return Err("field 'kind' must be a string".into()),
    }
    for field in ["subject", "label"] {
        match get(field) {
            Some(Value::Str(s)) if !s.is_empty() => {}
            Some(Value::Str(_)) => {
                return Err(format!("field '{field}' must be non-empty"))
            }
            _ => return Err(format!("field '{field}' must be a string")),
        }
    }
    match get("wall_ns") {
        Some(Value::Num(_)) => {}
        _ => return Err("field 'wall_ns' must be an unsigned integer".into()),
    }
    match get("counters") {
        Some(Value::Obj(counters))
            if counters.iter().all(|(_, v)| matches!(v, Value::Num(_))) =>
        {
            if counters.iter().any(|(k, _)| k.is_empty()) {
                return Err("counter names must be non-empty".into());
            }
        }
        _ => return Err("field 'counters' must be an object of integers".into()),
    }
    const CORE: [&str; 6] = ["v", "kind", "subject", "label", "wall_ns", "counters"];
    for (key, value) in obj {
        if CORE.contains(&key.as_str()) {
            continue;
        }
        if !matches!(value, Value::Str(_)) {
            return Err(format!("extra field {key:?} must be a string"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Span, SpanKind};

    #[test]
    fn emitted_spans_validate() {
        let span = Span {
            kind: SpanKind::Sim,
            subject: "mt_kernel".into(),
            label: "run".into(),
            wall_ns: 98765,
            counters: vec![("cycles".into(), 100), ("recoveries".into(), 0)],
        };
        validate_line(&span.to_jsonl()).unwrap();
        validate_line(&span.to_jsonl_with(&[("workload", "MT"), ("scheme", "Penny")]))
            .unwrap();
    }

    #[test]
    fn cache_spans_validate() {
        let span = Span {
            kind: SpanKind::Cache,
            subject: "compile-cache".into(),
            label: "stats".into(),
            wall_ns: 0,
            counters: vec![
                ("hits".into(), 25),
                ("misses".into(), 25),
                ("evictions".into(), 0),
                ("inflight_waits".into(), 3),
            ],
        };
        validate_line(&span.to_jsonl()).unwrap();
    }

    #[test]
    fn campaign_spans_validate() {
        let span = Span {
            kind: SpanKind::Campaign,
            subject: "MT".into(),
            label: "Penny".into(),
            wall_ns: 120_000,
            counters: vec![
                ("sites".into(), 2000),
                ("snapshots".into(), 12),
                ("forks".into(), 640),
                ("pages_copied".into(), 64),
                ("replayed_insts".into(), 9000),
                ("skipped_insts".into(), 100_000),
            ],
        };
        validate_line(&span.to_jsonl()).unwrap();
    }

    #[test]
    fn shard_spans_validate() {
        let span = Span {
            kind: SpanKind::Shard,
            subject: "MT".into(),
            label: "exit".into(),
            wall_ns: 1_500_000,
            counters: vec![
                ("shard".into(), 3),
                ("count".into(), 4),
                ("attempt".into(), 1),
                ("exit_code".into(), 0),
            ],
        };
        validate_line(&span.to_jsonl()).unwrap();
        validate_line(&span.to_jsonl_with(&[("workload", "MT"), ("scheme", "Penny")]))
            .unwrap();
    }

    #[test]
    fn escaped_subject_round_trips() {
        let span = Span {
            kind: SpanKind::Pass,
            subject: "k\"\\\n\u{1}".into(),
            label: "codegen".into(),
            wall_ns: 0,
            counters: vec![],
        };
        let line = span.to_jsonl();
        validate_line(&line).unwrap();
        let obj = json::parse(&line).unwrap();
        assert_eq!(obj.str("subject").unwrap(), "k\"\\\n\u{1}");
    }

    #[test]
    fn rejects_schema_violations() {
        // Wrong version.
        let bad_v =
            r#"{"v":2,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{}}"#;
        assert!(validate_line(bad_v).is_err());
        // Unknown kind.
        let bad_kind =
            r#"{"v":1,"kind":"zap","subject":"k","label":"p","wall_ns":0,"counters":{}}"#;
        assert!(validate_line(bad_kind).is_err());
        // Missing counters.
        let no_counters = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0}"#;
        assert!(validate_line(no_counters).is_err());
        // Empty subject.
        let empty_subject =
            r#"{"v":1,"kind":"pass","subject":"","label":"p","wall_ns":0,"counters":{}}"#;
        assert!(validate_line(empty_subject).is_err());
        // Non-string extra field.
        let bad_extra = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{},"workload":7}"#;
        assert!(validate_line(bad_extra).is_err());
        // Trailing garbage and malformed JSON.
        assert!(validate_line("{} trailing").is_err());
        assert!(validate_line("not json").is_err());
        // Duplicate keys, top-level or among the counters.
        let dup = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{},"v":1}"#;
        assert!(validate_line(dup).is_err());
        let dup_counter = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{"a":1,"a":2}}"#;
        assert!(validate_line(dup_counter).is_err());
        // Counters must be flat integers; extra fields must be strings.
        let nested = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{"a":{}}}"#;
        assert!(validate_line(nested).is_err());
        let arr_extra = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{},"x":[]}"#;
        assert!(validate_line(arr_extra).is_err());
        // Not an object at all.
        assert!(validate_line("[1]").is_err());
    }
}
