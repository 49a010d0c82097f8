//! JSON interchange for shard reports: the mapping between
//! [`ConformanceReport`] and its JSON form.
//!
//! `penny-herd` shards are separate processes: each writes its
//! [`ConformanceReport`]s as JSON ([`reports_to_json`]) and the
//! orchestrator reads them back ([`reports_from_json`]) before
//! merging. Parsing, string escaping and the typed field accessors
//! come from the workspace's one JSON codec, [`penny_obs::json`]; this
//! module only names the fields.
//!
//! Serialization is deterministic (fixed field order, no floats), and
//! `from_json(to_json(r))` reproduces every verdict field
//! bit-identically, so a merged sharded campaign renders byte-identical
//! to the unsharded run even after a process boundary. Decoding treats
//! the file as untrusted: besides the codec's own bounds, every `u32`
//! field (fault-space dimensions, shard index and count, injection
//! coordinates) is range-checked rather than truncated, and the site
//! counters must agree with one another and with the fault space, so a
//! corrupt file fails its shard attempt instead of merging wrong data
//! (or underflowing the merge's `skipped` arithmetic). The
//! round-trip is pinned by the tests below and `tests/herd.rs`.

use std::fmt::Write as _;

use penny_obs::json::{self, escape, Value};
use penny_sim::Injection;

use crate::conformance::{
    checked_sum, ConformanceFailure, ConformanceReport, FaultSpace, ReplayWork,
    SiteClassCounts, StaticPruneCounts,
};
use crate::runner::SchemeId;

/// Version tag written at the top of every report file; bumped on any
/// incompatible field change so a herd never merges reports written by
/// a different binary generation.
pub const REPORT_FORMAT_VERSION: u64 = 1;

/// Serializes one report as a deterministic JSON object.
pub fn report_to_json(r: &ConformanceReport) -> String {
    let mut o = String::with_capacity(1024);
    let _ = write!(
        o,
        "{{\"workload\":\"{}\",\"variant\":\"{}\"",
        escape(r.workload),
        escape(r.variant)
    );
    let s = &r.space;
    let _ = write!(
        o,
        ",\"space\":{{\"blocks\":{},\"warps\":{},\"lanes\":{},\"triggers\":{},\
         \"regs\":{},\"bits\":{}}}",
        s.blocks, s.warps, s.lanes, s.triggers, s.regs, s.bits
    );
    let _ = write!(
        o,
        ",\"total\":{},\"covered\":{},\"skipped\":{},\"pruned_static\":{}",
        r.total, r.covered, r.skipped, r.pruned_static
    );
    let _ = write!(
        o,
        ",\"static_prune\":{{\"dead\":{},\"overwritten\":{},\"covered\":{}}}",
        r.static_prune.dead, r.static_prune.overwritten, r.static_prune.covered
    );
    let _ = write!(
        o,
        ",\"static_checked\":{},\"static_disagreements\":{}",
        r.static_checked, r.static_disagreements
    );
    o.push_str(",\"disagreements\":[");
    for (i, (pos, reason)) in r.disagreements.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{{\"pos\":{pos},\"reason\":\"{}\"}}", escape(reason));
    }
    let _ = write!(o, "],\"recovered\":{}", r.recovered);
    let c = &r.classes;
    let _ = write!(
        o,
        ",\"classes\":{{\"never_fires\":{},\"invisible\":{},\"corrected_inline\":{},\
         \"simulated\":{},\"spliced\":{}}}",
        c.never_fires, c.invisible, c.corrected_inline, c.simulated, c.spliced
    );
    let w = &r.work;
    let _ = write!(
        o,
        ",\"work\":{{\"snapshots\":{},\"forks\":{},\"replayed_insts\":{},\
         \"cold_insts\":{},\"pages_copied\":{}}}",
        w.snapshots, w.forks, w.replayed_insts, w.cold_insts, w.pages_copied
    );
    let _ = write!(o, ",\"shard\":[{},{}]", r.shard.0, r.shard.1);
    o.push_str(",\"failures\":[");
    for (i, f) in r.failures.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let inj = &f.injection;
        let _ = write!(
            o,
            "{{\"sample\":{},\"injection\":{{\"block\":{},\"warp\":{},\"lane\":{},\
             \"reg\":{},\"bit\":{},\"after_warp_insts\":{}}},\"reason\":\"{}\",\
             \"reproducer\":\"{}\"}}",
            f.sample,
            inj.block,
            inj.warp,
            inj.lane,
            inj.reg,
            inj.bit,
            inj.after_warp_insts,
            escape(&f.reason),
            escape(&f.reproducer)
        );
    }
    o.push_str("]}");
    o
}

/// Serializes a batch of reports (one shard's output file) with the
/// format version tag.
pub fn reports_to_json(reports: &[ConformanceReport]) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{{\"v\":{REPORT_FORMAT_VERSION},\"reports\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            o.push_str(",\n");
        }
        o.push_str(&report_to_json(r));
    }
    o.push_str("\n]}\n");
    o
}

/// Restores the `&'static str` workload abbreviation: registry
/// workloads intern to their registry entry; unknown names (e.g.
/// leaked fuzz workloads) are leaked once per distinct name.
fn intern_workload(name: &str) -> &'static str {
    match penny_workloads::by_abbr(name) {
        Some(w) => w.abbr,
        None => Box::leak(name.to_owned().into_boxed_str()),
    }
}

/// Restores the `&'static str` scheme display name.
fn intern_variant(name: &str) -> &'static str {
    SchemeId::ALL
        .iter()
        .map(|s| s.name())
        .find(|n| *n == name)
        .unwrap_or_else(|| Box::leak(name.to_owned().into_boxed_str()))
}

/// Rejects a report whose counters contradict each other or its fault
/// space, so a merge never has to trust them: the space's site count
/// fits `u64` and equals `total`; covered, skipped and pruned sites
/// partition `total`; the prune buckets sum to `pruned_static` and the
/// four classes to `covered`; and every subset count stays within its
/// superset.
fn check_counts(r: &ConformanceReport) -> Result<(), String> {
    let total = r.space.checked_total().ok_or("space: site count overflows u64")?;
    if r.total != total {
        return Err(format!("total: {} but the space holds {total} sites", r.total));
    }
    if checked_sum(&[r.covered, r.skipped, r.pruned_static]) != Some(total) {
        return Err("covered + skipped + pruned_static differs from total".into());
    }
    if r.static_prune.checked_total() != Some(r.pruned_static) {
        return Err("static_prune: buckets do not sum to pruned_static".into());
    }
    let c = &r.classes;
    if checked_sum(&[c.never_fires, c.invisible, c.corrected_inline, c.simulated])
        != Some(r.covered)
    {
        return Err("classes: the four classes do not sum to covered".into());
    }
    for (field, part, whole) in [
        ("spliced", c.spliced, c.simulated),
        ("recovered", r.recovered, r.covered),
        ("static_disagreements", r.static_disagreements, r.static_checked),
    ] {
        if part > whole {
            return Err(format!("{field}: {part} exceeds its superset {whole}"));
        }
    }
    Ok(())
}

/// Rebuilds one report from its parsed JSON object.
fn report_from_value(f: &Value) -> Result<ConformanceReport, String> {
    let s = f.field("space")?;
    let space = FaultSpace {
        blocks: s.u32("blocks")?,
        warps: s.u32("warps")?,
        lanes: s.u32("lanes")?,
        triggers: s.num("triggers")?,
        regs: s.u32("regs")?,
        bits: s.u32("bits")?,
    };
    let s = f.field("static_prune")?;
    let static_prune = StaticPruneCounts {
        dead: s.num("dead")?,
        overwritten: s.num("overwritten")?,
        covered: s.num("covered")?,
    };
    let s = f.field("classes")?;
    let classes = SiteClassCounts {
        never_fires: s.num("never_fires")?,
        invisible: s.num("invisible")?,
        corrected_inline: s.num("corrected_inline")?,
        simulated: s.num("simulated")?,
        spliced: s.num("spliced")?,
    };
    let s = f.field("work")?;
    let work = ReplayWork {
        snapshots: s.num("snapshots")?,
        forks: s.num("forks")?,
        replayed_insts: s.num("replayed_insts")?,
        cold_insts: s.num("cold_insts")?,
        pages_copied: s.num("pages_copied")?,
    };
    let shard = match f.arr("shard")? {
        [index, count] => (index.as_u32("shard index")?, count.as_u32("shard count")?),
        _ => return Err("shard: expected [index, count]".into()),
    };
    let mut disagreements = Vec::new();
    for d in f.arr("disagreements")? {
        disagreements.push((d.num("pos")?, d.str("reason")?.to_string()));
    }
    let mut failures = Vec::new();
    for x in f.arr("failures")? {
        let i = x.field("injection")?;
        failures.push(ConformanceFailure {
            sample: x.num("sample")?,
            injection: Injection {
                block: i.u32("block")?,
                warp: i.u32("warp")?,
                lane: i.u32("lane")?,
                reg: i.u32("reg")?,
                bit: i.u32("bit")?,
                after_warp_insts: i.num("after_warp_insts")?,
            },
            reason: x.str("reason")?.to_string(),
            reproducer: x.str("reproducer")?.to_string(),
        });
    }
    let r = ConformanceReport {
        workload: intern_workload(f.str("workload")?),
        variant: intern_variant(f.str("variant")?),
        space,
        total: f.num("total")?,
        covered: f.num("covered")?,
        skipped: f.num("skipped")?,
        pruned_static: f.num("pruned_static")?,
        static_prune,
        static_checked: f.num("static_checked")?,
        static_disagreements: f.num("static_disagreements")?,
        disagreements,
        recovered: f.num("recovered")?,
        classes,
        work,
        shard,
        failures,
    };
    check_counts(&r)?;
    Ok(r)
}

/// Parses a shard report file written by [`reports_to_json`].
///
/// # Errors
///
/// Rejects syntax errors, a missing/mismatched version tag, any
/// structurally wrong report, any out-of-range `u32` field and any
/// report whose counters are inconsistent (see `check_counts`) — the
/// herd treats all of these as a failed shard attempt (retryable),
/// never as mergeable data.
pub fn reports_from_json(s: &str) -> Result<Vec<ConformanceReport>, String> {
    let v = json::parse(s)?;
    let version = v.num("v")?;
    if version != REPORT_FORMAT_VERSION {
        return Err(format!(
            "report format v{version}, this binary reads v{REPORT_FORMAT_VERSION}"
        ));
    }
    v.arr("reports")?.iter().map(report_from_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{render_report, Sweep, MAX_REPORTED_FAILURES};

    #[test]
    fn clean_report_round_trips_bit_identically() {
        let r = Sweep::of("MT", SchemeId::Penny, 48).expect("MT").run();
        let json = reports_to_json(std::slice::from_ref(&r));
        let back = reports_from_json(&json).expect("parse");
        assert_eq!(back.len(), 1);
        let b = &back[0];
        assert_eq!(b.workload, r.workload);
        assert_eq!(b.variant, r.variant);
        assert_eq!(b.space, r.space);
        assert_eq!(b.total, r.total);
        assert_eq!(b.covered, r.covered);
        assert_eq!(b.skipped, r.skipped);
        assert_eq!(b.classes, r.classes);
        assert_eq!(b.work, r.work);
        assert_eq!(b.shard, r.shard);
        assert_eq!(render_report(b), render_report(&r));
        // Serialization is a fixed point after a round trip.
        assert_eq!(report_to_json(b), report_to_json(&r));
    }

    #[test]
    fn failing_report_round_trips_reproducers() {
        // Baseline MT produces real failures with multi-line reproducer
        // strings — the stress case for string escaping.
        let r = Sweep::of("MT", SchemeId::Baseline, 120).expect("MT").run();
        assert!(!r.failures.is_empty(), "baseline must fail");
        assert!(r.failures.len() <= MAX_REPORTED_FAILURES);
        let back = &reports_from_json(&reports_to_json(std::slice::from_ref(&r)))
            .expect("parse")[0];
        assert_eq!(back.failures.len(), r.failures.len());
        for (a, b) in back.failures.iter().zip(&r.failures) {
            assert_eq!(a.sample, b.sample);
            assert_eq!(a.injection, b.injection);
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.reproducer, b.reproducer);
        }
        assert_eq!(render_report(back), render_report(&r));
    }

    /// `json` with the number after the first `"key":` replaced by
    /// `value`.
    fn set_number(json: &str, key: &str, value: &str) -> String {
        let tag = format!("\"{key}\":");
        let start = json.find(&tag).expect("key present") + tag.len();
        let len = json[start..].bytes().take_while(u8::is_ascii_digit).count();
        assert!(len > 0, "{key} holds a number");
        format!("{}{value}{}", &json[..start], &json[start + len..])
    }

    #[test]
    fn out_of_range_u32_fields_are_rejected_not_truncated() {
        let r = Sweep::of("MT", SchemeId::Baseline, 120).expect("MT").run();
        assert!(!r.failures.is_empty(), "injection fields must be present");
        let json = reports_to_json(std::slice::from_ref(&r));
        assert!(json.contains("\"shard\":[0,1]"));
        for (shard, name) in
            [("[4294967296,1]", "shard index"), ("[0,4294967297]", "shard count")]
        {
            let bad = json.replace("\"shard\":[0,1]", &format!("\"shard\":{shard}"));
            let e = reports_from_json(&bad).expect_err(shard);
            assert!(e.contains(name), "{e}");
        }
        let space = ["blocks", "warps", "lanes", "regs", "bits"];
        let fields = space.into_iter().chain(["block", "warp", "lane", "reg", "bit"]);
        for key in fields {
            for huge in ["4294967296", "1844674407370955161"] {
                let e = reports_from_json(&set_number(&json, key, huge)).expect_err(key);
                assert!(e.starts_with(&format!("{key}:")), "{e}");
            }
            // The largest u32 passes the range check. An injection
            // coordinate then decodes; a space dimension no longer
            // matches the report's `total`, which the count check names.
            let max = reports_from_json(&set_number(&json, key, "4294967295"));
            if space.contains(&key) {
                let e = max.expect_err(key);
                assert!(e.starts_with("total:"), "{e}");
            } else {
                max.expect(key);
            }
        }
    }

    /// A clean report's JSON with every `(key, value)` number replaced.
    fn tampered(r: &ConformanceReport, edits: &[(&str, u64)]) -> String {
        let mut json = reports_to_json(std::slice::from_ref(r));
        for &(key, value) in edits {
            json = set_number(&json, key, &value.to_string());
        }
        json
    }

    #[test]
    fn inconsistent_counts_are_rejected_not_merged() {
        let r = Sweep::of("MT", SchemeId::Penny, 48).expect("MT").run();
        assert!(r.covered > 0 && r.classes.invisible + r.classes.never_fires > 0);
        let c = &r.classes;
        let cases: Vec<(Vec<(&str, u64)>, &str)> = vec![
            // More covered sites than the space holds: the merge's
            // `skipped` subtraction used to underflow on this.
            (vec![("covered", r.total + 5)], "covered + skipped"),
            (vec![("total", r.total + 1)], "total:"),
            (vec![("triggers", u64::MAX)], "space:"),
            (vec![("skipped", r.skipped + 1)], "covered + skipped"),
            // Shifting sites between classes keeps `covered`; adding
            // one does not.
            (vec![("invisible", c.invisible + 1)], "classes:"),
            (vec![("dead", 1)], "static_prune:"),
            (vec![("spliced", c.simulated + 1)], "spliced:"),
            (vec![("recovered", r.covered + 1)], "recovered:"),
            (vec![("static_disagreements", 1)], "static_disagreements:"),
        ];
        for (edits, want) in cases {
            let e = reports_from_json(&tampered(&r, &edits)).expect_err(want);
            assert!(e.starts_with(want), "{edits:?}: {e}");
        }
        // A consistent edit still decodes: a site moved from skipped to
        // covered (as a never-firing one) keeps every identity.
        if r.skipped > 0 {
            let moved = [
                ("covered", r.covered + 1),
                ("skipped", r.skipped - 1),
                ("never_fires", c.never_fires + 1),
                ("recovered", r.recovered + 1),
            ];
            reports_from_json(&tampered(&r, &moved)).expect("consistent report");
        }
    }

    #[test]
    fn overlapping_shards_fail_the_merge_instead_of_underflowing() {
        use crate::conformance::{merge_reports, MergeError};
        // Two shard reports that each pass decoding but together cover
        // more sites than the space: shard 1 claims shard 0's sites too.
        let r = Sweep::of("MT", SchemeId::Penny, 48).expect("MT").run();
        let mut a = r.clone();
        a.shard = (0, 2);
        let mut b = r.clone();
        b.shard = (1, 2);
        b.covered = r.total - r.pruned_static;
        b.skipped = 0;
        b.classes.never_fires += r.total - r.pruned_static - r.covered;
        b.recovered = b.covered;
        let json = reports_to_json(&[a, b]);
        let back = reports_from_json(&json).expect("each report is consistent");
        assert_eq!(
            merge_reports(&back).map(|m| m.covered),
            Err(MergeError::Overcount { field: "covered" })
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(reports_from_json(&"[".repeat(100_000)).is_err());
        let nested = format!("{{\"v\":1,\"reports\":{}", "[".repeat(100_000));
        assert!(reports_from_json(&nested).is_err());
    }

    #[test]
    fn version_and_structure_errors_are_rejected() {
        assert!(reports_from_json("{\"v\":99,\"reports\":[]}").is_err());
        assert!(reports_from_json("{\"reports\":[]}").is_err());
        assert!(reports_from_json("{\"v\":1,\"reports\":[{\"workload\":\"MT\"}]}").is_err());
        assert!(reports_from_json("not json").is_err());
        assert!(reports_from_json("{\"v\":1,\"reports\":[]} trailing").is_err());
        assert!(reports_from_json("{\"v\":1,\"v\":1,\"reports\":[]}").is_err());
        assert_eq!(reports_from_json("{\"v\":1,\"reports\":[]}").unwrap().len(), 0);
    }
}
