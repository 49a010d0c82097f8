//! A sharded campaign over a recording store, traced in one process.
//!
//! Mirrors what `penny-herd` and its `penny-eval --shard I/N` children
//! do: per shard, compile each pair afresh (each shard is its own
//! process, so nothing is shared but the store), load or record its
//! recording through the store, sweep the shard's positions and render
//! the shard report JSON; then parse the shard reports, merge them per
//! pair and render the merged campaign. The shards run one after
//! another here rather than side by side.

use std::path::Path;

use penny_bench::conformance::{merge_reports, render_report, StaticMode};
use penny_bench::json::{reports_from_json, reports_to_json};
use penny_bench::SchemeId;
use penny_workloads::Workload;

use crate::sweep::{self, Compile, RecordingSource};
use crate::trace::Trace;

/// What one campaign is.
pub struct Spec<'a> {
    pub pairs: &'a [(Workload, SchemeId)],
    pub budget: u64,
    pub shards: u32,
    pub store: &'a Path,
}

/// Runs one whole campaign inside a span named `name` and returns the
/// merged campaign rendered as `penny-herd` prints it.
///
/// # Errors
///
/// A failed sweep, an unparsable shard report or a refused merge.
pub fn run(t: &mut Trace, name: &'static str, spec: &Spec) -> Result<String, String> {
    let root = t.enter(name);
    let mut shard_json = Vec::with_capacity(spec.shards as usize);
    for shard in 0..spec.shards {
        let id = t.enter("bench.herd.shard");
        let mut reports = Vec::with_capacity(spec.pairs.len());
        for (w, scheme) in spec.pairs {
            let p = sweep::prepare(
                t,
                w.clone(),
                *scheme,
                false,
                Compile::Direct,
                RecordingSource::Store(spec.store),
            )?;
            reports.push(sweep::sweep(
                t,
                &p,
                *scheme,
                spec.budget,
                StaticMode::Off,
                (shard, spec.shards),
            )?);
        }
        let json = t.span("bench.json.render", |t, id| {
            let json = reports_to_json(&reports);
            t.add(id, "bytes", json.len() as u64);
            json
        });
        shard_json.push(json);
        t.exit(id);
    }
    let mut parsed = Vec::with_capacity(shard_json.len());
    for json in &shard_json {
        parsed.push(parse(t, json)?);
    }
    let mut rendered = String::new();
    for i in 0..spec.pairs.len() {
        let parts: Vec<_> = parsed
            .iter()
            .map(|reports| reports.get(i).cloned().ok_or("shard report is short"))
            .collect::<Result<_, _>>()?;
        let merged = t.span("bench.merge", |_, _| merge_reports(&parts));
        let merged = merged.map_err(|e| format!("merge refused: {e}"))?;
        t.span("bench.render", |_, _| rendered.push_str(&render_report(&merged)));
    }
    t.exit(root);
    Ok(rendered)
}

/// Parses report JSON inside a `bench.json.parse` span.
///
/// # Errors
///
/// The parser's message.
pub fn parse(
    t: &mut Trace,
    json: &str,
) -> Result<Vec<penny_bench::conformance::ConformanceReport>, String> {
    t.span("bench.json.parse", |t, id| {
        t.add(id, "bytes", json.len() as u64);
        reports_from_json(json).map_err(|e| format!("report JSON: {e}"))
    })
}
