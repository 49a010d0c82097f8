//! `perfbench-tracer`: the traced run of one benchmark workload.
//!
//! Drives the workload's inputs through each layer's public functions,
//! serially, with spans recorded around those calls (see `trace`), and
//! prints one JSON object: the traced wall time, the traced time of the
//! work the untraced reference run does, per-layer self times,
//! the per-layer metrics, and the counts `perfbench/run.py` reconciles
//! with the program's own reports.
//!
//! ```text
//! perfbench-tracer sweep --workloads MT,STC --schemes Penny --budget max
//!                        --mode off|prune [--prewarm-figures]
//! perfbench-tracer fuzz --seed N --iters K
//! perfbench-tracer campaign --workloads A,B --schemes X,Y --budget N
//!                           --shards N --store DIR --reference FILE
//! ```

mod campaign;
mod compile;
mod gauntlet;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use penny_bench::conformance::{render_report, StaticMode};
use penny_bench::SchemeId;
use penny_workloads::Workload;

use crate::compile::{PASS_PREFIX, REJECT_PREFIX, REJECT_REASONS};
use crate::sweep::{Compile, RecordingSource};
use crate::trace::{Trace, LAYERS, UNATTRIBUTED};

/// Compiler passes reported one by one.
const PASSES: [&str; 6] = [
    "region-formation",
    "checkpoint-placement",
    "overwrite-prevention",
    "pruning",
    "validation",
    "codegen",
];

struct Args {
    mode: String,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mode = it.next().ok_or("missing mode (sweep, fuzz or campaign)")?;
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(a) = it.next() {
            let name = a.strip_prefix("--").ok_or(format!("unexpected argument {a:?}"))?;
            if name == "prewarm-figures" {
                switches.push(name.to_string());
            } else {
                let v = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), v);
            }
        }
        Ok(Args { mode, flags, switches })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.flags.get(name).map(String::as_str).ok_or(format!("missing --{name}"))
    }

    fn u64(&self, name: &str) -> Result<u64, String> {
        match self.get(name)? {
            "max" => Ok(u64::MAX),
            v => v.parse().map_err(|_| format!("--{name} needs an integer")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        self.get("workloads")?
            .split(',')
            .map(|a| penny_workloads::by_abbr(a).ok_or(format!("unknown workload {a}")))
            .collect()
    }

    fn schemes(&self) -> Result<Vec<SchemeId>, String> {
        self.get("schemes")?
            .split(',')
            .map(|s| SchemeId::from_token(s).ok_or(format!("unknown scheme {s}")))
            .collect()
    }

    fn pairs(&self) -> Result<Vec<(Workload, SchemeId)>, String> {
        let schemes = self.schemes()?;
        Ok(self
            .workloads()?
            .into_iter()
            .flat_map(|w| schemes.iter().map(move |&s| (w.clone(), s)))
            .collect())
    }
}

/// What a traced pass hands back besides its spans.
#[derive(Default)]
struct Outcome {
    /// Reports rendered as the program prints them.
    rendered: String,
    /// Exact counts to reconcile with the program's reports.
    counts: BTreeMap<String, u64>,
    /// The span that does what the untraced reference run does, when
    /// that is less than the whole traced run.
    timed: Option<&'static str>,
}

/// The figure-matrix compiles `penny-eval` runs before any target when
/// no workload selection is given.
fn prewarm_figures(t: &mut Trace) {
    let machine = penny_sim::GpuConfig::fermi().machine;
    for scheme in [
        SchemeId::Baseline,
        SchemeId::IGpu,
        SchemeId::BoltGlobal,
        SchemeId::BoltAuto,
        SchemeId::Penny,
    ] {
        for w in penny_workloads::all() {
            let cfg = scheme.config().with_launch(w.dims).with_machine(machine);
            compile::cached(t, &w, &cfg);
        }
    }
}

fn run_sweep(t: &mut Trace, a: &Args) -> Result<Outcome, String> {
    let mode = match a.get("mode")? {
        "off" => StaticMode::Off,
        "prune" => StaticMode::Prune,
        m => return Err(format!("unknown --mode {m}")),
    };
    let budget = a.u64("budget")?;
    if a.switches.iter().any(|s| s == "prewarm-figures") {
        prewarm_figures(t);
    }
    let mut out = Outcome::default();
    for (w, scheme) in a.pairs()? {
        let statik = mode != StaticMode::Off;
        let p =
            sweep::prepare(t, w, scheme, statik, Compile::Cached, RecordingSource::Record)?;
        let r = sweep::sweep(t, &p, scheme, budget, mode, (0, 1))?;
        out.rendered.push_str(&render_report(&r));
        for (k, v) in [
            ("forks", r.work.forks),
            ("snapshots", r.work.snapshots),
            ("pages_copied", r.work.pages_copied),
            ("replayed_insts", r.work.replayed_insts),
        ] {
            *out.counts.entry(k.to_string()).or_default() += v;
        }
    }
    Ok(out)
}

fn run_fuzz(t: &mut Trace, a: &Args) -> Result<Outcome, String> {
    // The gauntlet expects compiler panics; keep stderr quiet like
    // `penny-fuzz` does.
    std::panic::set_hook(Box::new(|_| {}));
    let cfg = penny_fuzz::FuzzConfig::new(a.u64("seed")?, a.u64("iters")?);
    let c = gauntlet::run(t, &cfg)?;
    let mut out = Outcome::default();
    for (k, v) in [
        ("generated", c.generated),
        ("lint_clean", c.lint_clean),
        ("compiles", c.compiles),
        ("compile_skips", c.compile_skips),
        ("differential_runs", c.differential_runs),
        ("conformance_sites", c.conformance_sites),
        ("static_claims", c.static_claims),
        ("divergences", c.divergences),
    ] {
        out.counts.insert(k.to_string(), v);
    }
    Ok(out)
}

fn run_campaign(t: &mut Trace, a: &Args) -> Result<Outcome, String> {
    let pairs = a.pairs()?;
    let store = PathBuf::from(a.get("store")?);
    let shards = u32::try_from(a.u64("shards")?).map_err(|_| "--shards is too large")?;
    let spec =
        campaign::Spec { pairs: &pairs, budget: a.u64("budget")?, shards, store: &store };
    let reference_path = a.get("reference")?;
    let reference = std::fs::read_to_string(reference_path)
        .map_err(|e| format!("reading {reference_path}: {e}"))?;

    let cold = campaign::run(t, "campaign.cold", &spec)?;
    let before = recstore_counts(t);
    let warm = campaign::run(t, "campaign.warm", &spec)?;
    let after = recstore_counts(t);
    let expected: String =
        campaign::parse(t, &reference)?.iter().map(render_report).collect();
    if cold != expected || warm != expected {
        return Err("traced campaign does not render like the reference report".into());
    }
    let mut out =
        Outcome { rendered: warm, counts: BTreeMap::new(), timed: Some("campaign.warm") };
    for (k, (b, a)) in ["hits", "misses", "stale"].iter().zip(before.iter().zip(after)) {
        out.counts.insert(format!("warm_store_{k}"), a - b);
    }
    Ok(out)
}

fn recstore_counts(t: &Trace) -> [u64; 3] {
    ["hits", "misses", "stale"].map(|k| t.total_count("bench.recstore.read", k))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a finished trace.
fn metrics(t: &Trace) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_string(), v));
    let cc = |k: &str| t.total_count("core.compile", k);

    put("core.compile.calls", cc("compiled") as f64);
    put("core.compile.ms", ms(t.total_ns("core.compile")));
    for pass in PASSES {
        put(
            &format!("core.pass.{}.ms", pass.replace('-', "_")),
            ms(cc(&format!("{PASS_PREFIX}{pass}"))),
        );
    }
    let rejects: u64 =
        REJECT_REASONS.iter().map(|r| cc(&format!("{REJECT_PREFIX}{r}"))).sum();
    put("core.compile.reject_share", ratio(rejects, cc("attempts")));
    for r in REJECT_REASONS {
        put(&format!("core.reject.{r}"), cc(&format!("{REJECT_PREFIX}{r}")) as f64);
    }
    put("core.out.static_insts", cc("static_insts") as f64);

    put("analysis.vulnerability.ms", ms(cc(&format!("{PASS_PREFIX}vulnerability"))));
    let classify = t.total_count("analysis.classify", "calls");
    put("analysis.classify.calls", classify as f64);
    put("analysis.classify.ns_per_site", ratio(t.total_ns("analysis.classify"), classify));
    put("analysis.lint.ms", ms(t.total_ns("analysis.lint")));

    let engine_ns = t.total_ns("sim.engine");
    let engine_insts = t.total_count("sim.engine", "warp_insts");
    put("sim.engine.runs", t.total_count("sim.engine", "runs") as f64);
    put("sim.engine.ms", ms(engine_ns));
    put("sim.engine.warp_insts", engine_insts as f64);
    put("sim.engine.minsts_per_s", ratio(engine_insts * 1000, engine_ns));
    put("sim.record.calls", t.calls("sim.record") as f64);
    put("sim.record.ms", ms(t.total_ns("sim.record")));
    put("sim.record.snapshots", t.total_count("sim.record", "snapshots") as f64);
    for name in ["sim.site_class", "sim.static_point"] {
        let calls = t.total_count(name, "calls");
        put(&format!("{name}.calls"), calls as f64);
        put(&format!("{name}.ns_per_site"), ratio(t.total_ns(name), calls));
    }
    let forks = t.total_count("sim.replay", "forks");
    let sites = t.total_count("sim.replay", "sites");
    put("sim.replay.forks", forks as f64);
    put("sim.replay.ms", ms(t.total_ns("sim.replay")));
    put("sim.replay.insts", t.total_count("sim.replay", "insts") as f64);
    put("sim.replay.pages_copied", t.total_count("sim.replay", "pages_copied") as f64);
    put("sim.replay.sites_per_fork", ratio(sites, forks));
    put("sim.replay.spliced_share", ratio(t.total_count("sim.replay", "spliced"), sites));
    put(
        "sim.rf.clean_read_share",
        ratio(
            t.total_count("sim.engine", "rf_clean_reads"),
            t.total_count("sim.engine", "rf_reads"),
        ),
    );
    put("sim.persist.serialize.ms", ms(t.total_ns("sim.persist.serialize")));
    put("sim.persist.bytes", t.total_count("sim.persist.serialize", "bytes") as f64);
    put("sim.persist.deserialize.ms", ms(t.total_ns("sim.persist.deserialize")));

    let cache = penny_bench::cache::compile_cache_stats();
    put("cache.compile.hits", cache.hits as f64);
    put("cache.compile.misses", cache.misses as f64);

    for (k, v) in ["hits", "misses", "stale"].iter().zip(recstore_counts(t)) {
        put(&format!("bench.recstore.{k}"), v as f64);
    }
    let seq = t.total_count("bench.site_seq", "calls");
    put("bench.site_seq.ns_per_site", ratio(t.total_ns("bench.site_seq"), seq));
    put("bench.json.render_ms", ms(t.total_ns("bench.json.render")));
    put("bench.json.parse_ms", ms(t.total_ns("bench.json.parse")));
    put("bench.json.bytes", t.total_count("bench.json.render", "bytes") as f64);
    put("bench.merge.ms", ms(t.total_ns("bench.merge")));
    put("bench.herd.shard_ms", ms(t.total_ns("bench.herd.shard")));

    put("fuzz.generate.ms", ms(t.total_ns("fuzz.generate")));
    put("fuzz.differential.ms", ms(t.total_ns("fuzz.differential")));
    put("fuzz.conformance.ms", ms(t.total_ns("fuzz.conformance")));
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let result = Args::parse().and_then(|a| {
        let mut t = Trace::new();
        let root = t.enter("run");
        let out = match a.mode.as_str() {
            "sweep" => run_sweep(&mut t, &a),
            "fuzz" => run_fuzz(&mut t, &a),
            "campaign" => run_campaign(&mut t, &a),
            m => Err(format!("unknown mode {m}")),
        }?;
        t.exit(root);
        Ok((t, out))
    });
    let (t, out) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ns = t.spans()[0].dur_ns();
    let timed_ns = out.timed.map_or(wall_ns, |name| t.total_ns(name));
    let layers = t.layer_self_ns();
    let mut json = format!(
        "{{\"wall_ns\": {wall_ns}, \"timed_ns\": {timed_ns}, \"spans\": {}, ",
        t.spans().len()
    );
    let fields: Vec<String> = LAYERS
        .iter()
        .chain([&UNATTRIBUTED])
        .map(|l| format!("{}: {}", json_str(l), layers[l]))
        .collect();
    json.push_str(&format!("\"layers_ns\": {{{}}}, ", fields.join(", ")));
    let fields: Vec<String> = metrics(&t)
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    json.push_str(&format!("\"metrics\": {{{}}}, ", fields.join(", ")));
    let fields: Vec<String> =
        out.counts.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    json.push_str(&format!("\"counts\": {{{}}}, ", fields.join(", ")));
    json.push_str(&format!("\"rendered\": {}}}", json_str(&out.rendered)));
    println!("{json}");
    ExitCode::SUCCESS
}
