//! `penny-herd`: fleet-scale conformance campaign orchestration.
//!
//! Fans a conformance campaign out across `--shards` local `penny-eval`
//! processes (sample-position sharding), supervises them with
//! per-attempt timeouts and bounded retry-with-backoff, and merges the
//! surviving shard reports. Determinism makes the merge exact: a full
//! merge renders byte-identically to the unsharded run, and a campaign
//! that lost a shard permanently is *labelled* partial with the missing
//! shard indices named.
//!
//! Usage:
//!
//! ```text
//! penny-herd [--workloads A,B] [--schemes X,Y] [--budget N]
//!            [--shards N] [--jobs N] [--timeout SECS] [--retries N]
//!            [--backoff-ms MS] [--out DIR] [--recording-store DIR]
//!            [--check-against FILE] [--eval PATH]
//! ```
//!
//! * `--workloads` / `--schemes` — the campaign matrix (defaults:
//!   `MT` under `Penny`). Schemes: `baseline`, `igpu`, `bolt-global`,
//!   `bolt-auto`, `penny`, matched ignoring case, `-` and `_` (the
//!   tokens `BoltGlobal` etc. work too).
//! * `--budget` — samples per pair, split across the shards.
//! * `--shards` — shard process count (default 4).
//! * `--timeout` — per-attempt wall-clock limit (default 600 s).
//! * `--retries` — re-runs after a failed attempt (default 2);
//!   `--backoff-ms` is the first retry delay, doubling per retry.
//! * `--out` — where shard report (and span) files land.
//! * `--recording-store` — shared content-addressed recording store;
//!   warm campaigns skip the fault-free record phase (see
//!   `DESIGN.md` §16).
//! * `--check-against FILE` — a report JSON written by an *unsharded*
//!   `penny-eval --report-json`; the merged campaign must render
//!   byte-identically (the `scripts/verify.sh` gate).
//! * `--eval PATH` — the shard binary (default: `penny-eval` next to
//!   this executable). Tests point this at crash-injecting wrappers.
//!
//! A flag's value may follow as `--flag value` or `--flag=value`
//! (`penny_bench::cli`). Exit status: 0 clean; 1 site failures or a
//! `--check-against` mismatch; 2 usage errors; 3 campaign completed but
//! partial.

use std::path::PathBuf;
use std::time::Duration;

use penny_bench::cli::{self, Prog};
use penny_bench::herd::{CampaignSpec, CommandTemplate};
use penny_bench::{conformance, SchemeId};

const PROG: Prog = Prog("penny-herd");

fn main() {
    let mut spec = CampaignSpec {
        workloads: vec!["MT".to_string()],
        schemes: vec![SchemeId::Penny],
        budget: 2000,
        shards: 4,
        jobs_per_shard: std::thread::available_parallelism().map_or(1, |n| n.get()),
        timeout: Duration::from_secs(600),
        retries: 2,
        backoff: Duration::from_millis(250),
        out_dir: PathBuf::from("herd-out"),
        recording_store: None,
        shard_obs: true,
    };
    let mut template = CommandTemplate::penny_eval();
    let mut check_against: Option<String> = None;
    let mut args = PROG.args();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workloads" => {
                let workloads = args.parse(cli::workloads);
                spec.workloads = workloads.iter().map(|w| w.abbr.to_string()).collect();
            }
            "--schemes" => spec.schemes = args.parse(cli::schemes),
            "--budget" => spec.budget = args.parse(cli::positive),
            "--shards" => spec.shards = args.parse(cli::positive),
            "--jobs" => spec.jobs_per_shard = args.parse(cli::positive),
            "--timeout" => spec.timeout = Duration::from_secs(args.parse(cli::uint)),
            "--retries" => spec.retries = args.parse(cli::uint),
            "--backoff-ms" => spec.backoff = Duration::from_millis(args.parse(cli::uint)),
            "--out" => spec.out_dir = PathBuf::from(args.value()),
            "--recording-store" => spec.recording_store = Some(args.value().into()),
            "--check-against" => check_against = Some(args.value()),
            "--eval" => template.program = PathBuf::from(args.value()),
            _ => args.unknown(),
        }
    }

    eprintln!(
        "penny-herd: {} workload(s) x {} scheme(s), budget {}, {} shard(s), \
         timeout {:?}, {} retries",
        spec.workloads.len(),
        spec.schemes.len(),
        spec.budget,
        spec.shards,
        spec.timeout,
        spec.retries
    );
    let outcome = penny_bench::herd::run_campaign(&spec, &template)
        .unwrap_or_else(|e| PROG.die(format!("campaign failed: {e}")));

    let mut site_failures = false;
    let mut rendered = String::new();
    for m in &outcome.merged {
        rendered.push_str(&conformance::render_report(&m.report));
        if m.partial {
            rendered.push_str(&format!(
                "       PARTIAL: missing shard(s) {:?} of {} — counts cover surviving \
                 shards only\n",
                m.missing_shards, spec.shards
            ));
        }
        site_failures |= !m.report.failures.is_empty() || m.report.static_disagreements > 0;
    }
    print!("{rendered}");
    for s in &outcome.shards {
        if s.attempts > 1 || !s.ok {
            eprintln!(
                "penny-herd: shard {}/{}: {} after {} attempt(s)",
                s.index,
                spec.shards,
                if s.ok { "recovered" } else { "FAILED" },
                s.attempts
            );
        }
    }

    if let Some(path) = check_against {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| PROG.die(format!("reading {path}: {e}")));
        let reference = penny_bench::json::reports_from_json(&text)
            .unwrap_or_else(|e| PROG.die(format!("parsing {path}: {e}")));
        let expected: String = reference.iter().map(conformance::render_report).collect();
        if outcome.partial {
            eprintln!("penny-herd: check-against skipped — campaign is partial");
        } else if rendered != expected {
            eprintln!("penny-herd: merged campaign does NOT render identically to {path}");
            std::process::exit(1);
        } else {
            eprintln!("penny-herd: merged campaign renders byte-identical to {path}");
        }
    }

    if site_failures {
        std::process::exit(1);
    }
    if outcome.partial {
        eprintln!("penny-herd: campaign is PARTIAL (see missing shards above)");
        std::process::exit(3);
    }
}
