//! `penny-fuzz`: seeded generative differential testing for the Penny
//! pipeline, plus corpus banking and replay.
//!
//! Usage:
//!
//! ```text
//! penny-fuzz --seed N --iters K [--conformance-budget S] [--jobs N]
//!            [--bank DIR] [--obs FILE]
//! penny-fuzz --replay DIR [--conformance-budget S] [--jobs N]
//! penny-fuzz --mint-sparse COUNT --from-seed S --bank DIR
//!            [--conformance-budget S] [--jobs N]
//! penny-fuzz --mint-spec SPEC --bank DIR
//! ```
//!
//! * `--seed N --iters K` — run the gauntlet on `K` generated kernels
//!   derived from seed `N`; print the deterministic report; exit
//!   nonzero if any divergence was found;
//! * `--conformance-budget S` — fault sites per conformance sweep
//!   (default 24 while fuzzing, 2048 for replay/mint; 0 disables);
//! * `--jobs N` — harness workers for conformance classification;
//!   verdicts are identical for any job count;
//! * `--bank DIR` — write every divergence's shrunk reproducer (or
//!   every minted kernel) as a corpus entry under DIR;
//! * `--replay DIR` — re-verify every banked corpus entry through the
//!   full gauntlet (compile → validate → lint → differential → golden
//!   → conformance); exit nonzero on any failure;
//! * `--mint-sparse COUNT --from-seed S` — scan seeds from `S` for
//!   sparse-family kernels on which **all** schemes compile and the
//!   whole gauntlet passes, then bank the first COUNT of them;
//! * `--mint-spec SPEC` — gauntlet-verify and bank one hand-picked
//!   spec (e.g. `sparse;ops=6,3;nnz=5;topo=0x2a`);
//! * `--obs FILE` — install the observability recorder and write the
//!   run's spans (one `campaign` span per gauntlet iteration, plus the
//!   conformance engine's spans) to FILE as schema-checked JSONL
//!   (`penny_bench::obs::write_jsonl`).
//!
//! The fuzz report goes to stdout and contains no timings: two runs
//! with identical arguments produce byte-identical output.
//!
//! A flag's value may follow as `--flag value` or `--flag=value`
//! (`penny_bench::cli`). Exit status: 0 ok; 1 a divergence or a corpus
//! replay failure; 2 usage error, or a `--mint-*` spec that cannot be
//! banked.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use penny_bench::cli::{self, Prog};
use penny_fuzz::{run_fuzz, run_gauntlet, FuzzConfig};
use penny_obs::MemRecorder;
use penny_sim::gen::{Family, KernelSpec};

const PROG: Prog = Prog("penny-fuzz");

fn main() -> ExitCode {
    let mut seed: u64 = 1;
    let mut iters: u64 = 0;
    let mut conformance_budget: Option<u64> = None;
    let mut jobs: usize = 1;
    let mut bank: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut mint_sparse: Option<u64> = None;
    let mut mint_spec: Option<String> = None;
    let mut from_seed: u64 = 1;
    let mut obs: Option<PathBuf> = None;
    let mut args = PROG.args();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => seed = args.parse(cli::uint),
            "--iters" => iters = args.parse(cli::uint),
            "--conformance-budget" => conformance_budget = Some(args.parse(cli::uint)),
            "--jobs" => jobs = args.parse(cli::positive),
            "--bank" => bank = Some(args.value().into()),
            "--replay" => replay = Some(args.value().into()),
            "--mint-sparse" => mint_sparse = Some(args.parse(cli::uint)),
            "--mint-spec" => mint_spec = Some(args.value()),
            "--from-seed" => from_seed = args.parse(cli::uint),
            "--obs" => obs = Some(args.value().into()),
            _ => args.unknown(),
        }
    }
    penny_bench::set_jobs(jobs);
    // The gauntlet *expects* panics: overwrite-prevention rejections
    // surface as catch_unwind'd compile skips, and real divergent
    // panics are captured into the report with their payload text.
    // Keep stderr quiet instead of printing a backtrace per skip.
    std::panic::set_hook(Box::new(|_| {}));

    let obs_rec = obs.as_ref().map(|_| Arc::new(MemRecorder::new()));
    if let Some(rec) = &obs_rec {
        penny_bench::obs::set_recorder(rec.clone());
    }
    let finish_obs = |rec: &Option<Arc<MemRecorder>>| {
        if let (Some(rec), Some(path)) = (rec, &obs) {
            penny_bench::obs::clear_recorder();
            penny_bench::obs::write_jsonl(path, &rec.take())
                .unwrap_or_else(|e| PROG.die(e));
        }
    };

    // Replay mode: re-verify a banked corpus directory.
    if let Some(dir) = &replay {
        let budget = conformance_budget.unwrap_or(2048);
        match penny_fuzz::replay_dir(dir, budget) {
            Ok(n) => {
                println!("corpus replay: {n} entries verified ({})", dir.display());
                finish_obs(&obs_rec);
                return ExitCode::SUCCESS;
            }
            Err(errors) => {
                println!("corpus replay: {} failure(s)", errors.len());
                for e in &errors {
                    println!("  {e}");
                }
                finish_obs(&obs_rec);
                return ExitCode::FAILURE;
            }
        }
    }

    // Mint a single hand-picked spec.
    if let Some(spec_line) = &mint_spec {
        let dir = bank.clone().unwrap_or_else(|| PROG.die("--mint-spec needs --bank DIR"));
        let spec = KernelSpec::parse(spec_line)
            .unwrap_or_else(|| PROG.die(format!("unparseable spec `{spec_line}`")));
        let cfg = FuzzConfig {
            conformance_budget: conformance_budget.unwrap_or(2048),
            ..FuzzConfig::new(0, 0)
        };
        let outcome = run_gauntlet(&spec, &cfg);
        if let Some((kind, scheme, detail)) = &outcome.failure {
            PROG.die(format!(
                "spec fails the gauntlet [{}{}]: {detail}",
                kind.tag(),
                scheme.map(|s| format!(" under {s}")).unwrap_or_default()
            ));
        }
        if !outcome.all_schemes_compiled {
            PROG.die("spec is skipped by at least one scheme; pick another");
        }
        let path = penny_fuzz::bank_spec(&spec, &dir).unwrap_or_else(|e| PROG.die(e));
        println!("minted {} -> {}", spec.render(), path.display());
        finish_obs(&obs_rec);
        return ExitCode::SUCCESS;
    }

    // Mint mode: scan seeds for bankable sparse kernels.
    if let Some(count) = mint_sparse {
        let dir =
            bank.clone().unwrap_or_else(|| PROG.die("--mint-sparse needs --bank DIR"));
        let budget = conformance_budget.unwrap_or(2048);
        let cfg =
            FuzzConfig { conformance_budget: budget, ..FuzzConfig::new(from_seed, 0) };
        let mut minted = 0u64;
        let mut seed = from_seed;
        while minted < count {
            let spec = KernelSpec::from_seed(seed);
            seed += 1;
            if spec.family != Family::Sparse {
                continue;
            }
            let outcome = run_gauntlet(&spec, &cfg);
            if outcome.failure.is_some() || !outcome.all_schemes_compiled {
                continue;
            }
            let path = penny_fuzz::bank_spec(&spec, &dir).unwrap_or_else(|e| PROG.die(e));
            println!("minted {} -> {}", spec.render(), path.display());
            minted += 1;
        }
        finish_obs(&obs_rec);
        return ExitCode::SUCCESS;
    }

    // Fuzz mode.
    if iters == 0 {
        PROG.die("nothing to do: pass --iters K, --replay DIR, or --mint-sparse COUNT");
    }
    let mut cfg = FuzzConfig::new(seed, iters);
    if let Some(budget) = conformance_budget {
        cfg.conformance_budget = budget;
    }
    let report = run_fuzz(&cfg);
    print!("{}", report.render());
    if let Some(dir) = &bank {
        for d in &report.divergences {
            match penny_fuzz::bank_spec(&d.shrunk, dir) {
                Ok(path) => println!("banked {} -> {}", d.shrunk.render(), path.display()),
                Err(e) => eprintln!("penny-fuzz: banking failed: {e}"),
            }
        }
    }
    finish_obs(&obs_rec);
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
