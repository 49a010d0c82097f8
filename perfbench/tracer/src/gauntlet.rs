//! The fuzz gauntlet, driven stage by stage through public calls.
//!
//! Mirrors `penny_fuzz::run_gauntlet` for every generated kernel —
//! generate, lint, compile under Baseline and each protected scheme,
//! differential decoded-vs-reference runs fault-free and under seeded
//! fault plans, then a validate-mode conformance sweep under Penny —
//! with a span around each stage and each call into a layer. Divergent
//! kernels are counted, not shrunk.

use std::panic::{catch_unwind, AssertUnwindSafe};

use penny_analysis::{lint_kernel, LintOptions};
use penny_bench::conformance::StaticMode;
use penny_bench::SchemeId;
use penny_core::Protected;
use penny_fuzz::FuzzConfig;
use penny_sim::gen::{self, splitmix64, KernelSpec, MemImage, PairLeg};
use penny_sim::{FaultPlan, GlobalMemory, GpuConfig};
use penny_workloads::user_words;

use crate::compile;
use crate::sweep::{self, RecordingSource};
use crate::trace::Trace;

/// The gauntlet's stage counters, field for field as `penny-fuzz`
/// prints them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub generated: u64,
    pub lint_clean: u64,
    pub compiles: u64,
    pub compile_skips: u64,
    pub differential_runs: u64,
    pub conformance_sites: u64,
    pub static_claims: u64,
    pub divergences: u64,
}

fn gauntlet_config(scheme: SchemeId, spec: &KernelSpec) -> penny_core::PennyConfig {
    scheme.config().with_launch(spec.dims()).with_validation(true).with_lint(true)
}

fn compare_legs(fast: PairLeg, reference: PairLeg) -> bool {
    match (fast.0, reference.0) {
        (Ok(fs), Ok(rs)) => fs == rs && fast.1 == reference.1,
        (Err(fe), Err(re)) => fe == re,
        _ => false,
    }
}

/// One differential run inside an `sim.engine` span: both interpreter
/// legs, counted as one run with the legs' warp instructions and the
/// fast leg's register-file reads. Returns the fast leg's memory when
/// the legs agree.
fn differential(
    t: &mut Trace,
    protected: &Protected,
    spec: &KernelSpec,
    gpu: &GpuConfig,
    plan: &FaultPlan,
    image: &MemImage,
) -> Option<GlobalMemory> {
    let legs = t.span("sim.engine", |t, id| {
        let legs = catch_unwind(AssertUnwindSafe(|| {
            gen::try_run_pair(protected, spec.dims(), gpu, plan, image)
        }))
        .ok()?;
        t.add(id, "runs", 1);
        for leg in [&legs.0, &legs.1] {
            if let Ok(s) = &leg.0 {
                t.add(id, "warp_insts", s.warp_instructions);
            }
        }
        if let Ok(s) = &legs.0 .0 {
            t.add(id, "rf_reads", s.rf.reads);
            t.add(id, "rf_clean_reads", s.rf.clean_reads());
        }
        Some(legs)
    })?;
    let (fast, reference) = legs;
    let mem = fast.1.fork();
    compare_legs(fast, reference).then_some(mem)
}

/// Runs `cfg.iters` kernels from `cfg.seed` through the gauntlet.
///
/// # Errors
///
/// Only on a failure of the traced conformance sweep itself.
pub fn run(t: &mut Trace, cfg: &FuzzConfig) -> Result<Counts, String> {
    let mut c = Counts::default();
    for i in 0..cfg.iters {
        let stage = t.enter("fuzz.generate");
        let spec = KernelSpec::from_seed(cfg.seed.wrapping_add(i));
        let kernel = catch_unwind(AssertUnwindSafe(|| spec.build()));
        t.exit(stage);
        c.generated += 1;
        let Ok(kernel) = kernel else {
            c.divergences += 1;
            continue;
        };
        let dims = spec.dims();
        let clean = t.span("analysis.lint", |_, _| {
            lint_kernel(&kernel, &LintOptions::for_launch(dims.block, dims.grid)).is_empty()
        });
        if !clean {
            c.divergences += 1;
            continue;
        }
        c.lint_clean += 1;

        c.compiles += 1;
        let Ok(baseline) =
            compile::direct(t, &kernel, &gauntlet_config(SchemeId::Baseline, &spec), true)
        else {
            c.divergences += 1;
            continue;
        };
        let image = spec.image();
        let spec_salt =
            spec.render().bytes().fold(0u64, |h, b| splitmix64(h ^ u64::from(b)));
        c.differential_runs += 1;
        let gpu = GpuConfig::fermi().with_rf(SchemeId::Baseline.rf());
        let golden = t.span("fuzz.differential", |t, _| {
            differential(t, &baseline, &spec, &gpu, &FaultPlan::none(), &image)
        });
        let Some(golden) = golden.map(|m| user_words(&m)) else {
            c.divergences += 1;
            continue;
        };

        let mut diverged = false;
        'schemes: for &scheme in &cfg.schemes {
            c.compiles += 1;
            let Ok(protected) =
                compile::direct(t, &kernel, &gauntlet_config(scheme, &spec), true)
            else {
                c.compile_skips += 1;
                continue;
            };
            let regs = protected.kernel.vreg_limit().max(1);
            let mut plans = vec![FaultPlan::none()];
            for p in 0..cfg.fault_plans {
                plans.push(gen::fault_plan(
                    splitmix64(spec_salt ^ (0xF417 + p)),
                    dims,
                    regs,
                    3,
                ));
            }
            let gpu = GpuConfig::fermi().with_rf(scheme.rf());
            for (pi, plan) in plans.iter().enumerate() {
                c.differential_runs += 1;
                let ok = t.span("fuzz.differential", |t, _| {
                    differential(t, &protected, &spec, &gpu, plan, &image)
                        .is_some_and(|mem| pi != 0 || user_words(&mem) == golden)
                });
                if !ok {
                    diverged = true;
                    break 'schemes;
                }
            }
        }
        if diverged {
            c.divergences += 1;
            continue;
        }

        if cfg.conformance_budget > 0 {
            let workload = penny_fuzz::spec_workload(&spec, golden);
            for &scheme in &cfg.conformance_schemes {
                let stage = t.enter("fuzz.conformance");
                let compiled =
                    compile::direct(t, &kernel, &gauntlet_config(scheme, &spec), false)
                        .is_ok();
                if compiled {
                    let p = sweep::prepare(
                        t,
                        workload.clone(),
                        scheme,
                        true,
                        sweep::Compile::Cached,
                        RecordingSource::Record,
                    )?;
                    let r = sweep::sweep(
                        t,
                        &p,
                        scheme,
                        cfg.conformance_budget,
                        StaticMode::Validate,
                        (0, 1),
                    )?;
                    c.conformance_sites += r.covered;
                    c.static_claims += r.static_checked;
                }
                t.exit(stage);
            }
        }
    }
    Ok(c)
}
