//! Compiler calls, each inside a `core.compile` span.
//!
//! The pipeline already reports one span per pass; those are read from
//! a local `MemRecorder` after each call and folded into the compile
//! span's counts (`pass_ns:<label>`). The vulnerability pass belongs to
//! the analysis layer, so its time is also moved there
//! (`moved_ns:analysis`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use penny_core::{CompileError, PennyConfig, Protected};
use penny_ir::Kernel;
use penny_obs::MemRecorder;
use penny_workloads::Workload;

use crate::trace::{Trace, MOVED_PREFIX};

/// Prefix of the per-pass time counts on a compile span.
pub const PASS_PREFIX: &str = "pass_ns:";

/// Prefix of the rejection-reason counts on a compile span.
pub const REJECT_PREFIX: &str = "reject:";

/// Why a compile produced no artifact.
pub fn reject_reason(e: &CompileError) -> &'static str {
    match e {
        CompileError::Validate(_) => "validate",
        CompileError::Invariant(_) => "invariant",
        CompileError::Lint(_) => "lint",
        CompileError::Unsupported(_) => "unsupported",
        CompileError::Internal(_) => "internal",
    }
}

/// Every rejection reason, in report order (`panic` is a caught panic).
pub const REJECT_REASONS: [&str; 6] =
    ["panic", "unsupported", "invariant", "internal", "lint", "validate"];

fn fold_passes(t: &mut Trace, id: usize, rec: &MemRecorder) {
    for s in rec.take() {
        if s.kind != penny_obs::SpanKind::Pass {
            continue;
        }
        t.add(id, &format!("{PASS_PREFIX}{}", s.label), s.wall_ns);
        if s.label == "vulnerability" {
            t.add(id, &format!("{MOVED_PREFIX}analysis"), s.wall_ns);
        }
    }
}

/// Compiles through the process-wide compile cache, as the conformance
/// harness does. Counts `compiled` (a cache miss that ran the pipeline)
/// or `cache_hit`, and the artifact's `static_insts` when compiled.
pub fn cached(t: &mut Trace, w: &Workload, cfg: &PennyConfig) -> Arc<Protected> {
    t.span("core.compile", |t, id| {
        let rec = MemRecorder::new();
        let before = penny_bench::cache::compile_cache_stats();
        let p = penny_bench::cache::compiled_with(w, cfg, &rec);
        let after = penny_bench::cache::compile_cache_stats();
        if after.misses > before.misses {
            t.add(id, "compiled", 1);
            t.add(id, "static_insts", p.kernel.num_insts() as u64);
        } else {
            t.add(id, "cache_hit", 1);
        }
        fold_passes(t, id, &rec);
        p
    })
}

/// Compiles directly, catching panics like the fuzz gauntlet does.
/// With `attempt` set the call is one counted (kernel, scheme) attempt:
/// it counts `attempts` and, on failure, `reject:<reason>`.
///
/// # Errors
///
/// The rejection reason.
pub fn direct(
    t: &mut Trace,
    kernel: &Kernel,
    cfg: &PennyConfig,
    attempt: bool,
) -> Result<Protected, &'static str> {
    t.span("core.compile", |t, id| {
        let rec = MemRecorder::new();
        let out = catch_unwind(AssertUnwindSafe(|| {
            penny_core::compile_observed(kernel, cfg, &rec)
        }));
        let out = match out {
            Ok(Ok(p)) => Ok(p),
            Ok(Err(e)) => Err(reject_reason(&e)),
            Err(_) => Err("panic"),
        };
        t.add(id, "compiled", 1);
        if let Ok(p) = &out {
            t.add(id, "static_insts", p.kernel.num_insts() as u64);
        }
        if attempt {
            t.add(id, "attempts", 1);
            if let Err(reason) = out {
                t.add(id, &format!("{REJECT_PREFIX}{reason}"), 1);
            }
        }
        fold_passes(t, id, &rec);
        out
    })
}
