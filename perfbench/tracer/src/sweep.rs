//! The conformance sweep, driven layer by layer through public calls.
//!
//! Mirrors the work `penny_bench::conformance` does for one
//! (workload, scheme) pair — compile, record (or load) the fault-free
//! run, classify every owned site, fork one replay per equivalence
//! group — but serially, with a span around each call into a layer.
//! Calls that take well under a microsecond (`FaultSpace::site`,
//! `static_point`, `classify`, `site_class`, `memo_key`) are timed in
//! batches of [`BATCH`] sites. The result is a `ConformanceReport` built
//! from the traced counts, so it can be rendered and compared byte for
//! byte with what the program printed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use penny_analysis::{RfModel, StaticSiteClass, VulnerabilityMap};
use penny_bench::conformance::{
    ConformanceReport, FaultSpace, ReplayWork, SiteClassCounts, StaticMode,
    StaticPruneCounts,
};
use penny_bench::SchemeId;
use penny_core::{PennyConfig, Protected};
use penny_sim::snapshot::{Recording, SiteClass};
use penny_sim::{GlobalMemory, GpuConfig, Injection, RegFile, RfProtection};
use penny_workloads::{user_words, Workload};

use crate::compile;
use crate::trace::Trace;

/// Sites per timed batch of sub-microsecond calls.
pub const BATCH: u64 = 65_536;

/// One (workload, scheme) pair ready to sweep.
pub struct Prepared {
    workload: Workload,
    protected: Arc<Protected>,
    gpu: GpuConfig,
    reference: Vec<(u32, u32)>,
    space: FaultSpace,
    recording: Recording,
}

/// How the pair's kernel is compiled.
#[derive(Clone, Copy)]
pub enum Compile {
    /// Through the process-wide compile cache (one process sweeping).
    Cached,
    /// Afresh, as each shard process of a campaign does.
    Direct,
}

/// Where the fault-free recording comes from.
#[derive(Clone, Copy)]
pub enum RecordingSource<'a> {
    /// Trace it afresh.
    Record,
    /// Load it from a content-addressed store directory, recording and
    /// publishing it on a miss (the `--recording-store` layout).
    Store(&'a Path),
}

/// The compiler configuration the conformance harness uses.
pub fn conformance_config(w: &Workload, scheme: SchemeId, statik: bool) -> PennyConfig {
    scheme.config().with_launch(w.dims).with_validation(true).with_vulnerability(statik)
}

fn rf_model(rf: RfProtection) -> RfModel {
    match rf {
        RfProtection::None => RfModel::None,
        RfProtection::Ecc(_) => RfModel::SecdedEcc,
        RfProtection::Edc(_) => RfModel::ParityEdc,
    }
}

/// The translation-validation contract: which dynamic classes a static
/// claim admits.
fn claim_holds(s: StaticSiteClass, d: SiteClass, model: RfModel) -> bool {
    match s {
        StaticSiteClass::Unknown => true,
        StaticSiteClass::StaticDead | StaticSiteClass::StaticOverwritten => {
            matches!(d, SiteClass::NeverFires | SiteClass::Invisible)
        }
        StaticSiteClass::StaticCovered => match model {
            RfModel::SecdedEcc => matches!(
                d,
                SiteClass::NeverFires | SiteClass::Invisible | SiteClass::CorrectedInline
            ),
            RfModel::ParityEdc => matches!(
                d,
                SiteClass::NeverFires | SiteClass::Invisible | SiteClass::Simulated
            ),
            RfModel::None => false,
        },
    }
}

/// Compiles and records (or loads) one pair.
///
/// # Errors
///
/// A failed simulation, an unreadable store file that also fails to
/// re-record, or a wrong fault-free output.
pub fn prepare(
    t: &mut Trace,
    workload: Workload,
    scheme: SchemeId,
    statik: bool,
    how: Compile,
    source: RecordingSource,
) -> Result<Prepared, String> {
    let abbr = workload.abbr;
    let config = conformance_config(&workload, scheme, statik);
    let protected = match how {
        Compile::Cached => compile::cached(t, &workload, &config),
        Compile::Direct => {
            let kernel = workload.kernel().map_err(|e| format!("{abbr}: parse: {e}"))?;
            Arc::new(
                compile::direct(t, &kernel, &config, false)
                    .map_err(|r| format!("{abbr}: compile rejected ({r})"))?,
            )
        }
    };
    let gpu = GpuConfig::fermi().with_rf(scheme.rf());
    let mut seed_mem = GlobalMemory::new();
    let launch = workload.prepare(&mut seed_mem);
    let record = |t: &mut Trace| {
        t.span("sim.record", |t, id| {
            let r = Recording::record(&gpu, &protected, &launch, &seed_mem)
                .map_err(|e| format!("{abbr} fault-free run: {e}"))?;
            t.add(id, "snapshots", r.counters().snapshots);
            Ok::<_, String>(r)
        })
    };
    let recording = match source {
        RecordingSource::Record => record(t)?,
        RecordingSource::Store(dir) => {
            let key = penny_cache::recording_key(&workload.source_text(), &config, &gpu);
            let path = dir.join(format!("{key:016x}.bin"));
            let lookup = t.enter("bench.recstore.read");
            let bytes = std::fs::read(&path).ok();
            t.exit(lookup);
            let loaded = bytes.and_then(|b| {
                let r = t.span("sim.persist.deserialize", |_, _| {
                    Recording::deserialize(&b, key, &gpu, &protected).ok()
                });
                if r.is_none() {
                    t.add(lookup, "stale", 1);
                }
                r
            });
            if let Some(r) = loaded {
                t.add(lookup, "hits", 1);
                r
            } else {
                t.add(lookup, "misses", 1);
                let r = record(t)?;
                let bytes = t.span("sim.persist.serialize", |t, id| {
                    let b = r.serialize(key);
                    t.add(id, "bytes", b.len() as u64);
                    b
                });
                t.span("bench.recstore.write", |_, _| {
                    let tmp = dir.join(format!("{key:016x}.tmp.{}", std::process::id()));
                    std::fs::write(&tmp, &bytes)
                        .and_then(|()| std::fs::rename(&tmp, &path))
                        .map_err(|e| format!("writing {}: {e}", path.display()))
                })?;
                r
            }
        }
    };
    if !workload.check(recording.global()) {
        return Err(format!("{abbr}: fault-free output wrong"));
    }
    let reference = user_words(recording.global());
    let stats = recording.stats();
    let warps = workload.dims.threads_per_block().div_ceil(32).max(1);
    let total_warps = (warps * workload.dims.blocks()).max(1) as u64;
    let space = FaultSpace {
        blocks: workload.dims.blocks(),
        warps,
        lanes: 32,
        triggers: stats.warp_instructions.div_ceil(total_warps).max(1),
        regs: protected.kernel.vreg_limit().max(1),
        bits: RegFile::new(1, gpu.rf).codeword_bits(),
    };
    Ok(Prepared { workload, protected, gpu, reference, space, recording })
}

/// One replay-equivalence group: its first member and its size.
struct Group {
    rep: Injection,
    members: u64,
}

/// Sweeps the positions of `budget` that `shard` = `(index, count)`
/// owns. Statically classified sites are answered without replay under
/// [`StaticMode::Prune`] and cross-examined under
/// [`StaticMode::Validate`].
///
/// # Errors
///
/// Any unrecovered site or static/dynamic disagreement: the benchmark's
/// workloads are chosen so that none occurs.
pub fn sweep(
    t: &mut Trace,
    p: &Prepared,
    scheme: SchemeId,
    budget: u64,
    mode: StaticMode,
    shard: (u32, u32),
) -> Result<ConformanceReport, String> {
    let abbr = p.workload.abbr;
    let total = p.space.total();
    let seq = p.space.sequence(budget);
    let positions = seq.len();
    let model = rf_model(scheme.rf());
    let vmap: Option<&VulnerabilityMap> = match mode {
        StaticMode::Off => None,
        _ => Some(
            p.protected
                .vulnerability
                .as_ref()
                .ok_or("static modes need the vulnerability map")?,
        ),
    };
    let mut covered = 0u64;
    let mut classes = SiteClassCounts::default();
    let mut pruned = StaticPruneCounts::default();
    let mut static_checked = 0u64;
    let mut disagreements = 0u64;
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: HashMap<(u32, u32, u32, u32, u32, u64), usize> = HashMap::new();

    let mut injs: Vec<Injection> = Vec::with_capacity(BATCH as usize);
    let mut claims: Vec<StaticSiteClass> = Vec::with_capacity(BATCH as usize);
    let mut points: Vec<Option<usize>> = Vec::with_capacity(BATCH as usize);
    let mut dynamic: Vec<SiteClass> = Vec::with_capacity(BATCH as usize);
    let mut start = 0u64;
    while start < positions {
        let end = (start + BATCH).min(positions);
        let id = t.enter("bench.site_seq");
        injs.clear();
        for pos in start..end {
            if pos % u64::from(shard.1) == u64::from(shard.0) {
                injs.push(p.space.site(seq.index_at(pos)));
            }
        }
        t.add(id, "calls", injs.len() as u64);
        t.exit(id);
        start = end;

        claims.clear();
        if let Some(m) = vmap {
            let id = t.enter("sim.static_point");
            points.clear();
            points.extend(injs.iter().map(|inj| p.recording.static_point(inj)));
            t.add(id, "calls", injs.len() as u64);
            t.exit(id);
            let id = t.enter("analysis.classify");
            claims.extend(points.iter().zip(&injs).map(|(pc, inj)| match pc {
                Some(pc) => m.classify(*pc, inj.reg, model),
                None => StaticSiteClass::Unknown,
            }));
            t.add(id, "calls", points.iter().filter(|p| p.is_some()).count() as u64);
            t.exit(id);
            if mode == StaticMode::Prune {
                let mut keep = 0;
                for i in 0..injs.len() {
                    match claims[i] {
                        StaticSiteClass::StaticDead => pruned.dead += 1,
                        StaticSiteClass::StaticOverwritten => pruned.overwritten += 1,
                        StaticSiteClass::StaticCovered => pruned.covered += 1,
                        StaticSiteClass::Unknown => {
                            injs[keep] = injs[i];
                            claims[keep] = claims[i];
                            keep += 1;
                        }
                    }
                }
                injs.truncate(keep);
                claims.truncate(keep);
            }
        } else {
            claims.resize(injs.len(), StaticSiteClass::Unknown);
        }
        covered += injs.len() as u64;

        let id = t.enter("sim.site_class");
        dynamic.clear();
        dynamic.extend(injs.iter().map(|inj| p.recording.site_class(inj)));
        t.add(id, "calls", injs.len() as u64);
        t.exit(id);

        let mut simulated: Vec<Injection> = Vec::new();
        for ((inj, &claim), &d) in injs.iter().zip(&claims).zip(&dynamic) {
            if mode == StaticMode::Validate && claim != StaticSiteClass::Unknown {
                static_checked += 1;
                if !claim_holds(claim, d, model) {
                    disagreements += 1;
                }
            }
            match d {
                SiteClass::NeverFires => classes.never_fires += 1,
                SiteClass::Invisible => classes.invisible += 1,
                SiteClass::CorrectedInline => classes.corrected_inline += 1,
                SiteClass::Simulated => {
                    classes.simulated += 1;
                    simulated.push(*inj);
                }
            }
        }
        if !simulated.is_empty() {
            let id = t.enter("sim.memo_key");
            let keys: Vec<_> =
                simulated.iter().map(|inj| p.recording.memo_key(inj)).collect();
            t.add(id, "calls", simulated.len() as u64);
            t.exit(id);
            for (inj, key) in simulated.iter().zip(keys) {
                let key = key.ok_or("simulated sites have memo keys")?;
                let gi = *group_of.entry(key).or_insert_with(|| {
                    groups.push(Group { rep: *inj, members: 0 });
                    groups.len() - 1
                });
                groups[gi].members += 1;
            }
        }
    }

    let mut work = ReplayWork {
        snapshots: p.recording.counters().snapshots,
        forks: groups.len() as u64,
        replayed_insts: 0,
        cold_insts: covered.saturating_mul(p.recording.counters().total_warp_insts),
        pages_copied: 0,
    };
    let mut failed = 0u64;
    for g in &groups {
        let id = t.enter("sim.replay");
        let outcome = p.recording.run_site(&p.gpu, &p.protected, g.rep);
        t.add(id, "forks", 1);
        t.add(id, "sites", g.members);
        if let Ok(site) = &outcome {
            t.add(id, "insts", site.replayed_insts);
            t.add(id, "pages_copied", site.pages_copied);
            t.add(id, "spliced", g.members * u64::from(site.spliced));
        }
        t.exit(id);
        let ok = match outcome {
            Ok(site) => {
                work.replayed_insts += site.replayed_insts;
                work.pages_copied += site.pages_copied;
                if site.spliced {
                    classes.spliced += g.members;
                    true
                } else {
                    p.workload.check(&site.global)
                        && user_words(&site.global) == p.reference
                }
            }
            Err(_) => false,
        };
        if !ok {
            failed += g.members;
        }
    }
    if failed > 0 || disagreements > 0 {
        return Err(format!(
            "{abbr} {}: {failed} unrecovered sites, {disagreements} static disagreements",
            scheme.name()
        ));
    }
    let pruned_total = pruned.dead + pruned.overwritten + pruned.covered;
    Ok(ConformanceReport {
        workload: abbr,
        variant: scheme.name(),
        space: p.space,
        total,
        covered,
        skipped: total - covered - pruned_total,
        pruned_static: pruned_total,
        static_prune: pruned,
        static_checked,
        static_disagreements: 0,
        disagreements: Vec::new(),
        recovered: covered,
        classes,
        work,
        shard,
        failures: Vec::new(),
    })
}
