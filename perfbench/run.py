#!/usr/bin/env python3
"""Benchmark of the Penny reproduction: campaign and compiler workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's user-facing binary (``penny-eval``,
``penny-fuzz`` or ``penny-herd``) runs as a fresh process, repeatedly
for about ``--seconds`` seconds after its set-up; every run's output is
checked, and the end-to-end metrics are printed. With ``--trace 1`` the
program runs once with one worker thread (the untraced reference), then
``perfbench-tracer`` drives the same inputs through each layer's public
functions with spans around the calls; its counts must reconcile
exactly with the program's reports, and the per-layer metrics are
printed. The last line of standard output is the JSON result. Both
binaries are built from source on first use, into ``CARGO_TARGET_DIR``
(default ``.bench_build``). See ``perfbench/README.md``.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

U64_MAX = str(2**64 - 1)

#: Every registry workload, in registry order.
REGISTRY = (
    "BS,SQ,BO,CS,FW,SP,MT,CP,LIB,LPS,NN,NQU,SGEMM,SPMV,STC,TPACF,"
    "BP,BFS,GAU,HS,MD,NW,PF,SRAD,SC"
)
CAMPAIGN_SCHEMES = "Penny,BoltGlobal,BoltAuto,IGpu"
CAMPAIGN_BUDGET = "400"
CAMPAIGN_SHARDS = 2
FUZZ_ITERS = "200"

#: Worker threads of a timed ``penny-eval`` run; the traced run's
#: untraced reference uses one.
JOBS = 2

#: Set-ups per run: at least ``SETUP_MIN_REPS``, then more while their
#: total stays under ``SETUP_SECONDS`` (up to ``SETUP_MAX_REPS``);
#: ``setup_s`` is their median.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 41
SETUP_SECONDS = 6

#: Per-process limit, and the limit on one whole invocation.
PROC_TIMEOUT_S = 150
DEADLINE_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "kernels_per_s": "kernels/s",
    "peak_rss_mb": "MiB",
    "ok_share": "ratio",
    "sim_slowdown_penny": "ratio",
}

#: Per-layer metrics the tracer computes, with their units.
TRACER_METRICS = {
    "core.compile.calls": "count",
    "core.compile.ms": "ms",
    "core.pass.region_formation.ms": "ms",
    "core.pass.checkpoint_placement.ms": "ms",
    "core.pass.overwrite_prevention.ms": "ms",
    "core.pass.pruning.ms": "ms",
    "core.pass.validation.ms": "ms",
    "core.pass.codegen.ms": "ms",
    "core.compile.reject_share": "ratio",
    "core.reject.panic": "count",
    "core.reject.unsupported": "count",
    "core.reject.invariant": "count",
    "core.reject.internal": "count",
    "core.reject.lint": "count",
    "core.reject.validate": "count",
    "core.out.static_insts": "count",
    "analysis.vulnerability.ms": "ms",
    "analysis.classify.calls": "count",
    "analysis.classify.ns_per_site": "ns",
    "analysis.lint.ms": "ms",
    "sim.engine.runs": "count",
    "sim.engine.ms": "ms",
    "sim.engine.warp_insts": "count",
    "sim.engine.minsts_per_s": "Minst/s",
    "sim.record.calls": "count",
    "sim.record.ms": "ms",
    "sim.record.snapshots": "count",
    "sim.site_class.calls": "count",
    "sim.site_class.ns_per_site": "ns",
    "sim.static_point.calls": "count",
    "sim.static_point.ns_per_site": "ns",
    "sim.replay.forks": "count",
    "sim.replay.ms": "ms",
    "sim.replay.insts": "count",
    "sim.replay.pages_copied": "count",
    "sim.replay.sites_per_fork": "ratio",
    "sim.replay.spliced_share": "ratio",
    "sim.rf.clean_read_share": "ratio",
    "sim.persist.serialize.ms": "ms",
    "sim.persist.bytes": "bytes",
    "sim.persist.deserialize.ms": "ms",
    "cache.compile.hits": "count",
    "cache.compile.misses": "count",
    "bench.recstore.hits": "count",
    "bench.recstore.misses": "count",
    "bench.recstore.stale": "count",
    "bench.site_seq.ns_per_site": "ns",
    "bench.json.render_ms": "ms",
    "bench.json.parse_ms": "ms",
    "bench.json.bytes": "bytes",
    "bench.merge.ms": "ms",
    "bench.herd.shard_ms": "ms",
    "fuzz.generate.ms": "ms",
    "fuzz.differential.ms": "ms",
    "fuzz.conformance.ms": "ms",
}

LAYERS = ("core", "analysis", "sim", "bench", "fuzz")

#: Every per-layer metric, with its unit.
PER_LAYER = {
    **TRACER_METRICS,
    "bench.herd.retries": "count",
    "fuzz.divergences": "count",
    **{f"self.{layer}.ms": "ms" for layer in LAYERS},
    "unattributed.ms": "ms",
    "trace.wall_ms": "ms",
    "trace.timed_ms": "ms",
    "trace.untraced_ms": "ms",
    "trace.overhead_ms": "ms",
}


class CheckFailed(Exception):
    """A program output failed a correctness check."""


# ---------------------------------------------------------------- statistics


def failed_share(attempted, failed):
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def ok_share(iters, lost_runs=0):
    """1 - failed/attempted over the operations of every timed run. A run
    whose counters or output differ from the first run's fails whole, as
    does each of ``lost_runs`` runs that ended with no output to count
    (each sized like the first run)."""
    first = iters[0]
    attempted = lost_runs * first.attempted
    failed = attempted
    for it in iters:
        attempted += it.attempted
        if it.counters != first.counters or it.signature != first.signature:
            failed += it.attempted
        else:
            failed += it.failed
    return 1 - failed_share(attempted, failed)


# ------------------------------------------------------------------ parsing

HEADER = re.compile(
    r"^(\S+)\s+(\S+)\s+total\s+(\d+)\s+covered\s+(\d+)\s+skipped\s+(\d+)"
    r"\s+recovered\s+(\d+)\s+failures\s+(\d+)$"
)
CLASSES = re.compile(
    r"^\s+classes: never-fires (\d+)\s+invisible (\d+)\s+corrected (\d+)"
    r"\s+simulated (\d+) \(spliced (\d+)\)$"
)
PRUNED = re.compile(
    r"^\s+pruned-static (\d+) \(dead (\d+)\s+overwritten (\d+)\s+covered (\d+)\)$"
)
VALIDATION = re.compile(r"^\s+static-validation: checked (\d+)\s+disagreements (\d+)$")
WORK_FULL = re.compile(
    r"^\s+work: (\d+) forks, (\d+) snapshots, (\d+) pages copied, (\d+) insts replayed"
)
WORK_SHORT = re.compile(r"^\s+work: (\d+) forks over (\d+) covered sites")


def parse_reports(text):
    """Parses rendered conformance reports (plus any ``work:`` lines)
    into dicts of exact counts, in output order."""
    reports = []
    for line in text.splitlines():
        m = HEADER.match(line)
        if m:
            keys = ("total", "covered", "skipped", "recovered", "failures")
            r = {"pair": f"{m.group(1)}/{m.group(2)}"}
            r.update(zip(keys, map(int, m.groups()[2:])))
            r.update(pruned=0, static_checked=0, disagreements=0)
            reports.append(r)
            continue
        if not reports:
            continue
        r = reports[-1]
        for pattern, keys in (
            (CLASSES, ("never_fires", "invisible", "corrected", "simulated", "spliced")),
            (PRUNED, ("pruned", "pruned_dead", "pruned_overwritten", "pruned_covered")),
            (VALIDATION, ("static_checked", "disagreements")),
            (WORK_FULL, ("forks", "snapshots", "pages_copied", "replayed_insts")),
            (WORK_SHORT, ("forks",)),
        ):
            m = pattern.match(line)
            if m:
                r.update(zip(keys, map(int, m.groups())))
                break
    return reports


def report_text(text):
    """The rendered-report lines of a ``penny-eval`` conformance output:
    everything but section banners and the timed ``work:`` lines."""
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not line.startswith("==") and not line.lstrip().startswith("work:")
    )


def problems_of(*checks):
    """Runs each check; returns the messages of those that failed."""
    found = []
    for check in checks:
        try:
            check()
        except CheckFailed as e:
            found.append(str(e))
    return found


def check_reports(reports, expected):
    """Every report recovered every covered site, and nothing is missing."""
    if len(reports) != expected:
        raise CheckFailed(f"expected {expected} reports, got {len(reports)}")
    for r in reports:
        if r["failures"] or r["recovered"] != r["covered"] or r["disagreements"]:
            raise CheckFailed(f"{r['pair']}: unrecovered sites or static disagreements")


def check_exhaustive(reports):
    """Exhaustive sweeps answer every site: covered + pruned = total."""
    for r in reports:
        if r["skipped"] or r["covered"] + r["pruned"] != r["total"]:
            raise CheckFailed(f"{r['pair']}: sweep is not exhaustive")


def sweep_ops(reports):
    """Operations of a sweep: one per site; a site fails unless it is
    answered and recovered."""
    attempted = sum(r["total"] for r in reports)
    failed = sum(
        r["covered"] - r["recovered"] + r["skipped"] + r["disagreements"] for r in reports
    )
    return attempted, failed


FUZZ_LINES = (
    (re.compile(r"^generated (\d+)\s+lint-clean (\d+)\s+compiles (\d+) \(skips (\d+)\)$", re.M),
     ("generated", "lint_clean", "compiles", "compile_skips")),
    (re.compile(r"^differential runs (\d+)\s+conformance sites (\d+)\s+static claims (\d+)$", re.M),
     ("differential_runs", "conformance_sites", "static_claims")),
    (re.compile(r"^divergences (\d+)$", re.M), ("divergences",)),
)


def parse_fuzz(text):
    counts = {}
    for pattern, keys in FUZZ_LINES:
        m = pattern.search(text)
        if not m:
            raise CheckFailed("penny-fuzz report is missing a counter line")
        counts.update(zip(keys, map(int, m.groups())))
    return counts


def fuzz_ops(counts):
    """Operations of the gauntlet: one per (kernel, scheme) compile
    attempt; an attempt fails if it was rejected or its kernel diverged.
    Each divergence is charged to one attempt only."""
    return counts["compiles"], counts["compile_skips"] + counts["divergences"]


ATTEMPT = re.compile(r"shard (\d+)/\d+ attempt (\d+) started")


def herd_ops(reports, stderr, shards):
    """Operations of a campaign: each shard attempt plus each site.
    Retries count as failed attempts, as do unrecovered sites."""
    attempts = len(ATTEMPT.findall(stderr))
    attempted = attempts + sum(r["total"] - r["skipped"] for r in reports)
    failed = (attempts - shards) + sum(r["covered"] - r["recovered"] for r in reports)
    return attempted, failed


def obs_cache_counts(out_dir):
    """Sums the cache-span counters the shard processes report."""
    totals = {}
    for path in sorted(Path(out_dir).glob("shard_*.obs.jsonl")):
        for line in path.read_text().splitlines():
            span = json.loads(line)
            if span.get("kind") != "cache":
                continue
            for key, value in span["counters"].items():
                name = f"{span['subject']}.{key}"
                if key.endswith("_ns"):
                    continue
                totals[name] = totals.get(name, 0) + value
    return totals


def reconcile_layers(traced):
    """Per-layer self times plus unattributed time equal the traced wall
    time exactly (integer nanoseconds)."""
    total = sum(traced["layers_ns"].values())
    if total != traced["wall_ns"]:
        raise CheckFailed(f"layer self times sum to {total} ns, wall is {traced['wall_ns']} ns")


def reconcile_counts(traced, expected):
    """Every traced count equals the program-reported one."""
    for key, want in expected.items():
        got = traced["counts"].get(key)
        if got != want:
            raise CheckFailed(f"traced {key} = {got}, program reported {want}")


# ------------------------------------------------------------------ running


class Proc:
    def __init__(self, rc, out, err, wall, rss_kb):
        self.rc, self.out, self.err, self.wall, self.rss_kb = rc, out, err, wall, rss_kb


def run(argv, cwd):
    """Runs one process to completion in its own session, capturing its
    output; returns the exit code, wall time and the peak resident set
    of the largest process in its tree (as ``wait4`` reports it)."""
    cwd = Path(cwd)
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen(
            [str(a) for a in argv],
            cwd=cwd,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(PROC_TIMEOUT_S, _kill_group, (p.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(p.pid)
    return Proc(
        p.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        wall,
        usage.ru_maxrss,
    )


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def expect_ok(proc, what):
    if proc.rc != 0:
        tail = proc.err.strip().splitlines()[-3:]
        raise CheckFailed(f"{what} exited with {proc.rc}: {' | '.join(tail)}")


class Bench:
    """Paths and binaries of one checkout."""

    def __init__(self, root, workload):
        self.root = root
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else root / target
        self.bin = self.target / "release"
        self.work = self.target / "perfbench-work" / f"{workload}-{os.getpid()}"

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        for args in (
            ["-p", "penny-bench", "-p", "penny-fuzz", "--bins"],
            ["--manifest-path", "perfbench/tracer/Cargo.toml"],
        ):
            done = subprocess.run(
                ["cargo", "build", "--release", "--offline", "-q", *args],
                cwd=self.root,
                env=env,
                stdout=sys.stderr,
            )
            if done.returncode != 0:
                raise SystemExit(f"perfbench: cargo build failed ({done.returncode})")

    def exe(self, name):
        return self.bin / name

    def dir(self, name):
        """A fresh, empty scratch directory."""
        d = self.work / name
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True, exist_ok=True)
        return d


# ---------------------------------------------------------------- workloads


class Iteration:
    """One run of the user-facing command, its operations and the
    messages of the checks it failed."""

    def __init__(self, proc, counters, signature, attempted, failed, kernels, problems=()):
        self.proc = proc
        self.counters = counters
        self.signature = signature
        self.attempted, self.failed = attempted, failed
        self.kernels = kernels
        self.problems = list(problems)


class Workload:
    """A workload: its set-up, one timed iteration, and its traced run."""

    def __init__(self, bench, seed):
        self.bench = bench
        self.seed = seed

    def prepare(self):
        """Benchmark-side inputs made once, before any set-up (untimed)."""

    def setup(self):
        """The program's own set-up after the model run (timed)."""

    def iteration(self, jobs):
        """One checked run; ``jobs`` overrides the worker threads of
        commands that take ``--jobs`` (None keeps the workload's own).
        Failed checks are listed in the result's ``problems``; it raises
        ``CheckFailed`` only when the run left no operations to count."""
        raise NotImplementedError

    def tracer_args(self):
        raise NotImplementedError

    def reconcile(self, it, traced):
        raise NotImplementedError

    def program_layer_metrics(self, it):
        return {}


class Sweep(Workload):
    """An exhaustive fault-space sweep through ``penny-eval``."""

    argv = None
    tracer = None
    pairs = 0

    def iteration(self, jobs):
        proc = run([self.bench.exe("penny-eval"), "--jobs", jobs or JOBS, *self.argv],
                   self.bench.work)
        return self.judge(proc)

    def judge(self, proc):
        expect_ok(proc, "penny-eval")
        reports = parse_reports(proc.out)
        if not reports:
            raise CheckFailed("penny-eval printed no reports")
        problems = problems_of(
            lambda: check_reports(reports, self.pairs),
            lambda: check_exhaustive(reports),
        )
        attempted, failed = sweep_ops(reports)
        return Iteration(proc, reports, report_text(proc.out), attempted, failed,
                         self.pairs, problems)

    def tracer_args(self):
        return self.tracer

    def reconcile(self, it, traced):
        if traced["rendered"] != it.signature:
            raise CheckFailed("traced reports differ from the program's")
        expected = {"forks": sum(r["forks"] for r in it.counters)}
        if all("snapshots" in r for r in it.counters):
            for key in ("snapshots", "pages_copied", "replayed_insts"):
                expected[key] = sum(r[key] for r in it.counters)
        reconcile_counts(traced, expected)


class ReplayExhaustive(Sweep):
    argv = ["conformance-exhaustive"]
    tracer = [
        "sweep", "--workloads", "MT,STC,FW,BS", "--schemes", "Penny",
        "--budget", "max", "--mode", "off", "--prewarm-figures",
    ]
    pairs = 4


class StaticExhaustive(Sweep):
    argv = [
        "--static-prune", "--workloads", "SGEMM", "--schemes", "BoltGlobal",
        "--budget", U64_MAX, "conformance",
    ]
    tracer = [
        "sweep", "--workloads", "SGEMM", "--schemes", "BoltGlobal",
        "--budget", "max", "--mode", "prune",
    ]
    pairs = 1


class FuzzGauntlet(Workload):
    """``penny-fuzz`` on kernels generated from the benchmark seed."""

    def iteration(self, jobs):
        proc = run(
            [self.bench.exe("penny-fuzz"), "--seed", self.seed, "--iters", FUZZ_ITERS],
            self.bench.work,
        )
        return self.judge(proc)

    def judge(self, proc):
        # penny-fuzz exits 1 when it finds a divergence and still prints
        # its report; count that run's operations like any other.
        if proc.rc not in (0, 1):
            expect_ok(proc, "penny-fuzz")
        counts = parse_fuzz(proc.out)
        problems = []
        if proc.rc != 0 or counts["divergences"]:
            problems.append(f"penny-fuzz exited with {proc.rc} after "
                            f"{counts['divergences']} divergences")
        if counts["generated"] != int(FUZZ_ITERS):
            problems.append(f"penny-fuzz generated {counts['generated']} of {FUZZ_ITERS} kernels")
        attempted, failed = fuzz_ops(counts)
        return Iteration(proc, counts, proc.out, attempted, failed, counts["generated"],
                         problems)

    def tracer_args(self):
        return ["fuzz", "--seed", str(self.seed), "--iters", FUZZ_ITERS]

    def reconcile(self, it, traced):
        reconcile_counts(traced, it.counters)

    def program_layer_metrics(self, it):
        return {"fuzz.divergences": it.counters["divergences"]}


class CampaignMatrix(Workload):
    """A warm ``penny-herd`` campaign over every registry workload."""

    pairs = len(REGISTRY.split(",")) * len(CAMPAIGN_SCHEMES.split(","))

    def matrix(self):
        return ["--workloads", REGISTRY, "--schemes", CAMPAIGN_SCHEMES,
                "--budget", CAMPAIGN_BUDGET]

    def herd(self, out_dir):
        return run(
            [self.bench.exe("penny-herd"), *self.matrix(),
             "--shards", CAMPAIGN_SHARDS, "--jobs", 1,
             "--recording-store", self.store, "--out", out_dir,
             "--check-against", self.reference],
            self.bench.work,
        )

    def prepare(self):
        """The unsharded reference report every merge must reproduce."""
        self.reference = self.bench.work / "reference.json"
        proc = run(
            [self.bench.exe("penny-eval"), "--jobs", JOBS, *self.matrix(),
             "--report-json", self.reference, "conformance"],
            self.bench.work,
        )
        expect_ok(proc, "penny-eval reference")
        self.reference_text = report_text(proc.out)
        check_reports(parse_reports(proc.out), self.pairs)

    def setup(self):
        """The cold campaign: fills a fresh recording store."""
        self.store = self.bench.dir("store")
        it = self.judge(self.herd(self.bench.dir("herd-cold")), None)
        if it.problems:
            raise CheckFailed("cold campaign: " + "; ".join(it.problems))

    def check_merge(self, proc):
        if "renders byte-identical" not in proc.err:
            raise CheckFailed("penny-herd did not confirm the reference merge")
        if proc.out != self.reference_text:
            raise CheckFailed("merged campaign differs from the unsharded reference")

    def judge(self, proc, out_dir):
        expect_ok(proc, "penny-herd")
        reports = parse_reports(proc.out)
        if not reports:
            raise CheckFailed("penny-herd printed no reports")
        merge = problems_of(lambda: self.check_merge(proc))
        problems = merge + problems_of(lambda: check_reports(reports, self.pairs))
        attempted, failed = herd_ops(reports, proc.err, CAMPAIGN_SHARDS)
        if merge:
            # A wrong merged report vouches for none of the run's sites.
            failed = attempted
        counters = {} if out_dir is None else self.counters(proc, out_dir)
        return Iteration(proc, counters, proc.out, attempted, failed, len(reports), problems)

    def iteration(self, jobs):
        out_dir = self.bench.dir("herd-warm")
        return self.judge(self.herd(out_dir), out_dir)

    def counters(self, proc, out_dir):
        """Exact work counters of a warm campaign."""
        counters = obs_cache_counts(out_dir)
        counters["shard_json_bytes"] = sum(
            p.stat().st_size for p in out_dir.glob("shard_*.json")
        )
        counters["store_files"] = len(list(self.store.glob("*.bin")))
        counters["store_bytes"] = sum(p.stat().st_size for p in self.store.glob("*.bin"))
        counters["shard_attempts"] = len(ATTEMPT.findall(proc.err))
        return counters

    def tracer_args(self):
        store = self.bench.dir("tracer-store")
        return ["campaign", *self.matrix(), "--shards", str(CAMPAIGN_SHARDS),
                "--store", str(store), "--reference", str(self.reference)]

    def reconcile(self, it, traced):
        if traced["rendered"] != it.proc.out:
            raise CheckFailed("traced merged campaign differs from penny-herd's")
        reconcile_counts(traced, {
            f"warm_store_{k}": it.counters.get(f"recording-store.{k}", 0)
            for k in ("hits", "misses", "stale")
        })

    def program_layer_metrics(self, it):
        return {
            "bench.herd.retries": it.counters["shard_attempts"] - CAMPAIGN_SHARDS,
            "cache.compile.hits": it.counters.get("compile-cache.hits", 0),
            "cache.compile.misses": it.counters.get("compile-cache.misses", 0),
        }


WORKLOADS = {
    "replay-exhaustive": ReplayExhaustive,
    "static-exhaustive": StaticExhaustive,
    "fuzz-gauntlet": FuzzGauntlet,
    "campaign-matrix": CampaignMatrix,
}


# -------------------------------------------------------------------- modes


class Tally:
    """Checked program runs: how many ran and how many failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, fn, *args):
        """Runs one checked step; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as e:
            self.failed += 1
            self.note(str(e))
            return None

    def ok(self, fn, *args):
        """Runs one checked step; returns whether it passed."""
        before = self.failed
        self.check(fn, *args)
        return self.failed == before

    def fail(self, message):
        """Counts a failed check made outside a step."""
        self.attempted += 1
        self.failed += 1
        self.note(message)

    def flag(self, it):
        """Counts the step that produced ``it`` as failed if any of its
        checks failed."""
        if it.problems:
            self.failed += 1
            for message in it.problems:
                self.note(message)

    def note(self, message):
        self.errors.append(message)
        print(f"perfbench: check failed: {message}", file=sys.stderr)


def model_run(bench, rep):
    """``penny-eval bench-json``: the Figure 9 model whose Penny geomean
    is ``sim_slowdown_penny``. Returns the value as printed (all six
    decimals)."""
    d = bench.dir(f"model-{rep}")
    proc = run([bench.exe("penny-eval"), "--jobs", JOBS, "bench-json"], d)
    expect_ok(proc, "penny-eval bench-json")
    m = re.search(r'"gmean_penny":\s*([0-9.]+)', (d / "BENCH_eval.json").read_text())
    if not m:
        raise CheckFailed("BENCH_eval.json has no gmean_penny")
    return m.group(1)


def untraced(w, tally, seconds, deadline):
    if not tally.ok(w.prepare):
        return None
    setups, slowdowns = [], []
    while len(setups) < SETUP_MIN_REPS or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPS
    ):
        start = time.perf_counter()
        slowdown = tally.check(model_run, w.bench, len(setups))
        tally.check(w.setup)
        setups.append(time.perf_counter() - start)
        slowdowns.append(slowdown)
    if len(set(slowdowns)) != 1 or slowdowns[0] is None:
        tally.fail(f"modelled slowdown does not repeat: {sorted(set(map(str, slowdowns)))}")
        return None

    iters, lost = [], 0
    start = time.perf_counter()
    while True:
        it = tally.check(w.iteration, None)
        if it is None:
            lost = 1
            break
        tally.flag(it)
        iters.append(it)
        elapsed = time.perf_counter() - start
        if (it.problems or elapsed + it.proc.wall > seconds
                or time.monotonic() + it.proc.wall > deadline):
            break
    if not iters:
        return None
    first = iters[0]
    if any(i.counters != first.counters or i.signature != first.signature for i in iters):
        tally.fail("work counters or outputs differ between runs")
    walls = [round(i.proc.wall, 4) for i in iters]
    print(f"perfbench: {len(setups)} set-ups; timed runs (s) {walls}; "
          f"counters {json.dumps(first.counters)}")
    return {
        "wall_s": statistics.median([i.proc.wall for i in iters]),
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median([i.attempted / i.proc.wall for i in iters]),
        "kernels_per_s": statistics.median([i.kernels / i.proc.wall for i in iters]),
        "peak_rss_mb": statistics.median([i.proc.rss_kb / 1024 for i in iters]),
        "ok_share": ok_share(iters, lost),
        "sim_slowdown_penny": float(slowdowns[0]),
    }


def run_tracer(w):
    proc = run([w.bench.exe("perfbench-tracer"), *w.tracer_args()], w.bench.work)
    expect_ok(proc, "perfbench-tracer")
    return json.loads(proc.out.strip().splitlines()[-1])


def traced(w, tally):
    if not (tally.ok(w.prepare) and tally.ok(w.setup)):
        return None
    it = tally.check(w.iteration, 1)
    if it is not None:
        tally.flag(it)
    result = it and tally.check(run_tracer, w)
    if result is None:
        return None
    tally.check(reconcile_layers, result)
    tally.check(w.reconcile, it, result)
    metrics = {k: result["metrics"][k] for k in TRACER_METRICS}
    metrics.update({"fuzz.divergences": 0, "bench.herd.retries": 0})
    metrics.update(w.program_layer_metrics(it))
    for layer in LAYERS:
        metrics[f"self.{layer}.ms"] = result["layers_ns"][layer] / 1e6
    metrics["unattributed.ms"] = result["layers_ns"]["unattributed"] / 1e6
    metrics["trace.wall_ms"] = result["wall_ns"] / 1e6
    metrics["trace.timed_ms"] = result["timed_ns"] / 1e6
    metrics["trace.untraced_ms"] = it.proc.wall * 1e3
    metrics["trace.overhead_ms"] = metrics["trace.timed_ms"] - metrics["trace.untraced_ms"]
    print(f"perfbench: traced {result['spans']} spans; counts {json.dumps(result['counts'])}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        print("perfbench: run from the root of a full checkout (no Cargo.toml here)",
              file=sys.stderr)
        return 2
    bench = Bench(root, a.workload)
    bench.build()
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[a.workload](bench, a.seed)
        tally = Tally()
        if a.trace:
            metrics = traced(w, tally)
            units = PER_LAYER
        else:
            metrics = untraced(w, tally, a.seconds, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if metrics is None:
        print("perfbench: no complete run; " + "; ".join(tally.errors), file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
