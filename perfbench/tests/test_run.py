"""Tests of the benchmark's statistics, output checks and reconciliation.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import spread  # noqa: E402

EXHAUSTIVE = """\
== Conformance exhaustive sweep (full fault spaces, shard 0/1) ==
MT     Penny              total      5246208  covered 5246208  skipped            0  recovered 5246208  failures   0
       classes: never-fires 194304  invisible 3936768  corrected 0  simulated 1115136 (spliced 1115136)
       work: 8192 forks over 5246208 covered sites  [0.98s, 5331051 sites/s]
BS     Penny              total      5470080  covered 5470080  skipped            0  recovered 5470080  failures   0
       classes: never-fires 147840  invisible 4743552  corrected 0  simulated 578688 (spliced 578688)
       work: 5504 forks over 5470080 covered sites  [0.48s, 11350658 sites/s]
"""

PRUNED = """\
== Conformance deep sweep (budget 18446744073709551615, shard 0/1, static-prune) ==
SGEMM  Bolt/Global        total    576761856  covered 1148928  skipped            0  recovered 1148928  failures   0
       classes: never-fires 1148928  invisible 0  corrected 0  simulated 0 (spliced 0)
       pruned-static 575612928 (dead 258424320  overwritten 266779392  covered 50409216)
       work: 0 forks, 52 snapshots, 0 pages copied, 0 insts replayed (4614094848 cold)  [15.57s, 73797 sites/s]
"""

FUZZ = """\
penny-fuzz report
seed 1  iters 200
generated 200  lint-clean 200  compiles 1000 (skips 414)
differential runs 1358  conformance sites 1488  static claims 1292
divergences 0
"""


class Statistics(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        self.assertEqual(spread.quartile_spread(values), (q1, med, q3, (q3 - q1) / med))

    def test_quartile_spread_of_constant_values_is_zero(self):
        self.assertEqual(spread.quartile_spread([1.028044] * 10)[3], 0.0)

    def test_failed_share(self):
        self.assertEqual(run.failed_share(1000, 414), 0.414)
        self.assertEqual(run.failed_share(5, 0), 0.0)
        with self.assertRaises(ValueError):
            run.failed_share(0, 0)


class Parsing(unittest.TestCase):
    def test_exhaustive_reports_parse_and_check(self):
        reports = run.parse_reports(EXHAUSTIVE)
        self.assertEqual([r["pair"] for r in reports], ["MT/Penny", "BS/Penny"])
        self.assertEqual(reports[0]["forks"], 8192)
        self.assertEqual(reports[1]["simulated"], 578688)
        run.check_reports(reports, 2)
        run.check_exhaustive(reports)
        self.assertEqual(run.sweep_ops(reports), (5246208 + 5470080, 0))

    def test_pruned_report_counts_pruned_sites_as_answered(self):
        (r,) = run.parse_reports(PRUNED)
        self.assertEqual(r["pruned"], 575612928)
        self.assertEqual((r["forks"], r["snapshots"]), (0, 52))
        run.check_exhaustive([r])

    def test_report_text_drops_banners_and_timed_work_lines(self):
        text = run.report_text(PRUNED)
        self.assertNotIn("work:", text)
        self.assertNotIn("==", text)
        self.assertEqual(len(text.splitlines()), 3)

    def test_checks_reject_failures_skips_and_missing_reports(self):
        reports = run.parse_reports(EXHAUSTIVE.replace("recovered 5470080", "recovered 5470079"))
        with self.assertRaises(run.CheckFailed):
            run.check_reports(reports, 2)
        self.assertEqual(run.sweep_ops(reports)[1], 1)
        with self.assertRaises(run.CheckFailed):
            run.check_reports(run.parse_reports(EXHAUSTIVE), 4)
        skipped = EXHAUSTIVE.replace("skipped            0", "skipped            7", 1)
        with self.assertRaises(run.CheckFailed):
            run.check_exhaustive(run.parse_reports(skipped))

    def test_fuzz_report_and_operations(self):
        counts = run.parse_fuzz(FUZZ)
        self.assertEqual(counts["compile_skips"], 414)
        attempted, failed = run.fuzz_ops(counts)
        self.assertEqual(run.failed_share(attempted, failed), 0.414)
        counts["divergences"] = 2
        self.assertEqual(run.fuzz_ops(counts), (1000, 416))
        with self.assertRaises(run.CheckFailed):
            run.parse_fuzz("penny-fuzz report\n")

    def test_herd_retries_count_as_failed_attempts(self):
        reports = run.parse_reports(EXHAUSTIVE)
        clean = "shard 0/2 attempt 1 started\nshard 1/2 attempt 1 started\n"
        sites = 5246208 + 5470080
        self.assertEqual(run.herd_ops(reports, clean, 2), (2 + sites, 0))
        retried = clean + "shard 1/2 attempt 2 started\n"
        self.assertEqual(run.herd_ops(reports, retried, 2), (3 + sites, 1))

    def test_obs_cache_counts_sum_over_shards(self):
        span = {"v": 1, "kind": "cache", "subject": "recording-store", "label": "stats",
                "wall_ns": 0, "counters": {"hits": 100, "misses": 0, "load_ns": 7}}
        other = {"v": 1, "kind": "site", "subject": "MT", "label": "x", "wall_ns": 1,
                 "counters": {"hits": 5}}
        with tempfile.TemporaryDirectory() as d:
            for i in range(2):
                lines = [json.dumps(span), json.dumps(other)]
                Path(d, f"shard_{i}.obs.jsonl").write_text("\n".join(lines) + "\n")
            counts = run.obs_cache_counts(d)
        self.assertEqual(counts, {"recording-store.hits": 200, "recording-store.misses": 0})


def proc(out, rc=0, err=""):
    return run.Proc(rc, out, err, 1.0, 1024)


class OkShare(unittest.TestCase):
    """A run that fails a check still counts its operations."""

    def sweep(self, pairs=2):
        w = run.ReplayExhaustive(None, 1)
        w.pairs = pairs
        return w

    def test_clean_runs_give_one(self):
        it = self.sweep().judge(proc(EXHAUSTIVE))
        self.assertEqual(it.problems, [])
        self.assertEqual(run.ok_share([it, it]), 1.0)

    def test_one_unrecovered_site_lowers_ok_share(self):
        out = EXHAUSTIVE.replace("recovered 5470080", "recovered 5470079")
        it = self.sweep().judge(proc(out))
        self.assertTrue(it.problems)
        self.assertEqual(it.failed, 1)
        self.assertLess(run.ok_share([it]), 1.0)

    def test_missing_reports_are_a_problem_not_a_crash(self):
        it = self.sweep(pairs=4).judge(proc(EXHAUSTIVE))
        self.assertTrue(it.problems)

    def test_run_without_output_raises(self):
        with self.assertRaises(run.CheckFailed):
            self.sweep().judge(proc("", rc=101))
        with self.assertRaises(run.CheckFailed):
            self.sweep().judge(proc("nothing\n"))

    def test_diverging_fuzz_run_counts_its_attempts(self):
        w = run.FuzzGauntlet(None, 1)
        it = w.judge(proc(FUZZ.replace("divergences 0", "divergences 3"), rc=1))
        self.assertTrue(it.problems)
        self.assertEqual((it.attempted, it.failed), (1000, 417))
        self.assertAlmostEqual(run.ok_share([it]), 0.583)
        with self.assertRaises(run.CheckFailed):
            w.judge(proc(FUZZ, rc=101))

    def test_wrong_campaign_merge_fails_every_operation(self):
        w = run.CampaignMatrix(None, 1)
        w.pairs = 2
        w.reference_text = run.report_text(EXHAUSTIVE)
        err = ("shard 0/2 attempt 1 started\nshard 1/2 attempt 1 started\n"
               "penny-herd: merged campaign renders byte-identical to reference.json\n")
        good = w.judge(proc(w.reference_text, err=err), None)
        self.assertEqual((good.problems, good.failed), ([], 0))
        bad = w.judge(proc(w.reference_text.replace("147840", "147841"), err=err), None)
        self.assertTrue(bad.problems)
        self.assertEqual(bad.failed, bad.attempted)
        self.assertEqual(run.ok_share([good, bad]), 0.5)

    def test_runs_that_differ_or_are_lost_fail_whole(self):
        it = self.sweep().judge(proc(EXHAUSTIVE))
        other = self.sweep().judge(proc(EXHAUSTIVE.replace("8192 forks", "8193 forks")))
        self.assertEqual(other.problems, [])
        self.assertEqual(run.ok_share([it, other]), 0.5)
        self.assertEqual(run.ok_share([it], lost_runs=1), 0.5)

    def test_tally_flags_a_run_that_failed_a_check(self):
        tally = run.Tally()
        out = EXHAUSTIVE.replace("recovered 5470080", "recovered 5470079")
        it = tally.check(self.sweep().judge, proc(out))
        tally.flag(it)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))


class Reconciliation(unittest.TestCase):
    def traced(self, layers, wall, counts=None):
        return {"layers_ns": layers, "wall_ns": wall, "counts": counts or {}}

    def test_layers_must_sum_to_traced_wall(self):
        run.reconcile_layers(self.traced({"core": 3, "sim": 5, "unattributed": 2}, 10))
        with self.assertRaises(run.CheckFailed):
            run.reconcile_layers(self.traced({"core": 3, "sim": 5, "unattributed": 1}, 10))

    def test_counts_must_match_exactly(self):
        traced = self.traced({}, 0, {"forks": 62819, "snapshots": 107})
        run.reconcile_counts(traced, {"forks": 62819})
        with self.assertRaises(run.CheckFailed):
            run.reconcile_counts(traced, {"forks": 62818})
        with self.assertRaises(run.CheckFailed):
            run.reconcile_counts(traced, {"pages_copied": 0})

    def test_sweep_reconciles_rendered_reports_and_work_counters(self):
        out = EXHAUSTIVE
        it = run.Iteration(None, run.parse_reports(out), run.report_text(out), 0, 0, 0)
        w = run.ReplayExhaustive(None, 1)
        traced = {"rendered": run.report_text(out), "counts": {"forks": 8192 + 5504}}
        w.reconcile(it, traced)
        traced["counts"]["forks"] += 1
        with self.assertRaises(run.CheckFailed):
            w.reconcile(it, traced)
        traced = {"rendered": run.report_text(out).replace("147840", "147841"),
                  "counts": {"forks": 8192 + 5504}}
        with self.assertRaises(run.CheckFailed):
            w.reconcile(it, traced)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())

    def test_metric_names_and_units_match_the_benchmark(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))

    def test_bounds_and_setup_metric(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
