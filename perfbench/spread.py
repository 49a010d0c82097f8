#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload fuzz-gauntlet --seeds 1,2,3,4,5

Each run measures for ``run_seconds`` of ``BENCHMARK.json``, with tracing off.

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median. A benchmark is steady
when every end-to-end spread is below a third of the metric's bound in
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartile_spread(values):
    """(q1, median, q3, spread) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    a = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in a.seeds.split(","):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", seed,
             "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last.startswith("{"):
            sys.exit(f"spread: seed {seed} failed with exit code {done.returncode}")
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3, spread = quartile_spread(vs)
        bound = bounds.get(k)
        verdict = "" if bound is None else f"  bound {bound} ({spread / bound:.2f} of it)"
        print(f"{k:32s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}{verdict}")


if __name__ == "__main__":
    main()
