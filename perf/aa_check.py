"""A/A check: measure the same code as side A and side B and compare.

    python3 perf/aa_check.py [--seed N]

Runs the whole benchmark ``RUNS`` times per side, alternating sides, and
prints, per ``<workload>/<metric>``, each side's median, their relative
difference and the metric's bound from ``BENCHMARK.json``; exits non-zero
if any pair differs by more than its bound.  Identical code that
disagrees by more than the bound means the bound (or the estimator) is
too tight for this machine -- fix that before refereeing any change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Runs per side.  This host has slow stretches of up to a minute that
#: take a whole run 25 % off; a median of three survives one of them.
RUNS = 3


def run_once(seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    arguments = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    sides: tuple[list, list] = ([], [])
    for turn in range(2 * RUNS):
        sides[turn % 2].append(run_once(arguments.seed, seconds))

    def median(side: list, workload: str, metric: str) -> float:
        return statistics.median(run[workload]["metrics"][metric]["value"] for run in side)

    print(f"{'workload/metric':34s} {'side A':>12s} {'side B':>12s} {'diff':>8s} {'bound':>6s}")
    outside = 0
    for workload, result in sides[0][0].items():
        for metric in result["metrics"]:
            a, b = median(sides[0], workload, metric), median(sides[1], workload, metric)
            difference = abs(a - b) / min(a, b)
            verdict = "" if difference <= bounds[metric] else "  OUTSIDE"
            outside += bool(verdict)
            print(
                f"{workload + '/' + metric:34s} {a:12.5g} {b:12.5g} "
                f"{difference:8.1%} {bounds[metric]:6.0%}{verdict}"
            )
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
