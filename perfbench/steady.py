"""Steadiness check: run one workload at K seeds and summarise the spread.

Usage, from the root of a repository checkout::

    python3 perfbench/steady.py --workload fleet-256 --runs 10

Runs ``perfbench/run.py`` once per seed (1, 2, ..., K), one run at a
time, at ``--trace 0`` and ``run_seconds`` from ``BENCHMARK.json``, and
prints for each end-to-end metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread — the quartile
distance as a share of the median — next to the metric's regression
bound. A metric is ``steady`` when its spread is below a third of its
bound, ``loose`` below the bound, and ``UNSTEADY`` otherwise
(``setup_s`` is exempt: it is judged by its median only). Exit status 1
if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: run.py printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values: Dict[str, List[float]] = {}
    all_correct = True
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        result = run_once(args.workload, seed, seconds)
        all_correct &= bool(result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
        shown = " ".join(f"{n}={s[-1]:.5g}" for n, s in values.items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    print(f"\n{args.workload}, seeds {FIRST_SEED}-{FIRST_SEED + args.runs - 1}, "
          f"{seconds} s each")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds[name]
        if name == "setup_s":
            verdict = ""
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "loose"
        else:
            verdict = "UNSTEADY"
        print(f"{name:<16} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} "
              f"{bound:6.2f} {verdict}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
