"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload fleet-256 --seed 7 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (same seed, same
inputs, same simulated outcome bytes). The run repeats the workload —
a fresh set-up each time, timed apart — until ``--seconds`` of timed
work have passed (at least three times), checks every execution's
output, and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` count sessions (activations on ``tune-grid``).

``--trace 0`` reports the end-to-end metrics. Only a per-tick timer is
attached.

``--trace 1`` reports the per-layer metrics: half the time runs
untraced, half with every layer's entry point wrapped (see
``layers.py``); the difference in session-steps/s is the tracing
overhead. Layer times are per execution of the workload.

A human-readable summary goes to standard error. Exit status: 0 when
every check passed, 1 when a check failed, 2 when the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import os

# One BLAS thread per process. The GP matrices are at most a few dozen
# rows, where a second BLAS thread only spins; on the sharded workload the
# coordinator and two workers already fill two cores, and spinning BLAS
# threads on top of them turn tick times into scheduler noise. Must be
# set before NumPy is imported; forked shard workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("fleet-256", "tune-grid", "surge-sharded")
#: Set-ups per run at least, so set-up time is a median of several.
MIN_REPS = 3
#: Fresh interpreters whose start-up and imports are timed; the median
#: is the import part of ``setup_s``.
IMPORT_REPS = 3
#: Tail percentiles tried, highest first; the tail is the highest one
#: with at least TAIL_MIN_BEYOND ticks of one execution beyond it.
TAIL_LADDER = (99, 98, 95, 80, 50)
TAIL_MIN_BEYOND = 10
#: Largest share of the traced wall the wrappers may leave uncovered.
#: The layers' self times add up to the covered time by construction, so
#: this is what says the layer list still accounts for the run: a new
#: code path outside every wrapped entry point shows up here first.
#: Measured: at most 7% at full size, 16% on the tiny ``tune-grid``,
#: where each activation's fixed cost outside the layers weighs most.
MAX_UNATTRIBUTED_SHARE = 0.25


@dataclass
class Pass:
    """Repeated executions of one workload at one seed."""

    setups_s: List[float] = field(default_factory=list)
    walls_s: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    ticks_s: List[List[float]] = field(default_factory=list)
    outcomes: List[Any] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def run_pass(
    workload: Any,
    seconds: float,
    min_reps: int,
    ticks: Optional[List[float]] = None,
    around: Optional[Callable[[Callable[[], Any]], Any]] = None,
) -> Pass:
    """Set up and execute ``workload`` until ``seconds`` of timed
    execution (and ``min_reps`` executions) have passed.

    ``ticks`` is the tick timer's list, sliced per execution; ``around``
    wraps the timed call (the traced pass starts and stops recording).
    """
    result = Pass()
    clock = time.perf_counter
    while sum(result.walls_s) < seconds or len(result.walls_s) < min_reps:
        try:
            start = clock()
            ready = workload.setup()
            setup_s = clock() - start
            first_tick = len(ticks) if ticks is not None else 0
            start = clock()
            raw = (
                around(lambda: workload.execute(ready))
                if around is not None
                else workload.execute(ready)
            )
            wall = clock() - start
            outcome = workload.outcome(ready, raw)
        except Exception:  # a crashed execution fails every session in it
            traceback.print_exc()
            result.attempted += workload.n_sessions
            result.failed += workload.n_sessions
            result.problems.append(f"{workload.name}: execution raised")
            return result
        result.setups_s.append(setup_s)
        result.walls_s.append(wall)
        result.rates.append(outcome.steps / wall)
        if ticks is not None:
            result.ticks_s.append(ticks[first_tick:])
        result.outcomes.append(outcome)
        result.attempted += outcome.sessions
        result.failed += outcome.failed
        result.problems.extend(outcome.problems)
    hashes = {outcome.export_sha256 for outcome in result.outcomes}
    if len(hashes) > 1:
        result.problems.append(
            f"{workload.name}: one seed gave {len(hashes)} different exports"
        )
    return result


def execution_wall(walls_s: List[float], ticks_s: List[List[float]], shards: int) -> float:
    """The wall time that stands for the run's executions.

    Every execution at one seed does the same work tick for tick. On a
    shared host other tenants slow the CPU in bursts much shorter than an
    execution (CPU time stays at 99% of wall time, so it is not
    preemption). In one process, the fastest time seen for tick *i* over
    the executions — and for the time spent outside ticks — is that
    tick's time without the bursts, and the wall is built from those
    minima. A sharded tick instead ends when the last worker answers, and
    its fastest case is a lucky hand-off between processes, so there the
    wall is the median execution wall. Measured on 2 vCPUs, as the spread
    of steps/s over groups of executions taken minutes apart: in one
    process, 2–4% from per-tick minima against 6–11% from the median wall;
    at two shards, 10% from the median wall against 22% from per-tick
    minima.
    """
    if len({len(ticks) for ticks in ticks_s}) != 1:
        raise ValueError("executions at one seed ran different tick counts")
    if shards > 1:
        return statistics.median(walls_s)
    ticks = [min(column) for column in zip(*ticks_s)]
    rest = min(w - sum(t) for w, t in zip(walls_s, ticks_s))
    return sum(ticks) + rest


def import_seconds() -> float:
    """Median over IMPORT_REPS fresh interpreters of the time from
    process start to the benchmark's imports done, so that the import part
    of ``setup_s`` is a median of several, like the set-up part."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import layers, workloads"
    times = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(ticks: List[float]) -> tuple:
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least TAIL_MIN_BEYOND ticks beyond it."""
    pct = next(
        (p for p in TAIL_LADDER if len(ticks) * (100 - p) / 100 >= TAIL_MIN_BEYOND),
        TAIL_LADDER[-1],
    )
    return pct, statistics.quantiles(ticks, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: Any, seconds: float, import_s: float, layers: Any) -> Dict[str, Any]:
    timer = layers.TickTimer()
    memory = layers.WorkerPeakMemory()
    timer.install()
    memory.install()
    try:
        measured = run_pass(workload, seconds, MIN_REPS, ticks=timer.ticks_s)
    finally:
        timer.uninstall()
        memory.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + memory.peak_kb
    report = finish(workload, measured)
    if not measured.outcomes:
        return report
    wall = execution_wall(measured.walls_s, measured.ticks_s, workload.shards)
    tails = [tail(ticks) for ticks in measured.ticks_s]
    n_ticks = len(measured.ticks_s[0])
    first = measured.outcomes[0]
    report["metrics"] = {
        "setup_s": import_s + statistics.median(measured.setups_s),
        "steps_per_s": first.steps / wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "mean_quality": first.mean_quality,
    }
    report["summary"] = (
        f"{workload.name}: {len(measured.walls_s)} executions of {n_ticks} ticks; "
        f"median over executions of the tick time: p50 "
        f"{1e3 * statistics.median(statistics.median(t) for t in measured.ticks_s):.3f} ms, "
        f"p{tails[0][0]} {1e3 * statistics.median(t for _, t in tails):.3f} ms; p95 epsilon "
        f"{first.p95_epsilon:.6f}, mean best cost {first.mean_best_cost:.6f}; "
        f"export sha256 {first.export_sha256[:16]}\n"
        f"  steps/s per execution: {', '.join(f'{r:.1f}' for r in measured.rates)}"
    )
    return report


def traced(workload: Any, seconds: float, layers: Any, declared: List[str]) -> Dict[str, Any]:
    untraced = run_pass(workload, seconds / 2.0, 1)
    clock = layers.LayerClock()
    totals: Dict[str, Any] = {"self_s": {}, "counts": {}, "covered_s": 0.0, "workers": []}

    def recorded(execute: Callable[[], Any]) -> Any:
        clock.reset()
        clock.recording = True
        try:
            return execute()
        finally:
            clock.recording = False
            for key in ("self_s", "counts"):
                for name, value in getattr(clock, key).items():
                    totals[key][name] = totals[key].get(name, 0.0) + value
            totals["covered_s"] += clock.covered_s
            totals["workers"].append(clock.workers)

    clock.install()
    try:
        traced_pass = run_pass(workload, seconds / 2.0, 1, around=recorded)
    finally:
        clock.uninstall()
    report = finish(workload, untraced, traced_pass)
    if not (untraced.outcomes and traced_pass.outcomes):
        return report

    n = len(traced_pass.walls_s)
    self_s = {k: v / n for k, v in totals["self_s"].items()}
    counts = {k: v / n for k, v in totals["counts"].items()}
    workers = _mean_workers(totals["workers"])
    wall = sum(traced_pass.walls_s) / n
    unattributed = wall - totals["covered_s"] / n
    if unattributed > MAX_UNATTRIBUTED_SHARE * wall:
        report["problems"].append(
            f"wrappers leave {unattributed / wall:.1%} of the traced wall "
            f"unattributed (limit {MAX_UNATTRIBUTED_SHARE:.0%})"
        )
    if min(self_s.values(), default=0.0) < 0:
        report["problems"].append("a layer has negative self time")
    report["correct"] = report["correct"] and not report["problems"]
    untraced_rate = statistics.median(untraced.rates)
    traced_rate = statistics.median(traced_pass.rates)
    metrics = layers.layer_metrics(self_s, counts, workers, declared)
    metrics.update(
        traced_wall_s=wall,
        unattributed_s=unattributed,
        untraced_steps_per_s=untraced_rate,
        traced_steps_per_s=traced_rate,
        tracing_overhead_steps_per_s=traced_rate - untraced_rate,
    )
    report["metrics"] = metrics
    lines = [f"{workload.name}: traced wall {wall:.3f} s per execution, {n} executions"]
    lines += [
        f"  {layer:<24} {share:7.2%}" for layer, share in layers.layer_shares(self_s, unattributed)
    ]
    for k, worker in enumerate(workers):
        lines.append(f"  shard worker {k}:")
        busy = sum(worker["self_s"].values())
        lines += [
            f"    {layer:<22} {seconds_:8.3f} s {seconds_ / busy:7.2%}"
            for layer, seconds_ in sorted(worker["self_s"].items(), key=lambda kv: -kv[1])
        ]
    lines.append(
        f"  tracing overhead: {traced_rate - untraced_rate:+.1f} steps/s "
        f"({traced_rate:.1f} traced vs {untraced_rate:.1f} untraced)"
    )
    report["summary"] = "\n".join(lines)
    return report


def _mean_workers(per_execution: List[List[Dict[str, Dict[str, float]]]]) -> List[Dict[str, Dict[str, float]]]:
    """Average each shard's worker totals over the executions."""
    if not per_execution or not per_execution[0]:
        return []
    n = len(per_execution)
    merged: List[Dict[str, Dict[str, float]]] = []
    for k in range(len(per_execution[0])):
        shard: Dict[str, Dict[str, float]] = {"self_s": {}, "counts": {}}
        for execution in per_execution:
            for key in ("self_s", "counts"):
                for name, value in execution[k][key].items():
                    shard[key][name] = shard[key].get(name, 0.0) + value / n
        merged.append(shard)
    return merged


def finish(workload: Any, *passes: Pass) -> Dict[str, Any]:
    """Correctness roll-up over the passes plus the untimed once-per-seed
    check; metrics are filled in by the caller."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [problem for p in passes for problem in p.problems]
    hashes = {o.export_sha256 for p in passes for o in p.outcomes}
    if len(hashes) > 1:
        problems.append(f"{workload.name}: passes disagree on the export")
    if all(p.outcomes for p in passes):
        try:
            sessions, more = workload.check_once()
        except Exception:
            traceback.print_exc()
            sessions, more = workload.n_sessions, [f"{workload.name}: check raised"]
            failed += sessions
        attempted += sessions
        problems.extend(more)
    return {
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
        "problems": problems,
        "summary": "",
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke version of the workload")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    from workloads import WORKLOADS

    # BENCHMARK.json is the one list of metric names and units.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    workload = WORKLOADS[args.workload](args.seed, args.size)
    # One untimed tiny execution first, so lazy imports and first-call
    # caches are warm before anything is timed.
    warm = WORKLOADS[args.workload](args.seed, "tiny")
    warm.outcome(ready := warm.setup(), warm.execute(ready))
    if args.trace:
        report = traced(workload, args.seconds, layers, list(units))
    else:
        report = end_to_end(workload, args.seconds, import_seconds(), layers)
    if report["summary"]:
        print(report["summary"], file=sys.stderr)
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = report["metrics"]
    if set(metrics) != set(units):
        report["correct"] = False
        print("CHECK FAILED: metrics missing from the run", file=sys.stderr)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
