"""Fleet serving benches: throughput and warm-vs-cold convergence.

The fleet layer's headline claim is that cross-session warm starting
gets late arrivals to the cohort's best cost in strictly fewer control
periods than cold starts. It is pinned here, alongside a sessions/second
throughput figure for the default 8-session mixed fleet.
"""

import numpy as np
from conftest import BENCH_SEED, run_once

from repro.core.controller import HBOConfig
from repro.experiments.fleet import run_fleet_experiment
from repro.experiments.report import format_kv


def test_fleet_throughput(benchmark):
    """Sessions/second for an 8-session mixed fleet (small budget)."""
    config = HBOConfig(n_initial=3, n_iterations=5)
    n_sessions = 8

    experiment = run_once(
        benchmark,
        run_fleet_experiment,
        seed=BENCH_SEED,
        config=config,
        n_sessions=n_sessions,
    )
    result = experiment.result
    n_periods = result.aggregates.n_evaluations
    benchmark.extra_info["sessions"] = n_sessions
    benchmark.extra_info["control_periods"] = n_periods
    rows = [["sessions", n_sessions], ["control periods", n_periods]]
    # Under --benchmark-disable nothing is timed and there is no rate.
    if benchmark.stats is not None:
        elapsed_s = benchmark.stats.stats.mean
        benchmark.extra_info["sessions_per_s"] = n_sessions / elapsed_s
        benchmark.extra_info["periods_per_s"] = n_periods / elapsed_s
        rows += [
            ["sessions / s", n_sessions / elapsed_s],
            ["control periods / s", n_periods / elapsed_s],
        ]
    rows.append(["batched GP passes", result.service_stats["batches"]])
    print("\n" + format_kv("Fleet throughput", rows))
    # Every session drained its full budget and produced a usable best.
    assert all(len(r.costs) == config.total_evaluations for r in result.reports)
    assert all(np.isfinite(r.best_cost) for r in result.reports)


def test_warm_vs_cold_convergence(benchmark):
    """The headline fleet claim: warm-started sessions reach the cohort's
    best cost in strictly fewer median control periods than cold ones."""
    experiment = run_once(
        benchmark, run_fleet_experiment, seed=BENCH_SEED, n_sessions=16
    )
    warm = experiment.median_converged_warm
    cold = experiment.median_converged_cold
    assert warm is not None and cold is not None
    stats = experiment.result.store_stats
    print(
        "\n"
        + format_kv(
            "Warm vs cold convergence (16 sessions, paper budget)",
            [
                ["median periods to cohort best (cold)", cold],
                ["median periods to cohort best (warm)", warm],
                ["speed-up (cold/warm)", cold / warm],
                ["store hit rate", stats["hit_rate"]],
                ["observations transferred", stats["transfers"]],
            ],
        )
    )
    benchmark.extra_info["median_converged_cold"] = cold
    benchmark.extra_info["median_converged_warm"] = warm
    assert warm < cold
