"""Fleet experiment: cold vs warm convergence under shared serving.

Beyond the paper: an edge server rarely tunes one device in isolation —
it serves a *fleet*. This driver runs a mixed fleet (Pixel 7 / Galaxy
S22, SC1-CF1 / SC2-CF2) against one shared optimizer service with the
cross-session warm-start store enabled. The first arrival of each
(device, scenario) cohort optimizes cold and donates its observations;
later arrivals of the same cohort warm-start from the donation. The
report compares the median number of control periods cold vs warm
sessions needed to come within 5% of their eventual best cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.controller import HBOConfig
from repro.edge.topology import EdgeTopologyConfig
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_kv, format_series, format_table
from repro.fleet.scheduler import FleetConfig, FleetResult, run_fleet
from repro.fleet.store import SharedConfigStore
from repro.rng import derive_seed
from repro.scenarios.generator import default_fleet_specs

__all__ = [
    "FleetExperimentResult",
    "render",
    "run_fleet_experiment",
]


@dataclass(frozen=True)
class FleetExperimentResult:
    """The fleet run plus the store it populated."""

    result: FleetResult
    store: SharedConfigStore
    n_sessions: int

    @property
    def median_converged_warm(self) -> Optional[float]:
        return self.result.aggregates.median_converged_warm

    @property
    def median_converged_cold(self) -> Optional[float]:
        return self.result.aggregates.median_converged_cold


def run_fleet_experiment(
    seed: int = DEFAULT_SEED,
    config: Optional[HBOConfig] = None,
    n_sessions: int = 16,
    warm_start: bool = True,
    store: Optional[SharedConfigStore] = None,
    topology: Optional[EdgeTopologyConfig] = None,
    placement: str = "price-aware",
    shards: int = 1,
) -> FleetExperimentResult:
    """Run the mixed fleet; pass ``warm_start=False`` for an all-cold
    control run (every session ignores the store on admission), or an
    :class:`~repro.edge.topology.EdgeTopologyConfig` to route sessions
    through an edge topology under ``placement`` (``EdgeTopologyConfig.
    single()`` is one shared server all sessions contend on). ``shards > 1``
    steps the fleet in parallel worker processes with byte-identical
    output (see :mod:`repro.fleet.shard`)."""
    cfg = config if config is not None else HBOConfig()
    specs = default_fleet_specs(n_sessions, cfg, seed=seed)
    fleet_config = FleetConfig(
        hbo=cfg,
        warm_start=warm_start,
        topology=topology,
        placement=placement,
        shards=shards,
    )
    fleet_store = store if store is not None else SharedConfigStore()
    result = run_fleet(
        specs,
        seed=derive_seed(seed, "fleet"),
        config=fleet_config,
        store=fleet_store,
    )
    return FleetExperimentResult(
        result=result, store=fleet_store, n_sessions=n_sessions
    )


def render(experiment: FleetExperimentResult) -> str:
    """Human-readable fleet report (per-session table + aggregates)."""
    result = experiment.result
    aggregates = result.aggregates
    blocks = [
        format_kv(
            f"Fleet — {aggregates.n_sessions} sessions, "
            f"{result.ticks} ticks of {result.tick_s:g} s",
            [
                ["control periods run", aggregates.n_evaluations],
                ["p50 frame latency (ms)", aggregates.p50_latency_ms],
                ["p95 frame latency (ms)", aggregates.p95_latency_ms],
                ["p50 quality", aggregates.p50_quality],
                ["p95 quality", aggregates.p95_quality],
                ["mean best cost", aggregates.mean_best_cost],
                ["store hit rate", result.store_stats["hit_rate"]],
                ["store transfer rate", result.store_stats["transfer_rate"]],
                ["sessions locked in", sum(r.locked_in for r in result.reports)],
                ["batched GP passes", result.service_stats["batches"]],
                ["proposals served", result.service_stats["proposals_served"]],
            ],
        )
    ]
    rows = [
        [
            report.session_id,
            report.device,
            f"{report.scenario}-{report.taskset}",
            report.arrival_s,
            "warm" if report.warm_started else "cold",
            report.warm_source if report.warm_source else "-",
            report.converged_at,
            report.best_cost,
        ]
        for report in result.reports
    ]
    blocks.append(
        format_table(
            ["session", "device", "workload", "arrival s", "start", "donor",
             "conv@", "best cost"],
            rows,
            title="Per-session outcomes",
        )
    )
    topology = result.topology_stats
    if topology is not None:
        placements = ", ".join(
            f"{node}={count}" for node, count in topology["placements"].items()
        )
        loads = ", ".join(
            f"{node}={load:.2f}"
            for node, load in topology["final_utilization"].items()
        )
        topology_rows = [
            ["nodes", topology["n_nodes"]],
            ["placement policy", topology["placement_policy"]],
            ["placements", placements],
            ["admission rejections", topology["rejections"]],
            ["shed fallbacks", topology["sheds"]],
            ["outage fallbacks", topology["outage_fallbacks"]],
            ["migrations", topology["migrations"]],
            ["final utilization", loads],
        ]
        if aggregates.p95_epsilon is not None:
            topology_rows.append(["p95 epsilon", aggregates.p95_epsilon])
        blocks.append(format_kv("Edge topology", topology_rows))
    warm = experiment.median_converged_warm
    cold = experiment.median_converged_cold
    convergence = [
        ["median periods to cohort best (cold)", cold if cold is not None else "n/a"],
        ["median periods to cohort best (warm)", warm if warm is not None else "n/a"],
    ]
    if warm is not None and cold is not None:
        convergence.append(
            ["warm speed-up (cold/warm)", cold / warm if warm else float("inf")]
        )
    blocks.append(format_kv("Cold vs warm convergence", convergence))
    histogram = [
        [f"{periods} period(s)", count] for periods, count in result.histogram.items()
    ]
    blocks.append(format_kv("Convergence histogram", histogram))
    example_warm = next((r for r in result.reports if r.warm_started), None)
    example_cold = next((r for r in result.reports if not r.warm_started), None)
    series = []
    if example_cold is not None:
        series.append(format_series(f"cold {example_cold.session_id}",
                                    list(example_cold.costs)))
    if example_warm is not None:
        series.append(format_series(f"warm {example_warm.session_id}",
                                    list(example_warm.costs)))
    if series:
        blocks.append("Example cost trajectories\n" + "\n".join(series))
    return "\n\n".join(blocks)


if __name__ == "__main__":
    print(render(run_fleet_experiment()))
