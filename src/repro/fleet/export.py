"""JSON export of fleet runs.

The fleet serializers live with the fleet rather than in
:mod:`repro.sim.export`: ``repro.sim`` sits below ``repro.fleet`` in the
layer DAG (RL006), so even a ``TYPE_CHECKING`` import of the fleet
result types from there would be an upward dependency.

The schema is shard-agnostic: a ``shards > 1`` run feeds the exact same
`FleetResult` through here and serializes byte-identically to
``shards=1`` — no extra keys, no shard provenance. Sharding is a
stepping strategy, not an output format (see :mod:`repro.fleet.shard`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.scheduler import FleetResult
    from repro.fleet.telemetry import FleetSessionReport
    from repro.obs.metrics import MetricsRegistry

__all__ = ["fleet_report_to_dict", "fleet_result_to_dict"]


def fleet_report_to_dict(report: "FleetSessionReport") -> Dict[str, Any]:
    """Serialize one session's fleet report."""
    return {
        "session_id": report.session_id,
        "device": report.device,
        "scenario": report.scenario,
        "taskset": report.taskset,
        "arrival_s": report.arrival_s,
        "start_tick": report.start_tick,
        "end_tick": report.end_tick,
        "warm_started": report.warm_started,
        "n_warm": report.n_warm,
        "warm_source": report.warm_source,
        "costs": [float(c) for c in report.costs],
        "latencies_ms": [float(v) for v in report.latencies_ms],
        "qualities": [float(v) for v in report.qualities],
        "best_cost": report.best_cost,
        "cohort_best_cost": report.cohort_best_cost,
        "converged_at": report.converged_at,
        "epsilons": [float(v) for v in report.epsilons],
        "placed_node": report.placed_node,
        "edge_node": report.edge_node,
        "fallback_reason": report.fallback_reason,
        "migrations": report.migrations,
    }


def fleet_result_to_dict(
    result: "FleetResult", metrics: "Optional[MetricsRegistry]" = None
) -> Dict[str, Any]:
    """Serialize a whole fleet run (sessions, aggregates, store/service
    counters). The determinism tests compare two runs through this
    function, so every value here must be reproducible from the seed.

    Pass the run's :class:`~repro.obs.metrics.MetricsRegistry` to embed
    its snapshot under a ``"metrics"`` key (snapshots contain sim-derived
    values only, so they are as reproducible as the rest of the export).
    """
    aggregates = result.aggregates
    exported: Dict[str, Any] = {
        "tick_s": result.tick_s,
        "ticks": result.ticks,
        "sessions": [fleet_report_to_dict(r) for r in result.reports],
        "aggregates": {
            "n_sessions": aggregates.n_sessions,
            "n_evaluations": aggregates.n_evaluations,
            "p50_latency_ms": aggregates.p50_latency_ms,
            "p95_latency_ms": aggregates.p95_latency_ms,
            "p50_quality": aggregates.p50_quality,
            "p95_quality": aggregates.p95_quality,
            "mean_best_cost": aggregates.mean_best_cost,
            "median_converged_warm": aggregates.median_converged_warm,
            "median_converged_cold": aggregates.median_converged_cold,
            "p95_epsilon": aggregates.p95_epsilon,
        },
        "histogram": {str(k): v for k, v in result.histogram.items()},
        "store": result.store_stats,
        "service": result.service_stats,
    }
    if result.topology_stats is not None:
        exported["topology"] = result.topology_stats
    if metrics is not None:
        exported["metrics"] = metrics.snapshot()
    return exported
