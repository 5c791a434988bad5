"""Run compiled scenarios and export byte-stable artifacts.

The runner is the thin layer between the catalog and the fleet: it
compiles a spec, hands the result to
:func:`repro.fleet.scheduler.run_fleet`, and renders/export the outcome
deterministically. ``export_json`` is the byte-comparison surface —
``make replay-check`` runs one scenario twice at a fixed seed and
byte-compares the two exports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.core.controller import HBOConfig
from repro.fleet.scheduler import FleetResult, run_fleet
from repro.scenarios.catalog import (
    CompiledScenario,
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    with_serving_mode,
)
from repro.scenarios.generator import DEFAULT_SEED


@dataclass(frozen=True)
class ScenarioRun:
    """One executed scenario: what was compiled plus what happened."""

    compiled: CompiledScenario
    result: FleetResult


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    seed: int = DEFAULT_SEED,
    hbo: Optional[HBOConfig] = None,
    n_sessions: Optional[int] = None,
    mode: Optional[str] = None,
) -> ScenarioRun:
    """Compile and execute one scenario (by catalog name or spec).

    ``mode`` re-serves the scenario through
    :func:`~repro.scenarios.catalog.with_serving_mode`; ``hbo`` and
    ``n_sessions`` shrink budgets/populations for sweeps and smokes.
    Deterministic end to end: same arguments, same
    :class:`~repro.fleet.scheduler.FleetResult` bytes.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if mode is not None:
        spec = with_serving_mode(spec, mode)
    compiled = compile_scenario(spec, seed, hbo=hbo, n_sessions=n_sessions)
    result = run_fleet(
        compiled.session_specs,
        seed=compiled.fleet_seed,
        config=compiled.fleet_config,
    )
    return ScenarioRun(compiled=compiled, result=result)


def export_run(run: ScenarioRun) -> Dict[str, Any]:
    """JSON-able summary of a run — the replay-comparison artifact.

    Everything in here is derived deterministically from the run; two
    runs of the same ``(scenario, seed)`` serialize to identical bytes
    via :func:`export_json`.
    """
    agg = run.result.aggregates
    return {
        "scenario": run.compiled.spec.name,
        "seed": run.compiled.seed,
        "fleet_seed": run.compiled.fleet_seed,
        "serving_mode": run.compiled.spec.serving.mode,
        "n_sessions": len(run.compiled.session_specs),
        "ticks": run.result.ticks,
        "tick_s": run.result.tick_s,
        "arrivals_s": list(run.compiled.arrival_schedule),
        "sessions": [
            {
                "session_id": r.session_id,
                "device": r.device,
                "scenario": r.scenario,
                "taskset": r.taskset,
                "arrival_s": r.arrival_s,
                "warm_started": r.warm_started,
                "warm_source": r.warm_source,
                "best_cost": r.best_cost,
                "converged_at": r.converged_at,
                "n_periods": len(r.costs),
                "placed_node": r.placed_node,
                "edge_node": r.edge_node,
                "fallback_reason": r.fallback_reason,
                "migrations": r.migrations,
                "locked_in": r.locked_in,
            }
            for r in run.result.reports
        ],
        "aggregates": {
            "n_evaluations": agg.n_evaluations,
            "p50_latency_ms": agg.p50_latency_ms,
            "p95_latency_ms": agg.p95_latency_ms,
            "p50_quality": agg.p50_quality,
            "p95_quality": agg.p95_quality,
            "mean_best_cost": agg.mean_best_cost,
            "median_converged_warm": agg.median_converged_warm,
            "median_converged_cold": agg.median_converged_cold,
            "p95_epsilon": agg.p95_epsilon,
        },
    }


def export_json(run: ScenarioRun) -> str:
    """Canonical JSON text of :func:`export_run` (sorted keys, 2-space
    indent, trailing newline) — the byte-comparison form."""
    return json.dumps(export_run(run), sort_keys=True, indent=2) + "\n"


def render_run(run: ScenarioRun) -> str:
    """Human-readable report for ``repro scenario run``."""
    spec = run.compiled.spec
    agg = run.result.aggregates
    lines = [
        f"scenario {spec.name} (seed {run.compiled.seed}, "
        f"serving {spec.serving.mode}, "
        f"{len(run.compiled.session_specs)} sessions, "
        f"{run.result.ticks} ticks)",
        f"  {spec.description}",
        "",
        f"{'session':<28} {'device':<20} {'arr_s':>7} {'warm':>5} "
        f"{'best':>8} {'conv':>5} {'node':>8}",
    ]
    for r in run.result.reports:
        warm = "yes" if r.warm_started else "no"
        node = r.edge_node if r.edge_node else "device"
        lines.append(
            f"{r.session_id:<28} {r.device:<20} {r.arrival_s:>7.2f} "
            f"{warm:>5} {r.best_cost:>8.4f} {r.converged_at:>5d} {node:>8}"
        )
    lines.append("")
    lines.append(
        f"fleet p50/p95 latency {agg.p50_latency_ms:.2f}/"
        f"{agg.p95_latency_ms:.2f} ms, mean best cost "
        f"{agg.mean_best_cost:.4f}"
    )
    if agg.p95_epsilon is not None:
        lines.append(f"fleet p95 epsilon {agg.p95_epsilon:.4f}")
    warm_txt = (
        f"{agg.median_converged_warm:.1f}"
        if agg.median_converged_warm is not None
        else "n/a"
    )
    cold_txt = (
        f"{agg.median_converged_cold:.1f}"
        if agg.median_converged_cold is not None
        else "n/a"
    )
    lines.append(
        f"median periods-to-target warm {warm_txt}, cold {cold_txt}"
    )
    return "\n".join(lines) + "\n"
