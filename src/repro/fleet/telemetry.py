"""Fleet telemetry: per-session trajectories and fleet-wide aggregates.

The warm-vs-cold experiment needs two read-outs per session — the cost
trajectory (did BO find a good configuration?) and the number of control
periods it took to get close to its eventual best (how fast?) — plus
fleet-level percentiles of the latencies and qualities users actually
experienced while the optimizers explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FleetError

#: Absolute floor of the convergence band: HBO cost measurements carry
#: noise of roughly this magnitude (per-period means of noisy latencies
#: through the w-weighted cost), so a tighter band would measure lucky
#: noise draws instead of convergence.
CONVERGENCE_FLOOR = 0.2


def iterations_to_converge(
    costs: Sequence[float],
    rel_tol: float = 0.05,
    floor: float = CONVERGENCE_FLOOR,
    target: Optional[float] = None,
) -> int:
    """Control periods until the measured cost first came within
    ``rel_tol`` of ``target`` (1-based; the time-to-target metric).

    ``target`` defaults to the trajectory's own best; the fleet passes the
    best cost any session of the same cohort ever measured, so warm and
    cold sessions chase the *same* bar. The band is ``target +
    max(rel_tol * |target|, floor)``; a trajectory that never enters it
    is censored at its own length.
    """
    if not costs:
        raise FleetError("cannot compute convergence of an empty trajectory")
    if rel_tol < 0:
        raise FleetError(f"rel_tol must be >= 0, got {rel_tol}")
    bar = min(costs) if target is None else float(target)
    threshold = bar + max(rel_tol * abs(bar), floor)
    for i, cost in enumerate(costs):
        if cost <= threshold:
            return i + 1
    return len(costs)


@dataclass(frozen=True)
class FleetSessionReport:
    """Everything the fleet remembers about one finished session."""

    session_id: str
    device: str
    scenario: str
    taskset: str
    arrival_s: float
    start_tick: int
    end_tick: int
    warm_started: bool
    n_warm: int
    warm_source: str  # donor session id, "" when cold
    costs: Tuple[float, ...]
    latencies_ms: Tuple[float, ...]  # mean frame latency per control period
    qualities: Tuple[float, ...]
    best_cost: float
    cohort_best_cost: float  # best cost any same-cohort session measured
    converged_at: int  # time-to-cohort-target, see iterations_to_converge
    #: Eq. 4 normalized latency per control period (the bench's p95 ε
    #: input); empty only for reports predating the epsilon trajectory.
    epsilons: Tuple[float, ...] = ()
    #: Topology node chosen at admission ("" = rejected or no topology).
    placed_node: str = ""
    #: Node serving the session through its final period ("" = device).
    edge_node: str = ""
    #: Why the session fell back to device-only mid-run ("" if never):
    #: "shed" (saturated server) or "outage" (server went down).
    fallback_reason: str = ""
    #: Number of mid-run server migrations.
    migrations: int = 0
    #: True when the session finished locked onto a stored solution it
    #: verified on its first period (no BO after the verify).
    locked_in: bool = False

    def __post_init__(self) -> None:
        if not self.costs:
            raise FleetError(f"{self.session_id}: report has no evaluations")
        if len(self.latencies_ms) != len(self.costs) or len(self.qualities) != len(
            self.costs
        ):
            raise FleetError(
                f"{self.session_id}: trajectory lengths disagree "
                f"({len(self.costs)} costs, {len(self.latencies_ms)} latencies, "
                f"{len(self.qualities)} qualities)"
            )
        if self.epsilons and len(self.epsilons) != len(self.costs):
            raise FleetError(
                f"{self.session_id}: epsilon trajectory length disagrees "
                f"({len(self.costs)} costs, {len(self.epsilons)} epsilons)"
            )


@dataclass(frozen=True)
class FleetAggregates:
    """Fleet-wide summary over every control period of every session."""

    n_sessions: int
    n_evaluations: int
    p50_latency_ms: float
    p95_latency_ms: float
    p50_quality: float
    p95_quality: float
    mean_best_cost: float
    median_converged_warm: Optional[float]  # None when no warm sessions
    median_converged_cold: Optional[float]  # None when no cold sessions
    #: Pooled p95 of Eq. 4 normalized latency across every control period
    #: (None when reports carry no epsilon trajectories). This is the
    #: admission-control bench's headline number: shedding work off a
    #: saturated server should cut the worst-case ε tail.
    p95_epsilon: Optional[float] = None


def fleet_aggregates(reports: Sequence[FleetSessionReport]) -> FleetAggregates:
    """Pool every session's per-period measurements into fleet percentiles
    and split median convergence by warm/cold start."""
    if not reports:
        raise FleetError("cannot aggregate an empty fleet")
    latencies = np.concatenate([np.asarray(r.latencies_ms) for r in reports])
    qualities = np.concatenate([np.asarray(r.qualities) for r in reports])
    warm = [r.converged_at for r in reports if r.warm_started]
    cold = [r.converged_at for r in reports if not r.warm_started]
    epsilon_rows = [np.asarray(r.epsilons) for r in reports if r.epsilons]
    p95_epsilon = (
        float(np.percentile(np.concatenate(epsilon_rows), 95))
        if epsilon_rows
        else None
    )
    return FleetAggregates(
        n_sessions=len(reports),
        n_evaluations=int(latencies.shape[0]),
        p50_latency_ms=float(np.percentile(latencies, 50)),
        p95_latency_ms=float(np.percentile(latencies, 95)),
        p50_quality=float(np.percentile(qualities, 50)),
        p95_quality=float(np.percentile(qualities, 95)),
        mean_best_cost=float(np.mean([r.best_cost for r in reports])),
        median_converged_warm=float(np.median(warm)) if warm else None,
        median_converged_cold=float(np.median(cold)) if cold else None,
        p95_epsilon=p95_epsilon,
    )


def convergence_from_columns(
    costs: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray,
    rel_tol: float = 0.05,
    floor: float = CONVERGENCE_FLOOR,
) -> np.ndarray:
    """Vectorized :func:`iterations_to_converge` over trajectory columns.

    ``costs`` is the fleet's ``(n, max_budget)`` trajectory matrix,
    ``lengths`` the valid prefix per row, ``targets`` the per-row cohort
    bar. Value-identical to calling the scalar helper per row (same
    threshold arithmetic, same first-hit / censoring semantics).
    """
    costs = np.asarray(costs, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    if np.any(lengths < 1):
        raise FleetError("cannot compute convergence of an empty trajectory")
    if rel_tol < 0:
        raise FleetError(f"rel_tol must be >= 0, got {rel_tol}")
    thresholds = targets + np.maximum(rel_tol * np.abs(targets), floor)
    valid = np.arange(costs.shape[1])[None, :] < lengths[:, None]
    with np.errstate(invalid="ignore"):  # padding slots may be NaN
        within = valid & (costs <= thresholds[:, None])
    hit = within.any(axis=1)
    first = np.argmax(within, axis=1) + 1
    return np.where(hit, first, lengths)


def aggregates_from_columns(
    latencies_ms: np.ndarray,
    qualities: np.ndarray,
    epsilons: np.ndarray,
    lengths: np.ndarray,
    best_cost: np.ndarray,
    warm_started: np.ndarray,
    converged_at: np.ndarray,
) -> FleetAggregates:
    """:func:`fleet_aggregates` computed from trajectory columns.

    The boolean prefix mask flattens row-major — session order, then
    period order — which is exactly the concatenation order of the
    per-report path, so every percentile sees the same values in the
    same positions and the outputs are bit-identical (asserted in the
    test suite).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n_sessions = int(lengths.shape[0])
    if n_sessions == 0:
        raise FleetError("cannot aggregate an empty fleet")
    valid = np.arange(latencies_ms.shape[1])[None, :] < lengths[:, None]
    latencies = latencies_ms[valid]
    pooled_qualities = qualities[valid]
    pooled_epsilons = epsilons[valid]
    warm_started = np.asarray(warm_started, dtype=bool)
    warm = converged_at[warm_started]
    cold = converged_at[~warm_started]
    return FleetAggregates(
        n_sessions=n_sessions,
        n_evaluations=int(latencies.shape[0]),
        p50_latency_ms=float(np.percentile(latencies, 50)),
        p95_latency_ms=float(np.percentile(latencies, 95)),
        p50_quality=float(np.percentile(pooled_qualities, 50)),
        p95_quality=float(np.percentile(pooled_qualities, 95)),
        mean_best_cost=float(np.mean(np.asarray(best_cost, dtype=np.float64))),
        median_converged_warm=float(np.median(warm)) if warm.size else None,
        median_converged_cold=float(np.median(cold)) if cold.size else None,
        p95_epsilon=(
            float(np.percentile(pooled_epsilons, 95))
            if pooled_epsilons.size
            else None
        ),
    )


def convergence_histogram(
    reports: Sequence[FleetSessionReport],
) -> Dict[int, int]:
    """How many sessions converged after exactly k control periods."""
    histogram: Dict[int, int] = {}
    for report in reports:
        histogram[report.converged_at] = histogram.get(report.converged_at, 0) + 1
    return dict(sorted(histogram.items()))
