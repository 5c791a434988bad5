"""Columnar fleet state: one :class:`SessionTable` instead of N dicts.

The scheduler's source of truth for session lifecycle and trajectories
is a structure-of-arrays table — the move
:class:`~repro.backend.plan.EvalPlan` makes for per-config pricing,
applied to the fleet itself (exemplar: habitat-lab's ``batched_env.py``
vectorized stepping). Every column has one writer:

- the coordinator's table owns lifecycle (phase, start/end/attach
  ticks) and edge decisions (serving node, migrations, fallback
  reason);
- each shard worker's table owns its rows' measurements, warm-start
  report fields and lock-in period, written by
  :class:`~repro.fleet.session.FleetSession` (which also moves its
  worker row's phase);
- whether a session's next proposal is guided, and over which space
  dimension, is read off its live optimizer and has no column.

So:

- the scheduler selects due / active / retiring sessions with column
  masks instead of Python attribute scans;
- fleet aggregates, convergence, and reports come from column math
  (:func:`repro.fleet.telemetry.aggregates_from_columns`), not from
  re-walking per-session Python lists;
- a shard worker's measurement and warm columns merge back into the
  coordinator's table through the worker's global-row array (the fleet
  deals rows out by stride), which is what makes the sharded run's
  output byte-identical to ``shards=1``.

Numeric columns are written from the measured floats themselves, at the
point in the lifecycle they happen, never recomputed through a different
formula.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FleetError
from repro.fleet.telemetry import (
    FleetSessionReport,
    aggregates_from_columns,
    convergence_from_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import HBOConfig
    from repro.fleet.session import SessionSpec
    from repro.fleet.telemetry import FleetAggregates

#: Integer phase codes backing :class:`~repro.fleet.session.SessionPhase`.
PHASE_WAITING, PHASE_ACTIVE, PHASE_DONE = 0, 1, 2


class SessionTable:
    """Structure-of-arrays state for ``n`` fleet sessions.

    Lifecycle, edge and trajectory columns live here; heavyweight
    per-session objects (system, optimizer, RNG stream) stay on the
    :class:`~repro.fleet.session.FleetSession` objects. Each tick's
    pricing plan is built from those live devices, not from columns
    (see :func:`repro.fleet.scheduler.batched_steady`).
    """

    def __init__(
        self, specs: Sequence["SessionSpec"], hbo: "HBOConfig"
    ) -> None:
        specs = tuple(specs)
        if not specs:
            raise FleetError("a session table needs at least one spec")
        n = len(specs)
        self.n = n
        self.specs = specs
        self.session_ids: Tuple[str, ...] = tuple(s.session_id for s in specs)

        # ------------------------------------------------------ static spec
        self.arrival_s = np.array([s.arrival_s for s in specs], dtype=np.float64)
        self.budget = np.array(
            [
                s.n_evaluations
                if s.n_evaluations is not None
                else hbo.total_evaluations
                for s in specs
            ],
            dtype=np.int64,
        )
        self.max_budget = int(self.budget.max())
        # Cohort codes in first-seen spec order, for vectorized
        # per-cohort best-cost reduction.
        self.cohort_keys: List[Tuple[str, str, str]] = []
        codes: Dict[Tuple[str, str, str], int] = {}
        cohort = np.empty(n, dtype=np.int64)
        for i, s in enumerate(specs):
            key = (s.device, s.scenario, s.taskset)
            if key not in codes:
                codes[key] = len(self.cohort_keys)
                self.cohort_keys.append(key)
            cohort[i] = codes[key]
        self.cohort_code = cohort

        # ------------------------------------------------------- lifecycle
        self.phase = np.full(n, PHASE_WAITING, dtype=np.int64)
        self.start_tick = np.full(n, -1, dtype=np.int64)
        self.end_tick = np.full(n, -1, dtype=np.int64)
        self.n_results = np.zeros(n, dtype=np.int64)
        self.n_warm = np.zeros(n, dtype=np.int64)
        self.warm_started = np.zeros(n, dtype=bool)
        self.migrations = np.zeros(n, dtype=np.int64)
        self.attached_tick = np.full(n, -1, dtype=np.int64)
        self.best_cost = np.full(n, np.inf, dtype=np.float64)
        #: 1-based period of the verify a session locked in at; 0 while
        #: it runs BO (never locked, or unlocked by a later event).
        self.locked_at = np.zeros(n, dtype=np.int64)
        # String state (small, cold): plain Python lists indexed by row.
        self.warm_source: List[str] = [""] * n
        self.edge_node: List[str] = [""] * n
        self.fallback_reason: List[str] = [""] * n

        # ---------------------------------------------------- trajectories
        shape = (n, self.max_budget)
        self.costs = np.full(shape, np.nan, dtype=np.float64)
        self.latencies_ms = np.full(shape, np.nan, dtype=np.float64)
        self.qualities = np.full(shape, np.nan, dtype=np.float64)
        self.epsilons = np.full(shape, np.nan, dtype=np.float64)

    # ------------------------------------------------------------ masks

    def due_indices(self, now_s: float) -> np.ndarray:
        """Rows WAITING whose arrival time has passed, in spec order."""
        return np.nonzero(
            (self.phase == PHASE_WAITING) & (self.arrival_s <= now_s)
        )[0]

    def active_indices(self) -> np.ndarray:
        return np.nonzero(self.phase == PHASE_ACTIVE)[0]

    def exhausted_indices(self) -> np.ndarray:
        """Active rows whose evaluation budget is spent (retire this tick)."""
        return np.nonzero(
            (self.phase == PHASE_ACTIVE) & (self.n_results >= self.budget)
        )[0]

    def all_done(self) -> bool:
        return bool(np.all(self.phase == PHASE_DONE))

    # ------------------------------------------------------- row lifecycle

    def record_result(
        self,
        i: int,
        cost: float,
        latency_ms: float,
        quality: float,
        epsilon: float,
    ) -> None:
        """Append one control period's measurements to row ``i``.

        A locked row's measure-only repeats of one configuration do not
        compete for its best cost: they would win on noise alone.
        """
        n = int(self.n_results[i])
        if n >= self.max_budget:
            raise FleetError(
                f"{self.session_ids[i]}: trajectory overflow at {n} results"
            )
        self.costs[i, n] = cost
        self.latencies_ms[i, n] = latency_ms
        self.qualities[i, n] = quality
        self.epsilons[i, n] = epsilon
        if cost < self.best_cost[i] and not self.locked_at[i]:
            self.best_cost[i] = cost
        self.n_results[i] = n + 1

    # ------------------------------------------------------------ reporting

    def cohort_best(self) -> np.ndarray:
        """Per-row best cost over the row's (device, scenario, taskset)
        cohort — the shared convergence target."""
        if np.any(self.n_results < 1):
            missing = [
                self.session_ids[i]
                for i in np.nonzero(self.n_results < 1)[0]
            ]
            raise FleetError(f"sessions with no evaluations: {missing}")
        per_cohort = np.full(len(self.cohort_keys), np.inf, dtype=np.float64)
        np.minimum.at(per_cohort, self.cohort_code, self.best_cost)
        return per_cohort[self.cohort_code]

    def converged_at(self) -> np.ndarray:
        """Vectorized time-to-cohort-target per row (1-based, censored).

        A locked row is judged on its periods up to the verify: its
        final configuration was settled there."""
        return convergence_from_columns(
            self.costs,
            np.where(self.locked_at > 0, self.locked_at, self.n_results),
            self.cohort_best(),
        )

    def aggregates(self) -> "FleetAggregates":
        return aggregates_from_columns(
            latencies_ms=self.latencies_ms,
            qualities=self.qualities,
            epsilons=self.epsilons,
            lengths=self.n_results,
            best_cost=self.best_cost,
            warm_started=self.warm_started,
            converged_at=self.converged_at(),
        )

    def histogram(self) -> Dict[int, int]:
        values, counts = np.unique(self.converged_at(), return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def build_reports(
        self, placement_outcomes: Sequence[Optional[object]]
    ) -> Tuple[FleetSessionReport, ...]:
        """Per-session reports assembled from columns (all rows DONE).

        ``placement_outcomes[i]`` is the row's
        :class:`~repro.edge.placement.PlacementOutcome` or ``None``; it
        only feeds the ``placed_node`` string, matching the legacy
        per-session report path field for field.
        """
        if not self.all_done():
            raise FleetError("cannot report a fleet that has not drained")
        targets = self.cohort_best()
        converged = self.converged_at()
        reports = []
        for i, spec in enumerate(self.specs):
            n = int(self.n_results[i])
            outcome = placement_outcomes[i]
            reports.append(
                FleetSessionReport(
                    session_id=spec.session_id,
                    device=spec.device,
                    scenario=spec.scenario,
                    taskset=spec.taskset,
                    arrival_s=spec.arrival_s,
                    start_tick=int(self.start_tick[i]),
                    end_tick=int(self.end_tick[i]),
                    warm_started=bool(self.warm_started[i]),
                    n_warm=int(self.n_warm[i]),
                    warm_source=self.warm_source[i],
                    costs=tuple(float(c) for c in self.costs[i, :n]),
                    latencies_ms=tuple(
                        float(v) for v in self.latencies_ms[i, :n]
                    ),
                    qualities=tuple(float(q) for q in self.qualities[i, :n]),
                    best_cost=float(self.best_cost[i]),
                    cohort_best_cost=float(targets[i]),
                    converged_at=int(converged[i]),
                    epsilons=tuple(float(e) for e in self.epsilons[i, :n]),
                    placed_node=(
                        (getattr(outcome, "node", None) or "")
                        if outcome is not None
                        else ""
                    ),
                    edge_node=self.edge_node[i],
                    fallback_reason=self.fallback_reason[i],
                    migrations=int(self.migrations[i]),
                    locked_in=bool(self.locked_at[i]),
                )
            )
        return tuple(reports)

    # ------------------------------------------------------------- sharding

    def absorb(self, rows: np.ndarray, payload: Dict[str, np.ndarray]) -> None:
        """Merge a shard worker's rows back: its local row ``j`` is
        global row ``rows[j]``.

        ``payload`` carries the worker-owned columns (measurements,
        warm-start report fields and lock-in period); the coordinator's
        own lifecycle and edge columns are left alone.
        """
        width = payload["costs"].shape[1]
        self.costs[rows, :width] = payload["costs"]
        self.latencies_ms[rows, :width] = payload["latencies_ms"]
        self.qualities[rows, :width] = payload["qualities"]
        self.epsilons[rows, :width] = payload["epsilons"]
        self.n_results[rows] = payload["n_results"]
        self.best_cost[rows] = payload["best_cost"]
        self.n_warm[rows] = payload["n_warm"]
        self.warm_started[rows] = payload["warm_started"]
        self.locked_at[rows] = payload["locked_at"]
        for row, source in zip(rows.tolist(), payload["warm_source"]):
            self.warm_source[row] = source

    def shard_payload(self) -> Dict[str, np.ndarray]:
        """The worker-owned columns :meth:`absorb` consumes."""
        return {
            "costs": self.costs,
            "latencies_ms": self.latencies_ms,
            "qualities": self.qualities,
            "epsilons": self.epsilons,
            "n_results": self.n_results,
            "best_cost": self.best_cost,
            "n_warm": self.n_warm,
            "warm_started": self.warm_started,
            "locked_at": self.locked_at,
            "warm_source": list(self.warm_source),
        }
