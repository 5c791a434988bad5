"""Columnar fleet state: one :class:`SessionTable` instead of N dicts.

The scheduler's source of truth for session lifecycle, trajectories, and
per-tick pricing inputs is a structure-of-arrays table — the same move
PR 4's :class:`~repro.backend.plan.EvalPlan` made for per-config
pricing, applied to the fleet itself (exemplar: habitat-lab's
``batched_env.py`` vectorized stepping). :class:`~repro.fleet.session.
FleetSession` stays the per-session API, but its lifecycle scalars are
row views into this table, so:

- the scheduler selects due / active / guided / retiring sessions with
  column masks instead of Python attribute scans;
- each tick's steady-state :class:`~repro.backend.plan.EvalPlan` is
  sliced straight out of preassembled columns (no per-session
  ``TaskPlacement`` dataclass hop);
- fleet aggregates, convergence, and reports come from column math
  (:func:`repro.fleet.telemetry.aggregates_from_columns`), not from
  re-walking per-session Python lists;
- a shard worker's sub-table merges back into the coordinator's table
  by contiguous row block, which is what makes the sharded run's output
  byte-identical to ``shards=1``.

Numeric column values are bit-identical to what the per-session objects
held: they are written from the same floats at the same points in the
lifecycle, never recomputed through a different formula.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.plan import (
    KIND_EDGE,
    KIND_PAD,
    EvalPlan,
    resource_kind,
)
from repro.device.resources import Processor, Resource
from repro.edge.share import edge_compute_ms, edge_demand, edge_tx_ms
from repro.errors import FleetError
from repro.fleet.telemetry import (
    FleetSessionReport,
    aggregates_from_columns,
    convergence_from_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import HBOConfig
    from repro.device.executor import DeviceSimulator
    from repro.fleet.session import SessionSpec
    from repro.fleet.telemetry import FleetAggregates

#: Integer phase codes backing :class:`~repro.fleet.session.SessionPhase`.
PHASE_WAITING, PHASE_ACTIVE, PHASE_DONE = 0, 1, 2

#: Number of non-EDGE resource kinds tabulated in ``iso_by_kind``
#: (KIND_CPU / KIND_GPU / KIND_NNAPI index its last axis directly).
_N_DEVICE_KINDS = 3


class SessionTable:
    """Structure-of-arrays state for ``n`` fleet sessions.

    Lifecycle, trajectory, and plan-input columns live here; heavyweight
    per-session objects (system, optimizer, RNG stream) stay on the
    :class:`~repro.fleet.session.FleetSession` row views.
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
        self.n_initial = int(hbo.n_initial)

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
        #: Observation count of the session's *current* optimizer — reset
        #: to zero on device fallback, exactly like the rebuilt optimizer.
        self.obs_count = np.zeros(n, dtype=np.int64)
        self.space_dim = np.zeros(n, dtype=np.int64)
        self.n_warm = np.zeros(n, dtype=np.int64)
        self.warm_started = np.zeros(n, dtype=bool)
        self.migrations = np.zeros(n, dtype=np.int64)
        self.attached_tick = np.full(n, -1, dtype=np.int64)
        self.best_cost = np.full(n, np.inf, dtype=np.float64)
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

        # ---------------------------------------------------- plan columns
        # Task-slot axis grows to the widest admitted session.
        self.m_slots = 0
        self.n_tasks = np.zeros(n, dtype=np.int64)
        self.task_ids: List[Tuple[str, ...]] = [()] * n
        self.task_iso = np.zeros((n, 0), dtype=np.float64)
        self.task_kind = np.full((n, 0), KIND_PAD, dtype=np.int64)
        self.task_cpu_demand = np.zeros((n, 0), dtype=np.float64)
        self.task_gpu_demand = np.zeros((n, 0), dtype=np.float64)
        self.task_npu_coverage = np.zeros((n, 0), dtype=np.float64)
        #: Static isolation latency per (slot, non-EDGE kind); EDGE slots
        #: are priced per tick through :func:`edge_compute_ms`.
        self.iso_by_kind = np.zeros((n, 0, _N_DEVICE_KINDS), dtype=np.float64)
        self.static_edge_demand = np.zeros((n, 0), dtype=np.float64)
        self.task_edge_tx = np.zeros((n, 0), dtype=np.float64)
        self.task_edge_demand = np.zeros((n, 0), dtype=np.float64)
        self._profiles: List[Tuple] = [()] * n
        self.has_edge = np.zeros(n, dtype=bool)
        self.n_objects = np.zeros(n, dtype=np.float64)
        self.submitted_triangles = np.zeros(n, dtype=np.float64)
        self.rendered_triangles = np.zeros(n, dtype=np.float64)
        self.base_gpu_streams = np.zeros(n, dtype=np.float64)
        self.soc_capacity = np.zeros((n, 3), dtype=np.float64)
        self.soc_queue_exponent = np.zeros((n, 3), dtype=np.float64)
        self.soc_scalars = {
            name: np.zeros(n, dtype=np.float64)
            for name in (
                "nnapi_comm_ms",
                "nnapi_comm_gpu_factor",
                "gpu_render_saturation",
                "gpu_render_exponent",
                "gpu_render_rho_max",
                "cpu_objects_per_stream",
                "cpu_triangles_per_stream",
                "gpu_objects_per_stream",
                "gpu_triangles_per_stream",
            )
        }
        # Matching from_placement_rows' defaults for edge-block scalars.
        self.edge_capacity = np.ones(n, dtype=np.float64)
        self.edge_queue_exponent = np.ones(n, dtype=np.float64)
        self.edge_extern = np.zeros(n, dtype=np.float64)

    # ------------------------------------------------------------ masks

    def due_indices(self, now_s: float) -> np.ndarray:
        """Rows WAITING whose arrival time has passed, in spec order."""
        return np.nonzero(
            (self.phase == PHASE_WAITING) & (self.arrival_s <= now_s)
        )[0]

    def active_indices(self) -> np.ndarray:
        return np.nonzero(self.phase == PHASE_ACTIVE)[0]

    def guided_mask(self) -> np.ndarray:
        """Active rows past their optimizer's random-initialization phase.

        Mirrors ``BayesianOptimizer.in_initial_phase`` (``n_observations <
        n_initial``) through the ``obs_count`` column.
        """
        return (self.phase == PHASE_ACTIVE) & (self.obs_count >= self.n_initial)

    def exhausted_indices(self) -> np.ndarray:
        """Active rows whose evaluation budget is spent (retire this tick)."""
        return np.nonzero(
            (self.phase == PHASE_ACTIVE) & (self.n_results >= self.budget)
        )[0]

    def all_done(self) -> bool:
        return bool(np.all(self.phase == PHASE_DONE))

    # ------------------------------------------------------- row lifecycle

    def _grow_slots(self, m: int) -> None:
        if m <= self.m_slots:
            return
        pad = m - self.m_slots

        def wide(arr: np.ndarray, fill: float) -> np.ndarray:
            out = np.full(
                arr.shape[:1] + (m,) + arr.shape[2:], fill, dtype=arr.dtype
            )
            out[:, : self.m_slots] = arr
            return out

        self.task_iso = wide(self.task_iso, 0.0)
        self.task_kind = wide(self.task_kind, KIND_PAD)
        self.task_cpu_demand = wide(self.task_cpu_demand, 0.0)
        self.task_gpu_demand = wide(self.task_gpu_demand, 0.0)
        self.task_npu_coverage = wide(self.task_npu_coverage, 0.0)
        self.static_edge_demand = wide(self.static_edge_demand, 0.0)
        self.task_edge_tx = wide(self.task_edge_tx, 0.0)
        self.task_edge_demand = wide(self.task_edge_demand, 0.0)
        grown = np.zeros(
            (self.n, m, _N_DEVICE_KINDS), dtype=np.float64
        )
        grown[:, : self.m_slots] = self.iso_by_kind
        self.iso_by_kind = grown
        self.m_slots = m
        del pad

    def init_plan_row(self, i: int, device: "DeviceSimulator") -> None:
        """Record row ``i``'s static pricing inputs at admission.

        Everything that never changes mid-run — SoC parameters, task
        demand profiles, the per-(slot, resource) isolation-latency table
        — is written once here; :meth:`refresh_plan_row` only touches the
        per-tick columns.
        """
        soc = device.soc
        items = list(device.placement_items())
        k = len(items)
        self._grow_slots(k)
        self.n_tasks[i] = k
        self.task_ids[i] = tuple(tid for tid, _ in items)
        profiles = tuple(device.profile_of(tid) for tid, _ in items)
        self._profiles[i] = profiles
        for j, profile in enumerate(profiles):
            self.task_cpu_demand[i, j] = profile.cpu_demand
            self.task_gpu_demand[i, j] = profile.gpu_demand
            self.task_npu_coverage[i, j] = profile.npu_coverage
            self.static_edge_demand[i, j] = edge_demand(profile)
            for res in (Resource.CPU, Resource.GPU_DELEGATE, Resource.NNAPI):
                if profile.supports(res):
                    self.iso_by_kind[i, j, resource_kind(res)] = (
                        profile.latency(res)
                    )
        for proc, col in (
            (Processor.CPU, 0),
            (Processor.GPU, 1),
            (Processor.NPU, 2),
        ):
            self.soc_capacity[i, col] = soc.capacity[proc]
            self.soc_queue_exponent[i, col] = soc.queue_exponent[proc]
        for name, arr in self.soc_scalars.items():
            if name.endswith("per_stream"):
                arr[i] = getattr(soc.render_cost, name)
            else:
                arr[i] = getattr(soc, name)
        self.has_edge[i] = device.edge is not None

    def refresh_plan_row(self, i: int, device: "DeviceSimulator") -> None:
        """Update row ``i``'s per-tick pricing inputs after ``begin``.

        Same floats :meth:`EvalPlan.from_placement_rows` would compute
        from ``(soc, placements, load, edge_share)`` — the static parts
        come from the admission-time tables, the dynamic parts from the
        same helper calls on the same live state.
        """
        k = int(self.n_tasks[i])
        kinds = np.fromiter(
            (resource_kind(res) for _, res in device.placement_items()),
            dtype=np.int64,
            count=k,
        )
        self.task_kind[i, :k] = kinds
        share = device.edge_share()
        if share is None:
            self.task_iso[i, :k] = self.iso_by_kind[i, np.arange(k), kinds]
            self.has_edge[i] = False
        else:
            self.has_edge[i] = True
            self.edge_capacity[i] = share.capacity_streams
            self.edge_queue_exponent[i] = share.queue_exponent
            self.edge_extern[i] = share.extern_streams
            profiles = self._profiles[i]
            edge_slots = kinds == KIND_EDGE
            self.task_iso[i, :k] = np.where(
                edge_slots,
                0.0,
                self.iso_by_kind[i, np.arange(k), np.where(edge_slots, 0, kinds)],
            )
            self.task_edge_tx[i, :k] = 0.0
            self.task_edge_demand[i, :k] = np.where(
                edge_slots, self.static_edge_demand[i, :k], 0.0
            )
            for j in np.nonzero(edge_slots)[0]:
                self.task_iso[i, j] = edge_compute_ms(profiles[j], share)
                self.task_edge_tx[i, j] = edge_tx_ms(profiles[j], share)
        load = device.load
        self.n_objects[i] = float(load.n_objects)
        self.submitted_triangles[i] = float(load.submitted_triangles)
        self.rendered_triangles[i] = float(load.rendered_triangles)
        self.base_gpu_streams[i] = float(load.base_gpu_streams)

    def record_result(
        self,
        i: int,
        cost: float,
        latency_ms: float,
        quality: float,
        epsilon: float,
    ) -> None:
        """Append one control period's measurements to row ``i``."""
        n = int(self.n_results[i])
        if n >= self.max_budget:
            raise FleetError(
                f"{self.session_ids[i]}: trajectory overflow at {n} results"
            )
        self.costs[i, n] = cost
        self.latencies_ms[i, n] = latency_ms
        self.qualities[i, n] = quality
        self.epsilons[i, n] = epsilon
        if cost < self.best_cost[i]:
            self.best_cost[i] = cost
        self.n_results[i] = n + 1
        self.obs_count[i] += 1

    # ------------------------------------------------------------ plan build

    def build_plan(self, rows: Sequence[int]) -> EvalPlan:
        """One multi-row :class:`EvalPlan` sliced straight from columns."""
        idx = np.asarray(rows, dtype=np.int64)
        if idx.size == 0:
            raise FleetError("cannot build a plan over zero rows")
        m = int(self.n_tasks[idx].max())
        any_edge = bool(self.has_edge[idx].any())
        return EvalPlan.from_arrays(
            task_iso_ms=self.task_iso[idx, :m],
            task_kind=self.task_kind[idx, :m],
            task_cpu_demand=self.task_cpu_demand[idx, :m],
            task_gpu_demand=self.task_gpu_demand[idx, :m],
            task_npu_coverage=self.task_npu_coverage[idx, :m],
            n_objects=self.n_objects[idx],
            submitted_triangles=self.submitted_triangles[idx],
            rendered_triangles=self.rendered_triangles[idx],
            base_gpu_streams=self.base_gpu_streams[idx],
            capacity=self.soc_capacity[idx],
            queue_exponent=self.soc_queue_exponent[idx],
            task_edge_tx_ms=self.task_edge_tx[idx, :m] if any_edge else None,
            task_edge_demand=(
                self.task_edge_demand[idx, :m] if any_edge else None
            ),
            edge_capacity=self.edge_capacity[idx] if any_edge else None,
            edge_queue_exponent=(
                self.edge_queue_exponent[idx] if any_edge else None
            ),
            edge_extern_streams=self.edge_extern[idx] if any_edge else None,
            row_task_ids=tuple(self.task_ids[i] for i in idx),
            **{
                name: arr[idx] for name, arr in self.soc_scalars.items()
            },
        )

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
        """Vectorized time-to-cohort-target per row (1-based, censored)."""
        return convergence_from_columns(
            self.costs, self.n_results, self.cohort_best()
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
                )
            )
        return tuple(reports)

    # ------------------------------------------------------------- sharding

    def absorb(self, start: int, payload: Dict[str, np.ndarray]) -> None:
        """Merge a shard worker's contiguous row block back, in order.

        ``payload`` carries the worker-truth columns for rows
        ``start:start+k``; the coordinator's own bookkeeping columns
        (phase, ticks, placement) are left alone.
        """
        k = int(payload["n_results"].shape[0])
        sl = slice(start, start + k)
        width = payload["costs"].shape[1]
        self.costs[sl, :width] = payload["costs"]
        self.latencies_ms[sl, :width] = payload["latencies_ms"]
        self.qualities[sl, :width] = payload["qualities"]
        self.epsilons[sl, :width] = payload["epsilons"]
        self.n_results[sl] = payload["n_results"]
        self.best_cost[sl] = payload["best_cost"]
        self.n_warm[sl] = payload["n_warm"]
        self.warm_started[sl] = payload["warm_started"]
        self.migrations[sl] = payload["migrations"]
        for offset, source in enumerate(payload["warm_source"]):
            self.warm_source[start + offset] = source
        for offset, node in enumerate(payload["edge_node"]):
            self.edge_node[start + offset] = node
        for offset, reason in enumerate(payload["fallback_reason"]):
            self.fallback_reason[start + offset] = reason

    def shard_payload(self) -> Dict[str, np.ndarray]:
        """The worker-truth columns :meth:`absorb` consumes."""
        return {
            "costs": self.costs,
            "latencies_ms": self.latencies_ms,
            "qualities": self.qualities,
            "epsilons": self.epsilons,
            "n_results": self.n_results,
            "best_cost": self.best_cost,
            "n_warm": self.n_warm,
            "warm_started": self.warm_started,
            "migrations": self.migrations,
            "warm_source": list(self.warm_source),
            "edge_node": list(self.edge_node),
            "fallback_reason": list(self.fallback_reason),
        }
