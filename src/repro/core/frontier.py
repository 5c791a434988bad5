"""Batched noise-free scoring of Algorithm-1 candidate configurations.

The scalar control loop prices one configuration per control period by
actually driving the system (apply → measure → tell). Enumeration-grid
callers — acquisition frontiers, baseline grid scans, design-space sweeps
— need the *model's* view of thousands of candidates without touching
the live system or its RNG streams. :class:`FrontierEvaluator` maps a
batch of BO vectors ``z = [c; x]`` through the same deterministic
pipeline Algorithm 1 uses:

1. ``c`` → integer counts (:func:`~repro.core.allocation.
   proportions_to_counts_batch`) → per-task allocations (memoized queue
   drains, :func:`~repro.core.allocation.allocations_for_counts`);
2. ``x`` → per-object triangle ratios via the TD heuristic
   (:func:`~repro.ar.distribution.distribute_triangles_columns`, the one
   TD body, on the scene's sorted-id columns — each row's object ratios
   are bit-identical to what :meth:`MARSystem.apply` draws for the same
   ``x``);
3. allocations + ratios → one :class:`~repro.backend.plan.EvalPlan`
   solved in a single :func:`repro.backend.solve` pass → ε, Q and φ per
   candidate.

Scores are the *steady-state* (noise-free) values: what a measurement
with ``noise_sigma = 0`` would return. Object ratios are bit-identical
to the scalar apply path; the scores agree with the scalar measure path
to ≤ 1e-9, because the grid path uses the solver's fast mode, whose
powers may differ from libm by 1 ulp (its only approximation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.backend.plan import EvalPlan, resource_kind, soc_fields
from repro.backend.solve import SolveResult, solve
from repro.ar.distribution import distribute_triangles_columns
from repro.core.allocation import (
    allocations_for_counts,
    count_lattice,
    proportions_to_counts_batch,
)
from repro.core.system import MARSystem
from repro.device.resources import Resource
from repro.edge.share import edge_compute_ms, edge_demand, edge_tx_ms
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FrontierResult:
    """Scores for a batch of candidate configurations.

    Arrays are indexed by candidate row; ``allocations[k]`` is the
    per-task resource map row ``k`` decoded to (shared dict objects —
    rows with equal count vectors share one allocation).
    """

    zs: np.ndarray  # (n, d): the evaluated BO vectors
    proportions: np.ndarray  # (n, R)
    triangle_ratio: np.ndarray  # (n,): x actually applied (1.0 if latency-only)
    counts: np.ndarray  # (n, R) int
    allocations: Tuple[Mapping[str, Resource], ...]
    object_ids: Tuple[str, ...]  # sorted instance ids (TD order)
    object_ratios: np.ndarray  # (n, L)
    latency_ms: np.ndarray  # (n, M) per-task steady latency
    epsilon: np.ndarray  # (n,)
    quality: np.ndarray  # (n,)
    phi: np.ndarray  # (n,)

    @property
    def n_candidates(self) -> int:
        return int(self.zs.shape[0])

    @property
    def best_index(self) -> int:
        """Row of the lowest cost φ (ties → first row, deterministic)."""
        return int(np.argmin(self.phi))


class FrontierEvaluator:
    """Scores batches of BO vectors against one system, without touching it.

    The constructor snapshots everything the score depends on — task
    profiles, expected latencies, scene geometry, degradation parameters,
    SoC constants — so repeated :meth:`evaluate` calls do no per-call
    Python work beyond the (memoized) allocation decode.
    """

    def __init__(
        self, system: MARSystem, w: float, latency_only: bool = False
    ) -> None:
        if w < 0:
            raise ConfigurationError(f"w must be >= 0, got {w}")
        self.system = system
        self.w = float(w)
        self.latency_only = bool(latency_only)
        self.n_resources = system.n_resources

        taskset = system.taskset
        self._taskset = taskset
        self._task_ids: Tuple[str, ...] = taskset.task_ids
        n_tasks = len(taskset)
        #: The resource tuple this frontier scores over (4 columns with
        #: edge) and the edge pricing snapshot taken at construction —
        #: frontier scores are steady-state, so a fixed share is the
        #: model's view, matching what a measurement under the same share
        #: would return.
        self._resources: Tuple[Resource, ...] = system.resources
        self._edge_share = system.edge_share()
        n_res = len(self._resources)
        # Isolation-latency lookup: (task, resource-index) → ms; NaN marks
        # incompatible pairs, which the allocator never selects. The EDGE
        # column holds the *server-compute* part only — transfer rides in
        # the plan's task_edge_tx_ms, mirroring the scalar decomposition.
        self._lat_table = np.full((n_tasks, n_res), np.nan, dtype=np.float64)
        for j, task in enumerate(taskset):
            for r, res in enumerate(self._resources):
                if not task.profile.supports(res):
                    continue
                if res is Resource.EDGE:
                    assert self._edge_share is not None
                    self._lat_table[j, r] = edge_compute_ms(
                        task.profile, self._edge_share
                    )
                else:
                    self._lat_table[j, r] = task.profile.latency(res)
        self._kind_of_res = np.array(
            [resource_kind(res) for res in self._resources], dtype=np.int64
        )
        self._res_index = {res: r for r, res in enumerate(self._resources)}
        if self._edge_share is not None:
            share = self._edge_share
            self._edge_tx = np.array(
                [edge_tx_ms(t.profile, share) for t in taskset],
                dtype=np.float64,
            )
            self._edge_dem = np.array(
                [edge_demand(t.profile) for t in taskset], dtype=np.float64
            )
        self._cpu_demand = np.array(
            [t.profile.cpu_demand for t in taskset], dtype=np.float64
        )
        self._gpu_demand = np.array(
            [t.profile.gpu_demand for t in taskset], dtype=np.float64
        )
        self._npu_coverage = np.array(
            [t.profile.npu_coverage for t in taskset], dtype=np.float64
        )
        expected = taskset.expected_latencies()
        self._expected = np.array(
            [expected[tid] for tid in self._task_ids], dtype=np.float64
        )

        # Scene snapshot: its columns permuted into TD (sorted-id) order.
        cols = system.scene.columns
        self._object_ids = tuple(cols.ids[j] for j in cols.order.tolist())
        self._max_tris, self._eq1 = cols.td_columns()
        self._cull = system.render_model.culled_fractions(cols.distances)[cols.order]
        # Per-allocation task rows, memoized by count vector.
        self._alloc_rows: Dict[
            Tuple[int, ...], Tuple[np.ndarray, np.ndarray]
        ] = {}

    # ----------------------------------------------------------------- public

    def evaluate(self, zs: np.ndarray) -> FrontierResult:
        """Score ``zs`` (shape ``(n, R + 1)``) in one backend solve."""
        zs = np.asarray(zs, dtype=np.float64)
        if zs.ndim == 1:
            zs = zs[np.newaxis, :]
        n_res = self.n_resources
        if zs.ndim != 2 or zs.shape[1] != n_res + 1:
            raise ConfigurationError(
                f"candidates must have shape (n, {n_res + 1}), got {zs.shape}"
            )
        proportions = zs[:, :n_res]
        n = zs.shape[0]
        if self.latency_only:
            ratios = np.ones(n, dtype=np.float64)
        else:
            ratios = zs[:, n_res].copy()

        counts = proportions_to_counts_batch(proportions, len(self._taskset))
        allocations = allocations_for_counts(
            self._taskset, counts, self._resources
        )
        kind, iso = self._task_rows(counts, allocations)

        obj_ratios = distribute_triangles_columns(
            self._max_tris, self._eq1, ratios, self.system.td_reference_ratio
        )
        drawn = obj_ratios * self._max_tris
        submitted = drawn.sum(axis=1)
        rendered = (drawn * self._cull).sum(axis=1)

        quality_block: Dict[str, np.ndarray] = {}
        if not self.latency_only:
            quality_block = {
                f"obj_{name}": np.broadcast_to(column, obj_ratios.shape)
                for name, column in self._eq1._asdict().items()
            }
            quality_block["obj_ratio"] = obj_ratios

        edge_block: Dict[str, np.ndarray] = {}
        if self._edge_share is not None:
            share = self._edge_share
            edge_block = {
                "task_edge_tx_ms": np.broadcast_to(self._edge_tx, iso.shape),
                "task_edge_demand": np.broadcast_to(self._edge_dem, iso.shape),
                "edge_capacity": np.full(n, share.capacity_streams),
                "edge_queue_exponent": np.full(n, share.queue_exponent),
                "edge_extern_streams": np.full(n, share.extern_streams),
            }

        plan = EvalPlan(
            task_iso_ms=iso,
            task_kind=kind,
            task_cpu_demand=np.broadcast_to(self._cpu_demand, iso.shape),
            task_gpu_demand=np.broadcast_to(self._gpu_demand, iso.shape),
            task_npu_coverage=np.broadcast_to(self._npu_coverage, iso.shape),
            n_objects=np.full(n, float(len(self._object_ids))),
            submitted_triangles=submitted,
            rendered_triangles=rendered,
            base_gpu_streams=np.full(
                n, self.system.render_model.base_gpu_streams
            ),
            task_expected_ms=np.broadcast_to(self._expected, iso.shape),
            w=self.w,
            **quality_block,
            **edge_block,  # type: ignore[arg-type]
            **soc_fields([self.system.device.soc] * n),
        )
        result: SolveResult = solve(plan)
        assert result.epsilon is not None and result.phi is not None
        quality = (
            result.quality
            if result.quality is not None
            else np.ones(n, dtype=np.float64)
        )
        return FrontierResult(
            zs=zs,
            proportions=proportions,
            triangle_ratio=ratios,
            counts=counts,
            allocations=tuple(allocations),
            object_ids=self._object_ids,
            object_ratios=obj_ratios,
            latency_ms=result.latency_ms,
            epsilon=result.epsilon,
            quality=quality,
            phi=result.phi,
        )

    # -------------------------------------------------------------- internals

    def _task_rows(
        self,
        counts: np.ndarray,
        allocations: Sequence[Mapping[str, Resource]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (kind, isolation-latency) task arrays.

        Memoized on the count vector — the allocation is a pure function
        of it — so a thousand-row grid builds only as many distinct rows
        as there are distinct counts.
        """
        kind_rows: List[np.ndarray] = []
        iso_rows: List[np.ndarray] = []
        for row, alloc in zip(counts, allocations):
            key = tuple(int(v) for v in row)
            cached = self._alloc_rows.get(key)
            if cached is None:
                res_ix = np.array(
                    [self._res_index[alloc[tid]] for tid in self._task_ids],
                    dtype=np.int64,
                )
                cached = (
                    self._kind_of_res[res_ix],
                    self._lat_table[np.arange(len(self._task_ids)), res_ix],
                )
                self._alloc_rows[key] = cached
            kind_rows.append(cached[0])
            iso_rows.append(cached[1])
        return np.stack(kind_rows), np.stack(iso_rows)


#: Triangle ratios the regret lattice crosses with every count vector:
#: ``repro experiment frontier``'s grid (46 steps from Constraint 10's
#: ``r_min`` = 0.1).
_REGRET_RATIOS = np.linspace(0.1, 1.0, 46)


def regret(system: MARSystem, z: np.ndarray, w: float) -> float:
    """Noise-free φ of ``z`` minus the exact lattice optimum at ``w``.

    The optimum is the lowest φ over :func:`~repro.core.allocation.
    count_lattice` (every count vector × 46 triangle ratios from 0.1 to
    1), scored by one :class:`FrontierEvaluator` on ``system``'s scene,
    taskset and edge share — the yardstick a run's final configuration
    is judged by. An off-grid ``z`` can score marginally below the
    lattice, so the value may be slightly negative.
    """
    evaluator = FrontierEvaluator(system, w=w)
    lattice = count_lattice(len(system.taskset), system.n_resources, _REGRET_RATIOS)
    optimum = float(np.min(evaluator.evaluate(lattice).phi))
    phi = evaluator.evaluate(np.asarray(z, dtype=np.float64)).phi
    return float(phi[0]) - optimum
