"""The vectorized solver: one NumPy pass over an :class:`EvalPlan`.

The math is a transcription of the scalar reference path —
:meth:`repro.device.contention.ContentionModel.latencies` composed with
:func:`repro.core.cost.normalized_average_latency` and Eq. 5's φ — with
every configuration a row; Eq. 1/2 quality is the AR layer's one column
body, :func:`repro.ar.quality.eq2_quality`. Two properties are load-bearing
and tested:

**Row independence.** Every operation is elementwise over rows, so a
configuration's result does not depend on what else is in the batch:
evaluating it alone and evaluating it among 10 000 others produce the
same bits.

**Exact mode.** With ``exact=True`` every fractional power goes through
:func:`exact_pow`, which evaluates Python-float ``**`` per element
(NumPy's SIMD ``pow`` differs from libm by 1 ulp on ~5% of inputs).
Together with add-zero padding and sequential (not pairwise) reductions
this makes the batched result **bit-identical** to the scalar path, not
merely close — which is what lets the measurement pipeline adopt the
backend without perturbing a single fixed-seed trajectory. Fast mode
skips the per-element calls and is what enumeration-grid callers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.ar.degradation import Eq1Columns
from repro.ar.quality import eq2_quality
from repro.backend.plan import (
    KIND_CPU,
    KIND_EDGE,
    KIND_GPU,
    KIND_NNAPI,
    PROC_CPU,
    PROC_GPU,
    PROC_NPU,
    EvalPlan,
    PlacementRow,
)
from repro.obs import runtime as obs

_POW_OBJ = np.frompyfunc(pow, 2, 1)


def exact_pow(
    base: Union[np.ndarray, float], exponent: Union[np.ndarray, float]
) -> np.ndarray:
    """Elementwise ``base ** exponent`` with Python-float (libm) semantics.

    NumPy's vectorized ``**`` kernel rounds differently from CPython's
    ``float.__pow__`` on a few percent of inputs (1 ulp). Routing each
    element through the interpreter restores bitwise agreement with the
    scalar reference path at ~150 ns/element — cheap at the handful of
    power sites per row.
    """
    return _POW_OBJ(base, exponent).astype(np.float64)


@dataclass(frozen=True)
class SolveResult:
    """Batched evaluation outputs; optional blocks mirror the plan's."""

    slowdown: np.ndarray  # (n, 3): per-processor latency multiplier
    latency_ms: np.ndarray  # (n, m): per-task steady latency; 0.0 in padding
    epsilon: Optional[np.ndarray] = None  # (n,): Eq. 4
    quality: Optional[np.ndarray] = None  # (n,): Eq. 2
    phi: Optional[np.ndarray] = None  # (n,): Eq. 5 cost
    #: (n,): edge-server slowdown per row; present iff the plan carried
    #: an edge block.
    edge_slowdown: Optional[np.ndarray] = None


def solve(plan: EvalPlan, exact: bool = False) -> SolveResult:
    """Evaluate every configuration row of ``plan`` in one NumPy pass."""
    n, m = plan.n_rows, plan.n_task_slots
    with obs.span(
        "backend.solve", category="backend", n_rows=n, n_task_slots=m, exact=exact
    ):
        result = _solve_rows(plan, exact)
    obs.histogram("eval_batch_size").observe(float(n))
    return result


def price_placement_rows(rows: Sequence[PlacementRow]) -> List[Dict[str, float]]:
    """Steady-state latencies of live placement rows, one exact solve.

    Row ``k`` of the result maps each task id of ``rows[k]`` to its
    unthrottled latency (ms), bit-identical to the scalar contention
    path; a thermal device applies its throttle factor per sample in
    ``measure_period``. The device, the baselines' grid scans and the
    fleet tick all price live rows through this one function.
    """
    plan = EvalPlan.from_placement_rows(rows)
    result = solve(plan, exact=True)
    return [plan.latency_map(result.latency_ms, r) for r in range(plan.n_rows)]


def _pow(base: np.ndarray, exponent: np.ndarray, exact: bool) -> np.ndarray:
    return exact_pow(base, exponent) if exact else base**exponent


def _running_sum(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``start + terms[:, 0] + terms[:, 1] + …`` per row, strictly left to
    right: a cumsum, never NumPy's pairwise reduction, so each row sees
    the scalar path's running-sum additions in its order."""
    return np.cumsum(np.column_stack([start, terms]), axis=1)[:, -1]


def _solve_rows(plan: EvalPlan, exact: bool) -> SolveResult:
    n = plan.n_rows
    kind = plan.task_kind
    is_cpu, is_gpu = kind == KIND_CPU, kind == KIND_GPU
    is_nnapi, is_edge = kind == KIND_NNAPI, kind == KIND_EDGE
    coverage = plan.task_npu_coverage

    # --- demand streams per processor (scalar ref: ContentionModel.ai_streams).
    # Task contributions are accumulated slot by slot in task order; a slot
    # of another kind (or padding) adds exact 0.0, which leaves the IEEE-754
    # running sum unchanged, so each row's sum sees the same additions in
    # the same order as the scalar dict accumulation.
    cpu = _running_sum(
        plan.n_objects / plan.cpu_objects_per_stream
        + plan.submitted_triangles / plan.cpu_triangles_per_stream,
        np.where(is_cpu, plan.task_cpu_demand, 0.0),
    )
    nnapi_gpu = np.where(is_nnapi, (1.0 - coverage) * plan.task_gpu_demand, 0.0)
    gpu = _running_sum(
        plan.base_gpu_streams + plan.n_objects / plan.gpu_objects_per_stream,
        np.where(is_gpu, plan.task_gpu_demand, nnapi_gpu),
    )
    npu = _running_sum(np.zeros(n), np.where(is_nnapi, coverage, 0.0))
    # Edge slots put no streams on the SoC; their server-side demand
    # accumulates separately (scalar ref: ContentionModel.edge_streams,
    # which starts from the snapshot's external streams).
    edge: Optional[np.ndarray] = None
    if plan.task_edge_tx_ms is not None:
        assert plan.edge_extern_streams is not None and plan.task_edge_demand is not None
        edge = _running_sum(
            plan.edge_extern_streams.astype(np.float64),
            np.where(is_edge, plan.task_edge_demand, 0.0),
        )

    # --- slowdowns (scalar ref: SoCSpec.slowdown / render_penalty).
    def processor_slowdown(streams: np.ndarray, proc: int) -> np.ndarray:
        cap = plan.capacity[:, proc]
        raw = _pow(streams / cap, plan.queue_exponent[:, proc], exact)
        return np.where(streams <= cap, 1.0, raw)

    render_gpu = plan.rendered_triangles / plan.gpu_triangles_per_stream
    rho = np.minimum(
        _pow(render_gpu / plan.gpu_render_saturation, plan.gpu_render_exponent, exact),
        plan.gpu_render_rho_max,
    )
    slow_cpu = processor_slowdown(cpu, PROC_CPU)
    slow_npu = processor_slowdown(npu, PROC_NPU)
    slow_gpu = processor_slowdown(gpu, PROC_GPU) * (1.0 / (1.0 - rho))
    slowdown = np.stack([slow_cpu, slow_gpu, slow_npu], axis=1)

    # Edge-server slowdown (scalar ref: edge.share.edge_slowdown). Only
    # materialized when the plan carries an edge block, so device-only
    # plans execute exactly the pre-edge instruction stream.
    slow_edge: Optional[np.ndarray] = None
    if edge is not None:
        assert plan.edge_capacity is not None
        assert plan.edge_queue_exponent is not None
        edge_cap = plan.edge_capacity
        edge_raw = _pow(edge / edge_cap, plan.edge_queue_exponent, exact)
        slow_edge = np.where(edge <= edge_cap, 1.0, edge_raw)

    # --- per-task latencies (scalar ref: ContentionModel.task_latency), one
    # (n, m) pass with each row's slowdowns broadcast over its slots.
    iso = plan.task_iso_ms
    base_comm = np.minimum(plan.nnapi_comm_ms[:, None], 0.5 * iso)
    work = iso - base_comm
    comm = base_comm * (
        1.0 + plan.nnapi_comm_gpu_factor * np.maximum(0.0, slow_gpu - 1.0)
    )[:, None]
    npu_part = coverage * work * slow_npu[:, None]
    gpu_part = (1.0 - coverage) * work * slow_gpu[:, None]
    # Offloaded slots: transfer + server compute under sharing. For edge
    # slots, task_iso_ms holds the *compute* part (see the plan builder);
    # the transfer rides in task_edge_tx_ms. The tail term stays a scalar
    # 0.0 when no edge block is present — identical bits to the pre-edge
    # expression.
    tail: Union[np.ndarray, float] = 0.0
    if slow_edge is not None:
        assert plan.task_edge_tx_ms is not None
        tail = np.where(
            is_edge, plan.task_edge_tx_ms + iso * slow_edge[:, None], 0.0
        )
    latency = np.where(
        is_cpu,
        iso * slow_cpu[:, None],
        np.where(
            is_gpu,
            iso * slow_gpu[:, None],
            np.where(is_nnapi, comm + npu_part + gpu_part, tail),
        ),
    )

    # --- Eq. 4 ε (scalar ref: core.cost.normalized_average_latency).
    epsilon: Optional[np.ndarray] = None
    if plan.task_expected_ms is not None:
        active = plan.task_active
        expected = np.where(active, plan.task_expected_ms, 1.0)
        total = _running_sum(
            np.zeros(n), np.where(active, (latency - expected) / expected, 0.0)
        )
        epsilon = total / np.maximum(active.sum(axis=1), 1)

    # --- Eq. 2 quality (the one body: repro.ar.quality.eq2_quality).
    quality: Optional[np.ndarray] = None
    if plan.obj_ratio is not None:
        assert plan.obj_a is not None and plan.obj_b is not None
        assert plan.obj_c is not None and plan.obj_denom is not None
        columns = Eq1Columns(plan.obj_a, plan.obj_b, plan.obj_c, plan.obj_denom)
        quality = eq2_quality(columns, plan.obj_ratio)

    # --- Eq. 5 φ (scalar ref: core.cost.cost / the BNT latency-only variant).
    phi: Optional[np.ndarray] = None
    if plan.w is not None and epsilon is not None:
        if quality is not None:
            phi = -(quality - plan.w * epsilon)
        else:
            phi = plan.w * epsilon

    return SolveResult(
        slowdown=slowdown,
        latency_ms=latency,
        epsilon=epsilon,
        quality=quality,
        phi=phi,
        edge_slowdown=slow_edge,
    )
