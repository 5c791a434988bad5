"""The :class:`EvalPlan`: N candidate configurations as structure-of-arrays.

A plan row is one complete configuration of the MAR system: which
resource each AI task runs on (with the task's demand profile), what
render load the scene puts on the SoC, and — optionally — the per-object
triangle ratios and degradation parameters needed to score quality, the
per-task expected latencies needed for Eq. 4's ε, and the Eq. 3 weight
needed for φ. Rows are independent: the solver never mixes information
across rows, which is what makes single-row and batched evaluation
bit-identical.

Task slots are padded to the widest row; padding slots carry
``KIND_PAD`` and contribute nothing to any aggregate (they are added as
exact ``0.0`` terms, which leaves IEEE-754 sums unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.resources import Processor, Resource
from repro.device.soc import SoCSpec
from repro.edge.share import (
    EdgeShare,
    edge_compute_ms,
    edge_demand,
    edge_tx_ms,
)
from repro.errors import DeviceError, EdgeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.load import SystemLoad, TaskPlacement

#: One live device configuration: ``(soc, placements, load, edge_share)``,
#: with ``edge_share`` ``None`` on device-only systems.
PlacementRow = Tuple[
    SoCSpec, Sequence["TaskPlacement"], "SystemLoad", Optional[EdgeShare]
]

#: Processor axis of every ``(n, 3)`` array: CPU, GPU, NPU.
PROC_CPU, PROC_GPU, PROC_NPU = 0, 1, 2

#: Task-slot kinds — the allocation choice of one task. Padding is -1.
KIND_CPU, KIND_GPU, KIND_NNAPI, KIND_EDGE, KIND_PAD = 0, 1, 2, 3, -1

_RESOURCE_KIND: Dict[Resource, int] = {
    Resource.CPU: KIND_CPU,
    Resource.GPU_DELEGATE: KIND_GPU,
    Resource.NNAPI: KIND_NNAPI,
    Resource.EDGE: KIND_EDGE,
}


def resource_kind(resource: Resource) -> int:
    """The plan's integer code for an allocation choice."""
    return _RESOURCE_KIND[resource]


def _soc_column(socs: Sequence[SoCSpec], proc: Processor, table: str) -> np.ndarray:
    return np.array([getattr(s, table)[proc] for s in socs], dtype=np.float64)


@dataclass(frozen=True)
class EvalPlan:
    """Structure-of-arrays encoding of N candidate configurations.

    Shapes: ``(n,)`` per row, ``(n, m)`` per task slot, ``(n, 3)`` per
    processor (axis order ``PROC_CPU``/``PROC_GPU``/``PROC_NPU``), and
    ``(n, l)`` per scene object when the quality block is present.
    """

    # --- task slots -------------------------------------------------- (n, m)
    task_iso_ms: np.ndarray  # isolation latency on the chosen resource
    task_kind: np.ndarray  # KIND_* codes, int64; KIND_PAD for padding
    task_cpu_demand: np.ndarray
    task_gpu_demand: np.ndarray
    task_npu_coverage: np.ndarray
    # --- render load -------------------------------------------------- (n,)
    n_objects: np.ndarray
    submitted_triangles: np.ndarray
    rendered_triangles: np.ndarray
    base_gpu_streams: np.ndarray
    # --- SoC parameters ------------------------------------- (n, 3) / (n,)
    capacity: np.ndarray
    queue_exponent: np.ndarray
    nnapi_comm_ms: np.ndarray
    nnapi_comm_gpu_factor: np.ndarray
    gpu_render_saturation: np.ndarray
    gpu_render_exponent: np.ndarray
    gpu_render_rho_max: np.ndarray
    cpu_objects_per_stream: np.ndarray
    cpu_triangles_per_stream: np.ndarray
    gpu_objects_per_stream: np.ndarray
    gpu_triangles_per_stream: np.ndarray
    # --- optional cost blocks ----------------------------------------------
    task_expected_ms: Optional[np.ndarray] = None  # (n, m): Eq. 4 τᵉ
    obj_ratio: Optional[np.ndarray] = None  # (n, l): per-object R
    obj_a: Optional[np.ndarray] = None  # (n, l): Eq. 1 a_i
    obj_b: Optional[np.ndarray] = None
    obj_c: Optional[np.ndarray] = None
    obj_denom: Optional[np.ndarray] = None  # (n, l): D^{d_i}, precomputed
    w: Optional[float] = None  # Eq. 3 weight for φ
    # --- optional edge block (all-or-nothing; required iff any KIND_EDGE) --
    #: (n, m): link transfer of each offloaded slot at the row's snapshot.
    task_edge_tx_ms: Optional[np.ndarray] = None
    #: (n, m): stream weight each offloaded slot places on the server.
    task_edge_demand: Optional[np.ndarray] = None
    edge_capacity: Optional[np.ndarray] = None  # (n,)
    edge_queue_exponent: Optional[np.ndarray] = None  # (n,)
    edge_extern_streams: Optional[np.ndarray] = None  # (n,)
    #: Task ids per row (builders that know them fill this in).
    row_task_ids: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        n, m = self.task_iso_ms.shape
        for name in (
            "task_kind",
            "task_cpu_demand",
            "task_gpu_demand",
            "task_npu_coverage",
        ):
            if getattr(self, name).shape != (n, m):
                raise DeviceError(f"EvalPlan.{name} must have shape {(n, m)}")
        for name in (
            "n_objects",
            "submitted_triangles",
            "rendered_triangles",
            "base_gpu_streams",
            "nnapi_comm_ms",
            "nnapi_comm_gpu_factor",
            "gpu_render_saturation",
            "gpu_render_exponent",
            "gpu_render_rho_max",
            "cpu_objects_per_stream",
            "cpu_triangles_per_stream",
            "gpu_objects_per_stream",
            "gpu_triangles_per_stream",
        ):
            if getattr(self, name).shape != (n,):
                raise DeviceError(f"EvalPlan.{name} must have shape {(n,)}")
        for name in ("capacity", "queue_exponent"):
            if getattr(self, name).shape != (n, 3):
                raise DeviceError(f"EvalPlan.{name} must have shape {(n, 3)}")
        if self.task_expected_ms is not None and self.task_expected_ms.shape != (n, m):
            raise DeviceError(f"EvalPlan.task_expected_ms must have shape {(n, m)}")
        quality_blocks = (self.obj_ratio, self.obj_a, self.obj_b, self.obj_c, self.obj_denom)
        present = [blk is not None for blk in quality_blocks]
        if any(present) and not all(present):
            raise DeviceError("EvalPlan quality block must be all-or-nothing")
        if self.obj_ratio is not None:
            shape = self.obj_ratio.shape
            if len(shape) != 2 or shape[0] != n:
                raise DeviceError(f"EvalPlan.obj_ratio must have shape (n={n}, l)")
            for name in ("obj_a", "obj_b", "obj_c", "obj_denom"):
                blk = getattr(self, name)
                if blk is None or blk.shape != shape:
                    raise DeviceError(f"EvalPlan.{name} must have shape {shape}")
        edge_blocks = (
            self.task_edge_tx_ms,
            self.task_edge_demand,
            self.edge_capacity,
            self.edge_queue_exponent,
            self.edge_extern_streams,
        )
        edge_present = [blk is not None for blk in edge_blocks]
        if any(edge_present) and not all(edge_present):
            raise DeviceError("EvalPlan edge block must be all-or-nothing")
        if self.task_edge_tx_ms is not None:
            for name in ("task_edge_tx_ms", "task_edge_demand"):
                if getattr(self, name).shape != (n, m):
                    raise DeviceError(f"EvalPlan.{name} must have shape {(n, m)}")
            for name in (
                "edge_capacity",
                "edge_queue_exponent",
                "edge_extern_streams",
            ):
                if getattr(self, name).shape != (n,):
                    raise DeviceError(f"EvalPlan.{name} must have shape {(n,)}")
        elif bool(np.any(self.task_kind == KIND_EDGE)):
            raise EdgeError(
                "EvalPlan contains EDGE task slots but no edge block; "
                "pricing an offloaded placement needs an EdgeShare snapshot"
            )

    # --------------------------------------------------------------- queries

    @property
    def n_rows(self) -> int:
        return int(self.task_iso_ms.shape[0])

    @property
    def n_task_slots(self) -> int:
        return int(self.task_iso_ms.shape[1])

    @property
    def task_active(self) -> np.ndarray:
        """(n, m) bool: which task slots are real tasks (not padding)."""
        return self.task_kind != KIND_PAD

    def latency_map(self, latency_ms: np.ndarray, row: int) -> Dict[str, float]:
        """A solver latency matrix row as a ``task_id → ms`` dict.

        Requires ``row_task_ids`` to have been recorded by the builder.
        """
        if not self.row_task_ids:
            raise DeviceError("this EvalPlan was built without task ids")
        ids = self.row_task_ids[row]
        return {tid: float(latency_ms[row, j]) for j, tid in enumerate(ids)}

    # -------------------------------------------------------------- builders

    @classmethod
    def from_placement_rows(cls, rows: Sequence[PlacementRow]) -> "EvalPlan":
        """Build a plan from ``(soc, placements, load, edge_share)`` rows.

        The one builder from live device state
        (:meth:`~repro.device.executor.DeviceSimulator.placement_row`):
        one row per device/configuration, heterogeneous SoCs and task
        counts allowed (short rows are padded). ``edge_share`` is an
        :class:`~repro.edge.share.EdgeShare` or ``None``; the plan
        carries an edge block only if at least one row supplies one, so
        device-only batches stay byte-identical to pre-edge plans.
        """
        if not rows:
            raise DeviceError("EvalPlan needs at least one row")
        for row in rows:
            if len(row) != 4:
                raise DeviceError(
                    f"placement rows must have 4 elements, got {len(row)}"
                )
        n = len(rows)
        m = max(len(placements) for _, placements, _, _ in rows)
        any_edge = any(share is not None for _, _, _, share in rows)
        edge_cap = np.ones(n, dtype=np.float64) if any_edge else None
        edge_exp = np.ones(n, dtype=np.float64) if any_edge else None
        edge_ext = np.zeros(n, dtype=np.float64) if any_edge else None
        # One (iso, kind, cpu, gpu, coverage, edge tx, edge demand) tuple
        # per slot, padding included, converted in one array call. An
        # on-device slot depends only on its (profile, resource) pair,
        # which fleet rows share, so each pair is priced once per call.
        pad = (0.0, KIND_PAD, 0.0, 0.0, 0.0, 0.0, 0.0)
        slots: List[Tuple[float, ...]] = []
        on_device: Dict[Tuple[int, int], Tuple[float, ...]] = {}
        task_ids: List[Tuple[str, ...]] = []
        for i, (_, placements, _, share) in enumerate(rows):
            if share is not None:
                assert edge_cap is not None and edge_exp is not None
                assert edge_ext is not None
                edge_cap[i] = share.capacity_streams
                edge_exp[i] = share.queue_exponent
                edge_ext[i] = share.extern_streams
            for placement in placements:
                profile = placement.profile
                resource = placement.resource
                if resource is not Resource.EDGE:
                    key = (id(profile), id(resource))
                    slot = on_device.get(key)
                    if slot is None:
                        slot = on_device[key] = (
                            profile.latency(resource),
                            _RESOURCE_KIND[resource],
                            profile.cpu_demand,
                            profile.gpu_demand,
                            profile.npu_coverage,
                            0.0,
                            0.0,
                        )
                    slots.append(slot)
                    continue
                if share is None:
                    raise EdgeError(
                        f"{placement.task_id!r} is placed on EDGE but its "
                        "row carries no EdgeShare"
                    )
                # iso carries the *server compute* part; the transfer rides
                # in task_edge_tx_ms (same decomposition as the scalar
                # ContentionModel.task_latency).
                slots.append(
                    (
                        edge_compute_ms(profile, share),
                        KIND_EDGE,
                        profile.cpu_demand,
                        profile.gpu_demand,
                        profile.npu_coverage,
                        edge_tx_ms(profile, share),
                        edge_demand(profile),
                    )
                )
            task_ids.append(tuple(p.task_id for p in placements))
            slots.extend([pad] * (m - len(placements)))
        flat = np.fromiter(
            chain.from_iterable(slots), dtype=np.float64, count=len(slots) * len(pad)
        )
        # Slot-major to field-major in one copy: each field is then a
        # contiguous (n, m) block.
        fields = flat.reshape(n * m, len(pad)).T.copy().reshape(len(pad), n, m)
        iso, kind, cpu_demand, gpu_demand, coverage, edge_tx, edge_dem = fields
        socs = [soc for soc, _, _, _ in rows]
        loads = [load for _, _, load, _ in rows]
        return cls(
            task_iso_ms=iso,
            task_kind=kind.astype(np.int64),
            task_cpu_demand=cpu_demand,
            task_gpu_demand=gpu_demand,
            task_npu_coverage=coverage,
            n_objects=np.array([float(ld.n_objects) for ld in loads]),
            submitted_triangles=np.array(
                [float(ld.submitted_triangles) for ld in loads]
            ),
            rendered_triangles=np.array(
                [float(ld.rendered_triangles) for ld in loads]
            ),
            base_gpu_streams=np.array([float(ld.base_gpu_streams) for ld in loads]),
            task_edge_tx_ms=edge_tx if any_edge else None,
            task_edge_demand=edge_dem if any_edge else None,
            edge_capacity=edge_cap,
            edge_queue_exponent=edge_exp,
            edge_extern_streams=edge_ext,
            row_task_ids=tuple(task_ids),
            **soc_fields(socs),
        )


def soc_fields(socs: Sequence[SoCSpec]) -> Dict[str, np.ndarray]:
    """Tabulate per-row SoC parameters for the plan constructor: the
    ``capacity`` … ``gpu_triangles_per_stream`` keyword arguments of
    :class:`EvalPlan` for rows running on ``socs``."""
    return {
        "capacity": np.stack(
            [
                _soc_column(socs, Processor.CPU, "capacity"),
                _soc_column(socs, Processor.GPU, "capacity"),
                _soc_column(socs, Processor.NPU, "capacity"),
            ],
            axis=1,
        ),
        "queue_exponent": np.stack(
            [
                _soc_column(socs, Processor.CPU, "queue_exponent"),
                _soc_column(socs, Processor.GPU, "queue_exponent"),
                _soc_column(socs, Processor.NPU, "queue_exponent"),
            ],
            axis=1,
        ),
        "nnapi_comm_ms": np.array([s.nnapi_comm_ms for s in socs]),
        "nnapi_comm_gpu_factor": np.array([s.nnapi_comm_gpu_factor for s in socs]),
        "gpu_render_saturation": np.array([s.gpu_render_saturation for s in socs]),
        "gpu_render_exponent": np.array([s.gpu_render_exponent for s in socs]),
        "gpu_render_rho_max": np.array([s.gpu_render_rho_max for s in socs]),
        "cpu_objects_per_stream": np.array(
            [s.render_cost.cpu_objects_per_stream for s in socs]
        ),
        "cpu_triangles_per_stream": np.array(
            [s.render_cost.cpu_triangles_per_stream for s in socs]
        ),
        "gpu_objects_per_stream": np.array(
            [s.render_cost.gpu_objects_per_stream for s in socs]
        ),
        "gpu_triangles_per_stream": np.array(
            [s.render_cost.gpu_triangles_per_stream for s in socs]
        ),
    }
