"""The contention model: per-task latency under co-location and rendering.

This is the mechanism behind the paper's motivation study (Fig. 2): the
latency of an AI task is not a property of (model, resource) alone — it
depends on every other task sharing the SoC and on how many triangles the
AR renderer is pushing through the GPU.

Model
-----
Every AI task runs inferences back-to-back (a closed loop), so each task
contributes a constant *demand stream* to the processor(s) its allocation
choice touches, weighted by the model's ``cpu_demand`` / ``gpu_demand``:

- ``CPU`` choice → one weighted stream on the CPU.
- ``GPU delegate`` → one weighted stream on the GPU.
- ``NNAPI`` → the model's ``npu_coverage`` fraction lands on the NPU and
  the remainder on the GPU (unsupported ops fall back, paper footnote 2).

Rendering loads the CPU with fractional streams (draw calls + triangle
driving) that pool with AI demand, and loads the GPU through a separate,
*asymmetric* channel: mobile GPUs give the graphics queue priority over
compute, so AI work on the GPU experiences a queueing-style penalty
``1/(1-ρ)`` as rendered triangles approach the device's render saturation
(:meth:`~repro.device.soc.SoCSpec.render_penalty`), while AI↔AI contention
on the same GPU stays a mild processor-sharing slowdown. NNAPI tasks
additionally pay a coordination cost that inflates with the overall GPU
slowdown — partition hand-offs stall behind the graphics queue. This
asymmetry reproduces Fig. 2b: piling AI tasks onto NNAPI degrades latency
gradually, while dropping a few hundred thousand triangles into the scene
spikes every GPU-touching task at once.

Per-task latency is then the isolation latency with each component
inflated by the slowdown of the processor that executes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

from repro.backend.solve import price_placement_rows
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.resources import Processor, Resource
from repro.device.soc import SoCSpec
from repro.edge.share import (
    EdgeShare,
    edge_demand,
    edge_slowdown,
    edge_total_ms,
)
from repro.errors import DeviceError, EdgeError
from repro.units import Ms


@dataclass(frozen=True)
class ProcessorState:
    """Demand and slowdowns for the current placement set (diagnostics).

    ``streams`` holds AI demand per processor (CPU also includes the
    renderer's CPU-side driving work, which pools with AI demand there);
    ``render_gpu_streams`` is the graphics load on the GPU, kept separate
    because it acts through the priority channel. ``slowdown`` is the
    final multiplier AI work experiences on each processor (for the GPU:
    AI-sharing factor × render penalty).

    ``edge_streams``/``edge_slowdown`` describe the shared edge server
    when an :class:`~repro.edge.share.EdgeShare` was in play; they stay
    at their neutral defaults for device-only systems.
    """

    streams: Mapping[Processor, float]
    render_gpu_streams: float
    slowdown: Mapping[Processor, float]
    edge_streams: float = 0.0
    edge_slowdown: float = 1.0


class ContentionModel:
    """Computes steady-state per-task latencies for a placement set."""

    def __init__(self, soc: SoCSpec) -> None:
        self.soc = soc

    # ----------------------------------------------------------- aggregates

    def ai_streams(
        self, placements: Iterable[TaskPlacement], load: SystemLoad
    ) -> Dict[Processor, float]:
        """AI demand streams per processor (CPU includes render driving)."""
        streams = {
            Processor.CPU: self.soc.render_cost.cpu_streams(
                load.n_objects, load.submitted_triangles
            ),
            # The AR session's compute-queue load (camera compositing plus
            # per-draw-call work) pools with AI work on the GPU; only
            # rasterized triangles act through the priority channel.
            Processor.GPU: load.base_gpu_streams
            + self.soc.render_cost.gpu_object_streams(load.n_objects),
            Processor.NPU: 0.0,
        }
        for placement in placements:
            profile = placement.profile
            if placement.resource is Resource.CPU:
                streams[Processor.CPU] += profile.cpu_demand
            elif placement.resource is Resource.GPU_DELEGATE:
                streams[Processor.GPU] += profile.gpu_demand
            elif placement.resource is Resource.NNAPI:
                # NNAPI: split between NPU and GPU.
                streams[Processor.NPU] += profile.npu_coverage
                streams[Processor.GPU] += (
                    (1.0 - profile.npu_coverage) * profile.gpu_demand
                )
            elif placement.resource is Resource.EDGE:
                pass  # off-device: no SoC streams (edge streams are separate)
            else:
                raise DeviceError(
                    f"unhandled resource {placement.resource} for "
                    f"{placement.task_id!r}"
                )
        return streams

    def edge_streams(
        self, placements: Iterable[TaskPlacement], edge: EdgeShare
    ) -> float:
        """Total streams on the shared edge server: other tenants' demand
        plus this placement set's offloaded tasks, in placement order."""
        streams = edge.extern_streams
        for placement in placements:
            if placement.resource is Resource.EDGE:
                streams += edge_demand(placement.profile)
        return streams

    def processor_state(
        self,
        placements: Iterable[TaskPlacement],
        load: SystemLoad,
        edge: Optional[EdgeShare] = None,
    ) -> ProcessorState:
        """Streams and final AI slowdowns per processor."""
        placements = list(placements)
        streams = self.ai_streams(placements, load)
        render_gpu = self.soc.render_cost.gpu_triangle_streams(
            load.rendered_triangles
        )
        slowdown = {
            Processor.CPU: self.soc.slowdown(Processor.CPU, streams[Processor.CPU]),
            Processor.NPU: self.soc.slowdown(Processor.NPU, streams[Processor.NPU]),
            Processor.GPU: (
                self.soc.slowdown(Processor.GPU, streams[Processor.GPU])
                * self.soc.render_penalty(render_gpu)
            ),
        }
        if edge is None:
            return ProcessorState(
                streams=streams, render_gpu_streams=render_gpu, slowdown=slowdown
            )
        on_edge = self.edge_streams(placements, edge)
        return ProcessorState(
            streams=streams,
            render_gpu_streams=render_gpu,
            slowdown=slowdown,
            edge_streams=on_edge,
            edge_slowdown=edge_slowdown(on_edge, edge),
        )

    # ------------------------------------------------------------- latencies

    def nnapi_comm_multiplier(self, gpu_slowdown: float) -> float:
        """Coordination-cost inflation under GPU congestion."""
        return 1.0 + self.soc.nnapi_comm_gpu_factor * max(0.0, gpu_slowdown - 1.0)

    def task_latency(
        self,
        placement: TaskPlacement,
        state: ProcessorState,
        edge: Optional[EdgeShare] = None,
    ) -> Ms:
        """Steady-state latency (ms) of one placed task given system state."""
        profile = placement.profile
        if placement.resource is Resource.EDGE:
            # Offloaded: link transfer + server compute under sharing.
            if edge is None:
                raise EdgeError(
                    f"{placement.task_id!r} is placed on EDGE but no "
                    "EdgeShare was provided"
                )
            return edge_total_ms(profile, edge, state.edge_slowdown)
        iso = profile.latency(placement.resource)
        if placement.resource is Resource.CPU:
            return iso * state.slowdown[Processor.CPU]
        if placement.resource is Resource.GPU_DELEGATE:
            return iso * state.slowdown[Processor.GPU]
        # NNAPI: isolation latency = base coordination cost + compute work.
        base_comm = min(self.soc.nnapi_comm_ms, 0.5 * iso)
        work = iso - base_comm
        comm = base_comm * self.nnapi_comm_multiplier(state.slowdown[Processor.GPU])
        npu_part = profile.npu_coverage * work * state.slowdown[Processor.NPU]
        gpu_part = (1.0 - profile.npu_coverage) * work * state.slowdown[Processor.GPU]
        return comm + npu_part + gpu_part

    def latencies(
        self,
        placements: Iterable[TaskPlacement],
        load: SystemLoad,
        edge: Optional[EdgeShare] = None,
    ) -> Dict[str, Ms]:
        """Latency (ms) for every placed task under mutual contention.

        Prices the one row through
        :func:`~repro.backend.solve.price_placement_rows`, which is
        bit-identical to composing :meth:`processor_state` with
        :meth:`task_latency` per task (the scalar methods above remain
        the executable reference the parity suite checks against).
        """
        placements = list(placements)
        ids = [p.task_id for p in placements]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DeviceError(f"duplicate task ids in placement set: {dupes}")
        if not placements:
            return {}
        return price_placement_rows([(self.soc, placements, load, edge)])[0]
