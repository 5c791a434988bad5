"""Static placement and load descriptors shared across layers.

:class:`TaskPlacement` and :class:`SystemLoad` are pure value types: a
task pinned to an allocation choice, and the AR-side load the renderer
puts on the SoC for one control period. They used to live in
:mod:`repro.device.contention`, but both the AR renderer (which
*produces* a ``SystemLoad``) and the vectorized backend (which type-hints
against both) sit below the dynamic contention model in the layer DAG —
importing them from there was an upward edge. They now live in this
leaf so every consumer points downward.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.profiles import StaticProfile
from repro.device.resources import Resource
from repro.errors import DeviceError, IncompatibleDelegateError

__all__ = ["SystemLoad", "TaskPlacement"]


@dataclass(frozen=True)
class TaskPlacement:
    """One AI task instance pinned to an allocation choice."""

    task_id: str
    profile: StaticProfile
    resource: Resource

    def __post_init__(self) -> None:
        if not self.profile.supports(self.resource):
            raise IncompatibleDelegateError(self.profile.model, str(self.resource))


@dataclass(frozen=True)
class SystemLoad:
    """AR-side load on the SoC for the current period.

    ``rendered_triangles`` is the post-culling count that reaches the
    GPU's rasterizer; ``submitted_triangles`` is the pre-culling count the
    CPU-side driver still has to feed per frame (vertex submission happens
    before backface culling discards anything). When only one is known,
    constructors may pass ``submitted_triangles=None`` and the rendered
    value is used for both.
    """

    rendered_triangles: float = 0.0
    n_objects: int = 0
    submitted_triangles: float = None  # type: ignore[assignment]
    base_gpu_streams: float = 0.0  # camera preview + compositing of a live AR session

    def __post_init__(self) -> None:
        if self.base_gpu_streams < 0:
            raise DeviceError(
                f"base_gpu_streams must be >= 0, got {self.base_gpu_streams}"
            )
        if self.rendered_triangles < 0:
            raise DeviceError(
                f"rendered_triangles must be >= 0, got {self.rendered_triangles}"
            )
        if self.n_objects < 0:
            raise DeviceError(f"n_objects must be >= 0, got {self.n_objects}")
        if self.submitted_triangles is None:
            object.__setattr__(self, "submitted_triangles", self.rendered_triangles)
        if self.submitted_triangles < self.rendered_triangles - 1e-9:
            raise DeviceError(
                "submitted_triangles cannot be below rendered_triangles: "
                f"{self.submitted_triangles} < {self.rendered_triangles}"
            )
