"""Rendering load: from scene state to device load.

The renderer does not draw pixels — it converts the scene into the
:class:`~repro.device.load.SystemLoad` the device simulator
consumes: how many triangles survive culling per frame, and how many
objects generate draw calls.

Distance matters through **backface culling** (the paper's §IV-E cites it
as the mechanism linking user-object distance to AI latency): roughly half
of a closed mesh's triangles always face away, and as the user backs off,
perspective projection plus OpenGL's early culling discard a growing share
of the rest. We model the surviving fraction per object as

    cull(D) = backface_fraction * min(1, (reference_distance / D) ** falloff)

clamped below by ``min_fraction`` (distant objects still submit geometry).
The loads are column expressions over the scene's per-object columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.ar.scene import Scene, ordered_sum
from repro.device.load import SystemLoad
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RenderLoadModel:
    """Scene → device load conversion.

    Attributes
    ----------
    backface_fraction:
        Fraction of submitted triangles surviving backface culling at the
        reference distance (≈0.55 for typical closed meshes).
    reference_distance_m:
        Distance at which the distance factor is 1.
    falloff:
        Exponent of the distance attenuation.
    min_fraction:
        Floor of the distance factor — culling never removes everything.
    """

    backface_fraction: float = 0.6
    reference_distance_m: float = 1.0
    falloff: float = 0.5
    min_fraction: float = 0.35
    #: GPU load (in inference-stream equivalents) of the live AR session
    #: itself — camera preview, environment tracking overlays, UI
    #: compositing — present as long as the app renders, independent of
    #: virtual-object count or quality.
    base_gpu_streams: float = 0.5
    #: The last scene distance column and its culling fractions: a scene
    #: replaces that column whole only on a geometry change.
    _cull: List[np.ndarray] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.backface_fraction <= 1.0:
            raise ConfigurationError(
                f"backface_fraction must be in (0, 1], got {self.backface_fraction}"
            )
        if self.reference_distance_m <= 0:
            raise ConfigurationError(
                f"reference_distance_m must be > 0, got {self.reference_distance_m}"
            )
        if self.falloff < 0:
            raise ConfigurationError(f"falloff must be >= 0, got {self.falloff}")
        if not 0.0 < self.min_fraction <= 1.0:
            raise ConfigurationError(
                f"min_fraction must be in (0, 1], got {self.min_fraction}"
            )
        if self.base_gpu_streams < 0:
            raise ConfigurationError(
                f"base_gpu_streams must be >= 0, got {self.base_gpu_streams}"
            )

    def culled_fraction(self, distance_m: float) -> float:
        """Fraction of an object's drawn triangles that reach the GPU."""
        if distance_m <= 0:
            raise ConfigurationError(f"distance must be > 0, got {distance_m}")
        distance_factor = min(
            1.0, (self.reference_distance_m / distance_m) ** self.falloff
        )
        return self.backface_fraction * max(self.min_fraction, distance_factor)

    def culled_fractions(self, distances_m: np.ndarray) -> np.ndarray:
        """:meth:`culled_fraction` per distance, its power a Python float
        (NumPy's vectorized ``pow`` can differ from libm by 1 ulp)."""
        return np.array([self.culled_fraction(d) for d in np.asarray(distances_m).tolist()])

    def rendered_triangles(self, scene: Scene) -> float:
        """Triangles per frame that actually hit the GPU after culling."""
        cols = scene.columns
        if not self._cull or self._cull[0] is not cols.distances:
            self._cull[:] = [cols.distances, self.culled_fractions(cols.distances)]
        return ordered_sum(cols.ratios * cols.max_triangles * self._cull[1])

    def system_load(self, scene: Scene) -> SystemLoad:
        """The device-side load generated by rendering this scene."""
        return SystemLoad(
            rendered_triangles=self.rendered_triangles(scene),
            n_objects=len(scene),
            submitted_triangles=scene.drawn_triangles,
            base_gpu_streams=self.base_gpu_streams,
        )
