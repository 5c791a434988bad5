"""Virtual-object catalog (the paper's Table II scenarios).

A :class:`VirtualObject` is an *asset*: a name, a maximum triangle count,
degradation parameters (a, b, c, d) for Eq. 1, and a procedural mesh. The
two scenario catalogs mirror Table II exactly:

- **SC1** (high triangle count, 9 objects): apricot ×1 (86,016), bike ×1
  (178,552), plane ×4 (146,803 each), splane ×1 (146,803), Cocacola ×2
  (94,080 each).
- **SC2** (low triangle count, 7 objects): cabin ×1 (2,324), andy ×2
  (2,304 each), ATV ×2 (4,907 each), hammer ×2 (6,250 each).

Catalog degradation parameters are fixed (the paper trains them offline
once per object; see :func:`repro.ar.degradation.fit_degradation_params`
for the training pipeline itself, exercised in tests and examples). The
values encode shape complexity: intricate geometry (bike, ATV) degrades
steeply with decimation; smooth shapes (Cocacola bottle, apricot) tolerate
heavy decimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.ar.degradation import (
    DegradationModel,
    DegradationParams,
    fit_degradation_params,
    synthesize_training_samples,
)
from repro.ar.mesh import TriangleMesh, make_procedural
from repro.errors import ConfigurationError, SceneError


@dataclass(frozen=True)
class VirtualObject:
    """A renderable asset with its quality model."""

    name: str
    max_triangles: int
    params: DegradationParams

    def __post_init__(self) -> None:
        if self.max_triangles < 8:
            raise ConfigurationError(
                f"{self.name!r}: max_triangles must be >= 8, got {self.max_triangles}"
            )

    @property
    def degradation(self) -> DegradationModel:
        return DegradationModel(self.params)

    @classmethod
    def with_fitted_params(
        cls,
        name: str,
        max_triangles: int,
        mesh_triangles: int = 3_000,
        seed: int = 0,
    ) -> "VirtualObject":
        """Build an object by running the full offline training pipeline:
        generate geometry, decimate across a ratio sweep, measure
        distortion, and fit Eq. 1 (the eAR server-side procedure)."""
        mesh = _procedural_mesh(name, min(max_triangles, mesh_triangles))
        samples = synthesize_training_samples(mesh, seed=seed)
        params = fit_degradation_params(samples)
        return cls(name=name, max_triangles=max_triangles, params=params)


@lru_cache(maxsize=64)
def _procedural_mesh(name: str, triangles: int) -> TriangleMesh:
    return make_procedural(name, triangles)


def _params(a: float, b: float, d: float) -> DegradationParams:
    """Anchored parameter helper: c = -(a + b) so error(R=1) = 0."""
    return DegradationParams(a=a, b=b, c=-(a + b), d=d)


# ----------------------------------------------------------- Table II data

_SC1_SPEC: List[Tuple[str, int, int, DegradationParams]] = [
    # (name, instance count, triangles each, degradation params)
    ("apricot", 1, 86_016, _params(a=1.30, b=-2.75, d=1.1)),
    ("bike", 1, 178_552, _params(a=1.10, b=-3.05, d=0.9)),
    ("plane", 4, 146_803, _params(a=1.25, b=-2.90, d=1.0)),
    ("splane", 1, 146_803, _params(a=1.25, b=-2.85, d=1.0)),
    ("Cocacola", 2, 94_080, _params(a=1.40, b=-2.60, d=1.2)),
]

_SC2_SPEC: List[Tuple[str, int, int, DegradationParams]] = [
    ("cabin", 1, 2_324, _params(a=1.28, b=-2.85, d=1.0)),
    ("andy", 2, 2_304, _params(a=1.30, b=-2.80, d=1.1)),
    ("ATV", 2, 4_907, _params(a=1.12, b=-3.00, d=0.9)),
    ("hammer", 2, 6_250, _params(a=1.35, b=-2.65, d=1.2)),
]


def _build_catalog(
    spec: List[Tuple[str, int, int, DegradationParams]]
) -> List[Tuple[VirtualObject, int]]:
    return [
        (VirtualObject(name=name, max_triangles=tris, params=params), count)
        for name, count, tris, params in spec
    ]


def catalog_sc1() -> List[Tuple[VirtualObject, int]]:
    """Table II scenario SC1: (asset, instance count) pairs, heavy objects."""
    return _build_catalog(_SC1_SPEC)


def catalog_sc2() -> List[Tuple[VirtualObject, int]]:
    """Table II scenario SC2: (asset, instance count) pairs, light objects."""
    return _build_catalog(_SC2_SPEC)


def object_by_name(name: str) -> VirtualObject:
    """Look up a catalog asset by name across both scenarios."""
    for spec in (_SC1_SPEC, _SC2_SPEC):
        for obj_name, _count, tris, params in spec:
            if obj_name == name:
                return VirtualObject(name=obj_name, max_triangles=tris, params=params)
    raise SceneError(f"unknown catalog object {name!r}")


def expand_instances(
    catalog: List[Tuple[VirtualObject, int]]
) -> List[Tuple[str, VirtualObject]]:
    """Expand (asset, count) pairs into uniquely-named instances.

    Single instances keep the asset name; multiples get ``_1``, ``_2``, ...
    suffixes, matching the paper's naming (e.g. ``plane_3``).
    """
    instances: List[Tuple[str, VirtualObject]] = []
    for obj, count in catalog:
        if count < 1:
            raise ConfigurationError(f"{obj.name!r}: count must be >= 1, got {count}")
        for i in range(count):
            instance_id = obj.name if count == 1 else f"{obj.name}_{i + 1}"
            instances.append((instance_id, obj))
    return instances


def total_max_triangles(catalog: List[Tuple[VirtualObject, int]]) -> int:
    """T^max of the paper: the summed full-quality triangle count."""
    return sum(obj.max_triangles * count for obj, count in catalog)
