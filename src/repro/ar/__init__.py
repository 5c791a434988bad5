"""AR-side substrate: virtual objects, meshes, quality, rendering load.

- :mod:`repro.ar.mesh` — triangle meshes and procedural generators.
- :mod:`repro.ar.decimation` — mesh decimation to a target triangle count
  (the "object decimation algorithm" of the paper's Fig. 3 server).
- :mod:`repro.ar.degradation` — the eAR degradation model (Eq. 1) and its
  offline parameter fitting.
- :mod:`repro.ar.quality` — average on-screen quality (Eq. 2).
- :mod:`repro.ar.objects` — virtual-object catalog (Table II SC1/SC2).
- :mod:`repro.ar.scene` — placed objects, user position, distances.
- :mod:`repro.ar.renderer` — rendering load (triangles drawn after
  culling, draw calls) fed to the device simulator.
- :mod:`repro.ar.distribution` — the TD triangle-distribution heuristic
  (Alg. 1, Line 23).
"""

from repro.ar.decimation import decimate
from repro.ar.degradation import DegradationModel, DegradationParams, fit_degradation_params
from repro.ar.distribution import distribute_triangles, uniform_distribution
from repro.ar.mesh import TriangleMesh, make_procedural, make_sphere
from repro.ar.objects import VirtualObject, catalog_sc1, catalog_sc2, object_by_name
from repro.ar.quality import average_quality, object_quality
from repro.ar.renderer import RenderLoadModel
from repro.ar.scene import PlacedObject, Scene

__all__ = [
    "DegradationModel",
    "DegradationParams",
    "PlacedObject",
    "RenderLoadModel",
    "Scene",
    "TriangleMesh",
    "VirtualObject",
    "average_quality",
    "catalog_sc1",
    "catalog_sc2",
    "decimate",
    "distribute_triangles",
    "fit_degradation_params",
    "make_procedural",
    "make_sphere",
    "object_by_name",
    "object_quality",
    "uniform_distribution",
]
