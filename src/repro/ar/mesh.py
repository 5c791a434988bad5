"""Triangle meshes and procedural generators.

The paper renders real 3-D assets (Table II: apricot, bike, plane, ...).
We synthesize geometry with matching triangle counts procedurally so the
decimation pipeline operates on real vertex/face arrays rather than a bare
"triangle count" integer.

Meshes are stored as ``vertices`` (V, 3) float64 and ``faces`` (F, 3)
int64 arrays; generators are fully vectorized.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import MeshError


@dataclass(frozen=True)
class TriangleMesh:
    """An indexed triangle mesh."""

    vertices: np.ndarray  # (V, 3) float
    faces: np.ndarray  # (F, 3) int

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError(f"faces must be (F, 3), got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= v.shape[0]):
            raise MeshError(
                f"face indices out of range [0, {v.shape[0]}): "
                f"[{f.min()}, {f.max()}]"
            )
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_triangles(self) -> int:
        return int(self.faces.shape[0])

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.n_vertices == 0:
            raise MeshError("empty mesh has no bounding box")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def surface_area(self) -> float:
        """Total area of all triangles."""
        tri = self.vertices[self.faces]  # (F, 3, 3)
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return float(0.5 * np.linalg.norm(cross, axis=1).sum())

    def remove_degenerate_faces(self) -> "TriangleMesh":
        """Drop faces with repeated vertex indices or (near-)zero area."""
        f = self.faces
        distinct = (f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])
        tri = self.vertices[f]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        area2 = np.linalg.norm(cross, axis=1)
        keep = distinct & (area2 > 1e-14)
        return TriangleMesh(vertices=self.vertices, faces=f[keep])


def _sphere_grid(n_lat: int, n_lon: int) -> TriangleMesh:
    """UV sphere with (n_lat x n_lon) quads split into triangles."""
    lat = np.linspace(0.0, np.pi, n_lat + 1)
    lon = np.linspace(0.0, 2.0 * np.pi, n_lon, endpoint=False)
    lat_g, lon_g = np.meshgrid(lat, lon, indexing="ij")
    x = np.sin(lat_g) * np.cos(lon_g)
    y = np.sin(lat_g) * np.sin(lon_g)
    z = np.cos(lat_g)
    vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)

    i = np.arange(n_lat)[:, None]
    j = np.arange(n_lon)[None, :]
    jn = (j + 1) % n_lon
    v00 = (i * n_lon + j).ravel()
    v01 = (i * n_lon + jn).ravel()
    v10 = ((i + 1) * n_lon + j).ravel()
    v11 = ((i + 1) * n_lon + jn).ravel()
    faces = np.concatenate(
        [
            np.stack([v00, v10, v11], axis=1),
            np.stack([v00, v11, v01], axis=1),
        ]
    )
    return TriangleMesh(vertices=vertices, faces=faces).remove_degenerate_faces()


def make_sphere(target_triangles: int, radius: float = 0.5) -> TriangleMesh:
    """UV sphere with approximately ``target_triangles`` faces."""
    if target_triangles < 8:
        raise MeshError(f"target_triangles must be >= 8, got {target_triangles}")
    # ~2 * n_lat * n_lon triangles with n_lon = 2 n_lat.
    n_lat = max(2, int(round(np.sqrt(target_triangles / 4.0))))
    mesh = _sphere_grid(n_lat, 2 * n_lat)
    return TriangleMesh(vertices=mesh.vertices * radius, faces=mesh.faces)


def make_procedural(name: str, target_triangles: int) -> TriangleMesh:
    """Deterministic 'asset' for an object name: a displaced sphere.

    Different names produce different surface detail (bumpiness and
    anisotropic scale derived from a hash of the name), so decimation and
    quality behave object-specifically — a stand-in for the paper's real
    assets.
    """
    if target_triangles < 8:
        raise MeshError(f"target_triangles must be >= 8, got {target_triangles}")
    base = make_sphere(target_triangles, radius=0.5)
    digest = hashlib.sha256(name.encode()).digest()
    bumps = 1 + digest[0] % 6  # number of displacement harmonics
    amp = 0.03 + (digest[1] / 255.0) * 0.12  # displacement amplitude
    scale = 0.6 + np.asarray(list(digest[2:5]), dtype=float) / 255.0  # anisotropy

    v = base.vertices.copy()
    r = np.linalg.norm(v, axis=1, keepdims=True)
    direction = v / np.clip(r, 1e-12, None)
    phase = digest[5] / 255.0 * 2.0 * np.pi
    displacement = np.ones(v.shape[0])
    for k in range(1, bumps + 1):
        displacement += amp / bumps * np.sin(
            k * 3.0 * direction[:, 0] + k * 5.0 * direction[:, 1] + phase
        )
    v = direction * r * displacement[:, None] * scale
    return TriangleMesh(vertices=v, faces=base.faces)
