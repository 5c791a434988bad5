"""Unit tests for repro.ar.mesh and repro.ar.decimation."""

import numpy as np
import pytest

from repro.ar.decimation import cluster_vertices, decimate, decimation_error_proxy
from repro.ar.mesh import TriangleMesh, make_procedural, make_sphere
from repro.errors import MeshError


class TestTriangleMesh:
    def test_basic_properties(self):
        mesh = TriangleMesh(
            vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
            faces=np.array([[0, 1, 2]]),
        )
        assert mesh.n_vertices == 3
        assert mesh.n_triangles == 1
        assert mesh.surface_area() == pytest.approx(0.5)

    def test_face_index_out_of_range_rejected(self):
        with pytest.raises(MeshError):
            TriangleMesh(
                vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 5]])
            )

    def test_bad_shapes_rejected(self):
        with pytest.raises(MeshError):
            TriangleMesh(vertices=np.zeros((3, 2)), faces=np.zeros((1, 3), int))
        with pytest.raises(MeshError):
            TriangleMesh(vertices=np.zeros((3, 3)), faces=np.zeros((1, 4), int))

    def test_remove_degenerate_faces(self):
        vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 0, 1], [1, 1, 1]])
        cleaned = TriangleMesh(vertices, faces).remove_degenerate_faces()
        assert cleaned.n_triangles == 1

    def test_bounding_box(self):
        mesh = TriangleMesh(
            vertices=np.array([[1, 1, 1], [3, 1, 1], [1, 5, 7]], dtype=float),
            faces=np.array([[0, 1, 2]]),
        )
        lo, hi = mesh.bounding_box()
        assert np.allclose(hi - lo, [2.0, 4.0, 6.0])


class TestGenerators:
    @pytest.mark.parametrize("target", [100, 1_000, 10_000])
    def test_sphere_hits_target_roughly(self, target):
        mesh = make_sphere(target)
        assert abs(mesh.n_triangles - target) / target < 0.35

    def test_sphere_radius(self):
        mesh = make_sphere(500, radius=2.0)
        assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 2.0, atol=1e-9)

    def test_procedural_deterministic_per_name(self):
        a1 = make_procedural("bike", 1000)
        a2 = make_procedural("bike", 1000)
        assert np.allclose(a1.vertices, a2.vertices)

    def test_procedural_differs_across_names(self):
        bike = make_procedural("bike", 1000)
        apricot = make_procedural("apricot", 1000)
        assert bike.vertices.shape == apricot.vertices.shape
        assert not np.allclose(bike.vertices, apricot.vertices)

    def test_too_small_targets_rejected(self):
        with pytest.raises(MeshError):
            make_sphere(4)
        with pytest.raises(MeshError):
            make_procedural("x", 2)


class TestDecimation:
    @pytest.mark.parametrize("ratio", [0.8, 0.5, 0.25, 0.1])
    def test_hits_requested_ratio(self, ratio):
        mesh = make_procedural("plane", 4_000)
        decimated = decimate(mesh, ratio)
        achieved = decimated.n_triangles / mesh.n_triangles
        assert achieved == pytest.approx(ratio, rel=0.25)

    def test_ratio_one_returns_original(self):
        mesh = make_sphere(500)
        assert decimate(mesh, 1.0) is mesh

    def test_decimated_mesh_is_valid(self):
        mesh = make_procedural("hammer", 3_000)
        decimated = decimate(mesh, 0.3)
        assert decimated.n_triangles > 0
        assert decimated.faces.max() < decimated.n_vertices
        # No degenerate faces survive.
        f = decimated.faces
        assert np.all(f[:, 0] != f[:, 1])
        assert np.all(f[:, 1] != f[:, 2])

    def test_preserves_rough_shape(self):
        mesh = make_sphere(4_000, radius=1.0)
        decimated = decimate(mesh, 0.3)
        radii = np.linalg.norm(decimated.vertices, axis=1)
        assert radii.mean() == pytest.approx(1.0, abs=0.1)

    def test_invalid_ratio_rejected(self):
        mesh = make_sphere(200)
        for ratio in (0.0, -0.5, 1.5):
            with pytest.raises(MeshError):
                decimate(mesh, ratio)

    def test_cluster_vertices_monotone_in_cell_size(self):
        mesh = make_procedural("ATV", 3_000)
        fine = cluster_vertices(mesh, 0.01)
        coarse = cluster_vertices(mesh, 0.3)
        assert coarse.n_triangles < fine.n_triangles

    def test_cluster_invalid_cell_rejected(self):
        with pytest.raises(MeshError):
            cluster_vertices(make_sphere(100), 0.0)


class TestErrorProxy:
    def test_zero_for_identical_mesh(self):
        mesh = make_sphere(1_000)
        assert decimation_error_proxy(mesh, mesh) == pytest.approx(0.0, abs=1e-6)

    def test_grows_with_decimation_depth(self):
        mesh = make_procedural("bike", 3_000)
        light = decimation_error_proxy(mesh, decimate(mesh, 0.7))
        heavy = decimation_error_proxy(mesh, decimate(mesh, 0.1))
        assert heavy > light

    def test_bounded_unit_interval(self):
        mesh = make_procedural("cabin", 2_000)
        for ratio in (0.9, 0.5, 0.1):
            error = decimation_error_proxy(mesh, decimate(mesh, ratio))
            assert 0.0 <= error <= 1.0
