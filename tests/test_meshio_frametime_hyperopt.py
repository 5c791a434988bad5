"""Tests for OBJ I/O, the frame-time estimate, and GP model selection."""

import numpy as np
import pytest

from repro.ar.mesh import make_procedural, make_sphere
from repro.ar.meshio import load_obj, save_obj
from repro.ar.objects import object_by_name
from repro.ar.renderer import RenderLoadModel
from repro.ar.scene import Scene
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import Matern, RBF, WhiteNoise
from repro.errors import ConfigurationError, GPFitError, MeshError


class TestObjIO:
    def test_roundtrip_preserves_geometry(self, tmp_path):
        mesh = make_procedural("roundtrip", 800)
        path = tmp_path / "asset.obj"
        save_obj(mesh, path, precision=12)
        loaded = load_obj(path)
        assert loaded.n_vertices == mesh.n_vertices
        assert loaded.n_triangles == mesh.n_triangles
        assert np.allclose(loaded.vertices, mesh.vertices, atol=1e-9)
        assert np.array_equal(loaded.faces, mesh.faces)

    def test_quad_faces_are_fan_triangulated(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        )
        mesh = load_obj(path)
        assert mesh.n_triangles == 2

    def test_slash_index_forms_supported(self, tmp_path):
        path = tmp_path / "tex.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vt 0 0\nvn 0 0 1\n"
            "f 1/1 2/1/1 3//1\n"
        )
        mesh = load_obj(path)
        assert mesh.n_triangles == 1

    def test_negative_indices(self, tmp_path):
        path = tmp_path / "neg.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        assert load_obj(path).n_triangles == 1

    def test_comments_and_unknown_tags_ignored(self, tmp_path):
        path = tmp_path / "noise.obj"
        path.write_text(
            "# header\no thing\ng group\nusemtl m\n"
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
        )
        assert load_obj(path).n_triangles == 1

    @pytest.mark.parametrize(
        "content,match",
        [
            ("v 0 0\n", "malformed vertex"),
            ("v 0 0 0\nf 1 2\n", "face needs"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "out of range"),
            ("# nothing\n", "no vertices"),
            ("v 0 0 0\n", "no faces"),
            ("v a b c\nf 1 1 1\n", "bad vertex"),
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, content, match):
        path = tmp_path / "bad.obj"
        path.write_text(content)
        with pytest.raises(MeshError, match=match):
            load_obj(path)

    def test_invalid_precision(self, tmp_path):
        with pytest.raises(MeshError):
            save_obj(make_sphere(50), tmp_path / "x.obj", precision=0)


class TestFrameTime:
    def test_scales_with_triangles_and_objects(self):
        model = RenderLoadModel()
        empty = Scene()
        assert model.frame_time_ms(empty) == pytest.approx(4.0)

        scene = Scene()
        scene.add("bike", object_by_name("bike"), position=(0, 0, 1.0))
        one = model.frame_time_ms(scene)
        scene.add("plane", object_by_name("plane"), position=(0.5, 0, 1.0))
        two = model.frame_time_ms(scene)
        assert two > one > 4.0

    def test_decimation_reduces_frame_time(self):
        model = RenderLoadModel()
        scene = Scene()
        scene.add("bike", object_by_name("bike"), position=(0, 0, 1.0))
        full = model.frame_time_ms(scene)
        scene.apply_ratios({"bike": 0.2})
        assert model.frame_time_ms(scene) < full

    def test_invalid_costs_rejected(self):
        scene = Scene()
        with pytest.raises(ConfigurationError):
            RenderLoadModel().frame_time_ms(scene, base_frame_ms=-1.0)


class TestLengthScaleSelection:
    def test_selects_matching_scale_for_wiggly_data(self, rng):
        x = np.linspace(0, 3, 40)[:, None]
        y = np.sin(6 * x[:, 0])  # short correlation length
        gp = GaussianProcess(kernel=Matern(length_scale=1.0), noise=1e-6)
        tuned = gp.optimized_over_length_scales(x, y, (0.25, 1.0, 4.0))
        assert tuned.kernel.length_scale == 0.25

    def test_selects_long_scale_for_smooth_data(self, rng):
        x = np.linspace(0, 3, 25)[:, None]
        y = 0.5 * x[:, 0]  # very smooth
        gp = GaussianProcess(kernel=RBF(length_scale=1.0), noise=1e-6)
        tuned = gp.optimized_over_length_scales(x, y, (0.25, 4.0))
        assert tuned.kernel.length_scale == 4.0

    def test_tuned_model_predicts_better(self, rng):
        x = rng.uniform(0, 3, size=(35, 1))
        y = np.sin(6 * x[:, 0])
        x_test = rng.uniform(0.2, 2.8, size=(20, 1))
        y_test = np.sin(6 * x_test[:, 0])
        wide = GaussianProcess(kernel=Matern(length_scale=4.0), noise=1e-6).fit(x, y)
        tuned = GaussianProcess(
            kernel=Matern(length_scale=4.0), noise=1e-6
        ).optimized_over_length_scales(x, y, (0.25, 0.5, 4.0))
        err_wide = np.mean((wide.predict(x_test).mean - y_test) ** 2)
        err_tuned = np.mean((tuned.predict(x_test).mean - y_test) ** 2)
        assert err_tuned <= err_wide

    def test_invalid_grid_rejected(self, rng):
        x = rng.uniform(0, 1, size=(5, 1))
        y = x[:, 0]
        gp = GaussianProcess()
        with pytest.raises(GPFitError):
            gp.optimized_over_length_scales(x, y, ())
        with pytest.raises(GPFitError):
            gp.optimized_over_length_scales(x, y, (0.0,))

    def test_unsupported_kernel_rejected(self, rng):
        x = rng.uniform(0, 1, size=(5, 1))
        gp = GaussianProcess(kernel=WhiteNoise(0.1))
        with pytest.raises(GPFitError, match="cannot vary"):
            gp.optimized_over_length_scales(x, x[:, 0], (1.0,))
