"""Unit tests for repro.ar.objects, repro.ar.scene and repro.ar.renderer."""

import numpy as np
import pytest

from repro.ar.objects import (
    VirtualObject,
    catalog_sc1,
    catalog_sc2,
    expand_instances,
    object_by_name,
    total_max_triangles,
)
from repro.ar.renderer import RenderLoadModel
from repro.ar.scene import MIN_DISTANCE_M, PlacedObject, Scene
from repro.errors import ConfigurationError, SceneError


class TestCatalogs:
    def test_sc1_matches_table2(self):
        catalog = dict((obj.name, (obj.max_triangles, count)) for obj, count in catalog_sc1())
        assert catalog["apricot"] == (86_016, 1)
        assert catalog["bike"] == (178_552, 1)
        assert catalog["plane"] == (146_803, 4)
        assert catalog["splane"] == (146_803, 1)
        assert catalog["Cocacola"] == (94_080, 2)
        assert total_max_triangles(catalog_sc1()) == 1_186_743

    def test_sc2_matches_table2(self):
        catalog = dict((obj.name, (obj.max_triangles, count)) for obj, count in catalog_sc2())
        assert catalog["cabin"] == (2_324, 1)
        assert catalog["andy"] == (2_304, 2)
        assert catalog["ATV"] == (4_907, 2)
        assert catalog["hammer"] == (6_250, 2)

    def test_sc1_much_heavier_than_sc2(self):
        assert total_max_triangles(catalog_sc1()) > 30 * total_max_triangles(
            catalog_sc2()
        )

    def test_expand_instances_naming(self):
        ids = [iid for iid, _obj in expand_instances(catalog_sc1())]
        assert "apricot" in ids  # single instance keeps asset name
        assert "plane_1" in ids and "plane_4" in ids
        assert len(ids) == 9

    def test_object_by_name(self):
        assert object_by_name("bike").max_triangles == 178_552
        with pytest.raises(SceneError):
            object_by_name("teapot")

    def test_with_fitted_params_runs_pipeline(self):
        obj = VirtualObject.with_fitted_params("custom-vase", 5_000, seed=1)
        assert obj.degradation.error(0.2, 1.0) > obj.degradation.error(0.9, 1.0)

    def test_tiny_object_rejected(self):
        params = catalog_sc1()[0][0].params
        with pytest.raises(ConfigurationError):
            VirtualObject(name="dust", max_triangles=4, params=params)


class TestScene:
    @pytest.fixture
    def scene(self):
        scene = Scene(user_position=(0, 0, 0))
        scene.add("bike", object_by_name("bike"), position=(0, 0, 2.0))
        scene.add("apricot", object_by_name("apricot"), position=(1.0, 0, 0))
        return scene

    def test_add_and_query(self, scene):
        assert len(scene) == 2
        assert "bike" in scene
        assert scene.get("bike").obj.name == "bike"

    def test_duplicate_instance_rejected(self, scene):
        with pytest.raises(SceneError, match="already placed"):
            scene.add("bike", object_by_name("bike"), position=(0, 0, 1))

    def test_remove(self, scene):
        scene.remove("apricot")
        assert len(scene) == 1
        with pytest.raises(SceneError):
            scene.remove("apricot")

    def test_distances(self, scene):
        assert scene.distances() == pytest.approx({"bike": 2.0, "apricot": 1.0})

    def test_distance_clamped_near_user(self, scene):
        scene.add("near", object_by_name("cabin"), position=(0, 0, 0.01))
        assert scene.distances()["near"] == MIN_DISTANCE_M

    def test_move_user_updates_distances(self, scene):
        scene.move_user((0, 0, 1.0))
        assert scene.distances()["bike"] == pytest.approx(1.0)

    def test_ratios_and_triangle_accounting(self, scene):
        assert scene.triangle_ratio == pytest.approx(1.0)
        scene.apply_sorted_ratios(np.array([0.5, 0.5]))
        assert scene.triangle_ratio == pytest.approx(0.5)
        expected_drawn = 0.5 * (178_552 + 86_016)
        assert scene.drawn_triangles == pytest.approx(expected_drawn)

    def test_quality_full_ratio_is_one(self, scene):
        assert scene.average_quality() == pytest.approx(1.0, abs=1e-9)

    def test_quality_drops_with_decimation(self, scene):
        scene.apply_sorted_ratios(np.array([0.3, 0.3]))
        assert scene.average_quality() < 0.95

    def test_invalid_ratio_rejected(self, scene):
        with pytest.raises(SceneError):
            scene.apply_sorted_ratios(np.array([1.0, 0.0]))
        with pytest.raises(SceneError):
            scene.apply_sorted_ratios(np.array([1.0, 1.2]))

    def test_empty_scene_aggregates(self):
        scene = Scene()
        assert scene.triangle_ratio == 1.0
        assert scene.average_quality() == 1.0
        assert scene.drawn_triangles == 0.0

    def test_invalid_positions_rejected(self):
        scene = Scene()
        with pytest.raises(SceneError):
            scene.add("x", object_by_name("bike"), position=(1.0, 2.0))
        with pytest.raises(SceneError):
            scene.move_user((np.nan, 0, 0))

    @pytest.mark.parametrize(
        "position", [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf), (1.0, 2.0)]
    )
    def test_invalid_user_position_rejected_at_construction(self, position):
        with pytest.raises(SceneError, match="user position"):
            Scene(user_position=position)

    def test_apply_sorted_ratios_is_atomic(self, scene):
        scene.apply_sorted_ratios(np.array([0.6, 0.7]))
        with pytest.raises(SceneError, match="ratios in"):
            scene.apply_sorted_ratios(np.array([0.5, 1.5]))
        assert scene.ratios() == {"bike": 0.7, "apricot": 0.6}
        with pytest.raises(SceneError, match="need 2 ratios"):
            scene.apply_sorted_ratios(np.array([0.5, 0.5, 0.5]))
        assert scene.ratios() == {"bike": 0.7, "apricot": 0.6}

    def test_positions_are_copied_on_the_way_in(self, scene):
        user = np.array([0.0, 0.0, 1.0])
        scene.move_user(user)
        user[2] = 5.0  # the scene caches distances; a caller's array must not alias
        assert scene.distances()["bike"] == 1.0
        assert scene.user_position.tolist() == [0.0, 0.0, 1.0]

    def test_columns_are_read_only_snapshots(self, scene):
        cols = scene.columns
        assert cols.ids == ("bike", "apricot")
        with pytest.raises(ValueError):
            cols.ratios[0] = 0.5
        scene.apply_sorted_ratios(np.array([1.0, 0.5]))
        assert cols.ratios.tolist() == [1.0, 1.0]
        assert scene.columns.ratios.tolist() == [0.5, 1.0]

    def test_remove_keeps_insertion_order(self, scene):
        scene.add("cabin", object_by_name("cabin"), position=(0, 1.0, 0), ratio=0.4)
        scene.remove("bike")
        assert scene.columns.ids == ("apricot", "cabin")
        assert [p.instance_id for p in scene] == ["apricot", "cabin"]
        assert scene.ratios() == {"apricot": 1.0, "cabin": 0.4}
        assert scene.distances() == {"apricot": 1.0, "cabin": 1.0}


def _per_object_reference(scene, model):
    """The per-object loops the scene columns replaced: every quantity
    accumulated object by object, in insertion order, with Python floats."""
    placed = scene.snapshot()
    user = scene.user_position
    distances = [
        max(MIN_DISTANCE_M, float(np.linalg.norm(p.position - user))) for p in placed
    ]
    drawn = total_max = rendered = quality = 0.0
    for p, dist in zip(placed, distances):
        drawn += p.drawn_triangles
        total_max += p.obj.max_triangles
        rendered += p.drawn_triangles * model.culled_fraction(dist)
        quality += p.obj.degradation.quality(p.ratio, dist)
    return {
        "distances": dict(zip([p.instance_id for p in placed], distances)),
        "drawn_triangles": drawn,
        "triangle_ratio": drawn / total_max if total_max > 0 else 1.0,
        "average_quality": quality / len(placed) if placed else 1.0,
        "rendered_triangles": rendered,
    }


class TestSceneColumnParity:
    """The column expressions are bit-identical (``==``) to the per-object
    loops, through add / remove / move_user / apply_sorted_ratios
    sequences."""

    ASSETS = [obj for obj, _count in catalog_sc1() + catalog_sc2()]

    def _observed(self, scene, model):
        return {
            "distances": scene.distances(),
            "drawn_triangles": scene.drawn_triangles,
            "triangle_ratio": scene.triangle_ratio,
            "average_quality": scene.average_quality(),
            "rendered_triangles": model.rendered_triangles(scene),
        }

    def _random_position(self, rng):
        if rng.random() < 0.1:  # inside the near-plane clamp
            return rng.uniform(-0.1, 0.1, 3)
        return rng.uniform(-3.0, 3.0, 3)

    @pytest.mark.parametrize("n_objects", range(1, 21))
    def test_columns_match_per_object_loops(self, n_objects):
        rng = np.random.default_rng(1000 + n_objects)
        model = RenderLoadModel(falloff=float(rng.uniform(0.2, 1.5)))
        scene = Scene(user_position=rng.uniform(-1.0, 1.0, 3))
        serial = 0

        def add_one():
            nonlocal serial
            asset = self.ASSETS[int(rng.integers(len(self.ASSETS)))]
            scene.add(
                f"obj{serial}",
                asset,
                self._random_position(rng),
                ratio=float(rng.uniform(0.05, 1.0)),
            )
            serial += 1

        for _ in range(n_objects):
            add_one()
        assert self._observed(scene, model) == _per_object_reference(scene, model)
        for step in range(24):
            op = step % 4
            ids = scene.columns.ids
            if op == 0:
                picked = rng.permutation(len(ids))[: int(rng.integers(1, len(ids) + 1))]
                ratios = scene.ratios()
                ratios.update({ids[j]: float(rng.uniform(0.05, 1.0)) for j in picked})
                scene.apply_sorted_ratios(np.array([ratios[i] for i in sorted(ratios)]))
            elif op == 1:
                scene.move_user(self._random_position(rng))
            elif op == 2 and len(ids) > 1:
                scene.remove(ids[int(rng.integers(len(ids)))])
            else:
                add_one()
            assert self._observed(scene, model) == _per_object_reference(scene, model)


class TestSortedIdColumns:
    """TD reads the scene through its sorted-id permutation and writes
    its ratio row back through it."""

    def _scene(self):
        scene = Scene(user_position=(0.2, -0.1, 0.0))
        for j, (iid, obj) in enumerate(expand_instances(catalog_sc1())[::-1]):
            scene.add(iid, obj, position=(0.3 * j - 1.0, 0.5, 1.2))
        assert list(scene.columns.ids) != sorted(scene.columns.ids)
        return scene

    def test_td_columns_follow_sorted_ids(self):
        scene = self._scene()
        max_tris, eq1 = scene.columns.td_columns()
        ids = sorted(scene.columns.ids)
        assert max_tris.tolist() == [scene.get(i).obj.max_triangles for i in ids]
        distances = scene.distances()
        assert eq1.denom.tolist() == [
            distances[i] ** scene.get(i).obj.params.d for i in ids
        ]

    def test_apply_sorted_ratios(self):
        scene = self._scene()
        ids = sorted(scene.columns.ids)
        row = np.linspace(0.1, 0.9, len(ids))
        drawn = scene.apply_sorted_ratios(row)
        assert list(drawn) == ids
        assert drawn == scene.ratios() == dict(zip(ids, row.tolist()))
        before = scene.ratios()
        for bad in (row[:-1], np.append(row[:-1], 1.5), np.append(row[:-1], 0.0)):
            with pytest.raises(SceneError):
                scene.apply_sorted_ratios(bad)
        assert scene.ratios() == before


class TestRenderLoadModel:
    def test_culled_fraction_decreases_with_distance(self):
        model = RenderLoadModel()
        fractions = [model.culled_fraction(d) for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    def test_culled_fraction_floor(self):
        model = RenderLoadModel(min_fraction=0.35, backface_fraction=0.6)
        assert model.culled_fraction(100.0) == pytest.approx(0.6 * 0.35)

    def test_rendered_triangles_scale_with_ratio(self):
        scene = Scene()
        scene.add("bike", object_by_name("bike"), position=(0, 0, 1.0))
        model = RenderLoadModel()
        full = model.rendered_triangles(scene)
        scene.apply_sorted_ratios(np.array([0.5]))
        assert model.rendered_triangles(scene) == pytest.approx(0.5 * full)

    def test_culling_recomputed_only_on_scene_change(self, monkeypatch):
        """Ratio changes reuse the culling column; geometry changes
        (user move, object add) recompute it."""
        calls = []
        original = RenderLoadModel.culled_fractions

        def culled_fractions(model, distances_m):
            calls.append(len(distances_m))
            return original(model, distances_m)

        monkeypatch.setattr(RenderLoadModel, "culled_fractions", culled_fractions)
        scene = Scene()
        scene.add("bike", object_by_name("bike"), position=(0, 0, 1.0))
        model = RenderLoadModel()
        model.rendered_triangles(scene)
        scene.apply_sorted_ratios(np.array([0.5]))
        model.rendered_triangles(scene)
        assert calls == [1]
        scene.move_user((0.0, 0.0, -1.0))
        moved = model.rendered_triangles(scene)
        assert calls == [1, 1]
        assert moved == RenderLoadModel().rendered_triangles(scene)
        scene.add("bike2", object_by_name("bike"), position=(0, 1.0, 1.0))
        model.rendered_triangles(scene)
        assert calls == [1, 1, 1, 2]

    def test_system_load_fields(self):
        scene = Scene()
        scene.add("bike", object_by_name("bike"), position=(0, 0, 1.0))
        model = RenderLoadModel(base_gpu_streams=0.5)
        load = model.system_load(scene)
        assert load.n_objects == 1
        assert load.base_gpu_streams == 0.5
        assert load.submitted_triangles == pytest.approx(scene.drawn_triangles)
        assert load.rendered_triangles < load.submitted_triangles

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            RenderLoadModel(backface_fraction=0.0)
        with pytest.raises(ConfigurationError):
            RenderLoadModel(min_fraction=1.5)
        with pytest.raises(ConfigurationError):
            RenderLoadModel(base_gpu_streams=-0.1)
        with pytest.raises(ConfigurationError):
            RenderLoadModel().culled_fraction(0.0)
