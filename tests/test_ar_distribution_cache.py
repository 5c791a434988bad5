"""Unit tests for repro.ar.distribution (TD heuristic) and repro.ar.cache."""

import numpy as np
import pytest

from repro.ar.cache import DecimationServer, LODCache, quantize_ratio
from repro.ar import distribution as distribution_module
from repro.ar.degradation import DegradationParams, Eq1Columns, eq1_columns
from repro.ar.distribution import (
    MIN_OBJECT_RATIO,
    distribute_triangles,
    distribute_triangles_columns,
    distribute_triangles_grouped,
    greedy_optimal_distribution,
    uniform_distribution,
)
from repro.ar.objects import (
    VirtualObject,
    catalog_sc1,
    expand_instances,
    object_by_name,
)
from repro.ar.quality import average_quality
from repro.ar.scene import Scene
from repro.errors import ConfigurationError


@pytest.fixture
def sc1_objects():
    return {iid: obj for iid, obj in expand_instances(catalog_sc1())}


@pytest.fixture
def sc1_distances(sc1_objects, rng):
    return {iid: float(rng.uniform(0.8, 2.5)) for iid in sc1_objects}


def drawn_ratio(objects, ratios):
    """Overall triangle ratio x implied by a per-object ratio map."""
    total = sum(o.max_triangles for o in objects.values())
    return sum(objects[i].max_triangles * ratios[i] for i in objects) / total


class TestTD:
    def test_budget_respected(self, sc1_objects, sc1_distances):
        for x in (0.9, 0.7, 0.5, 0.3):
            ratios = distribute_triangles(sc1_objects, sc1_distances, x)
            assert drawn_ratio(sc1_objects, ratios) == pytest.approx(x, abs=0.02)

    def test_per_object_bounds(self, sc1_objects, sc1_distances):
        ratios = distribute_triangles(sc1_objects, sc1_distances, 0.5)
        for ratio in ratios.values():
            assert MIN_OBJECT_RATIO - 1e-9 <= ratio <= 1.0 + 1e-9

    def test_full_budget_keeps_everything_full(self, sc1_objects, sc1_distances):
        ratios = distribute_triangles(sc1_objects, sc1_distances, 1.0)
        assert all(r == pytest.approx(1.0, abs=1e-6) for r in ratios.values())

    def test_sensitive_objects_get_more(self, sc1_objects):
        """An object much closer to the user (larger Eq. 1 error) should
        receive a higher decimation ratio than the same object far away."""
        objects = {
            "near": object_by_name("plane"),
            "far": object_by_name("plane"),
        }
        distances = {"near": 1.0, "far": 3.0}
        ratios = distribute_triangles(objects, distances, 0.5)
        assert ratios["near"] > ratios["far"]

    def test_beats_or_matches_uniform_on_quality(self, sc1_objects, sc1_distances):
        """TD's reason to exist: higher Eq. 2 than a uniform split at the
        same total budget (allow a small tolerance for edge budgets)."""
        ids = sorted(sc1_objects)
        models = [sc1_objects[i].degradation for i in ids]
        dists = [sc1_distances[i] for i in ids]

        wins = 0
        for x in (0.8, 0.65, 0.5):
            td = distribute_triangles(sc1_objects, sc1_distances, x)
            uni = uniform_distribution(sc1_objects, sc1_distances, x)
            q_td = average_quality(models, [td[i] for i in ids], dists)
            q_uni = average_quality(models, [uni[i] for i in ids], dists)
            if q_td >= q_uni - 1e-3:
                wins += 1
        assert wins >= 2

    def test_empty_scene(self):
        assert distribute_triangles({}, {}, 0.5) == {}

    def test_validation(self, sc1_objects, sc1_distances):
        with pytest.raises(ConfigurationError):
            distribute_triangles(sc1_objects, sc1_distances, 0.0)
        with pytest.raises(ConfigurationError):
            distribute_triangles(sc1_objects, sc1_distances, 1.2)
        with pytest.raises(ConfigurationError):
            distribute_triangles(sc1_objects, {}, 0.5)
        bad_distances = dict(sc1_distances)
        bad_distances[next(iter(bad_distances))] = -1.0
        with pytest.raises(ConfigurationError):
            distribute_triangles(sc1_objects, bad_distances, 0.5)


def _scalar_td(objects, distances, triangle_ratio, reference_ratio=None):
    """The object-by-object TD loop, written out as the reference the
    column form must reproduce bit for bit."""
    if reference_ratio is None:
        reference_ratio = max(MIN_OBJECT_RATIO, triangle_ratio / 2.0)
    ids = sorted(objects)
    max_tris = np.asarray([objects[i].max_triangles for i in ids], dtype=float)
    budget = triangle_ratio * float(max_tris.sum())
    current_ratio = max(MIN_OBJECT_RATIO, triangle_ratio)
    sensitivities = np.asarray(
        [
            abs(
                objects[i].degradation.error(current_ratio, distances[i])
                - objects[i].degradation.error(reference_ratio, distances[i])
            )
            for i in ids
        ]
    )
    weights = sensitivities + 1e-6
    weights = weights / weights.sum()

    caps = max_tris.copy()
    allocation = MIN_OBJECT_RATIO * max_tris
    remaining = budget - float(allocation.sum())
    if remaining < 0:
        allocation *= budget / float(allocation.sum())
        remaining = 0.0
    active = np.ones(len(ids), dtype=bool)
    for _ in range(len(ids)):
        if remaining <= 1e-9 or not np.any(active):
            break
        w = weights * active
        if w.sum() <= 0:
            break
        w = w / w.sum()
        new_alloc = np.minimum(allocation + remaining * w, caps)
        consumed = float((new_alloc - allocation).sum())
        allocation = new_alloc
        remaining -= consumed
        active = allocation < caps - 1e-9
    ratios = allocation / max_tris
    return {i: float(np.clip(r, MIN_OBJECT_RATIO, 1.0)) for i, r in zip(ids, ratios)}


def _random_scene(rng, n_objects):
    objects, distances = {}, {}
    for j in range(n_objects):
        a = float(rng.uniform(0.2, 2.5))
        b = float(rng.uniform(-3.0 * a, -a))
        params = DegradationParams(a=a, b=b, c=-(a + b), d=float(rng.uniform(0.2, 2.0)))
        iid = f"obj{j:02d}"
        objects[iid] = VirtualObject(iid, int(rng.integers(8, 200_000)), params)
        distances[iid] = float(rng.uniform(0.3, 4.0))
    return objects, distances


class TestTDColumnForm:
    def test_bitwise_equal_to_scalar_loop(self):
        """One TD body, same bits as the object-by-object loop: random
        scenes of 1-20 objects, budgets above and below the aggregate
        floor, default and explicit reference ratios. Each scene's first
        ratio and every explicit reference are values whose libm square
        ``x**2`` differs from ``x*x``, so squaring the wrong way cannot
        pass."""
        rng = np.random.default_rng(2024)
        draws = rng.uniform(0.05, 1.0, 100_000).tolist()
        libm_squares = [v for v in draws if v**2 != v * v] or [0.5]
        for scene in range(500):
            objects, distances = _random_scene(rng, 1 + scene % 20)
            hard = libm_squares[scene % len(libm_squares)]
            xs = [hard, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.001, 0.05)), 1.0]
            for x in xs:
                for ref in (None, libm_squares[(7 * scene + 3) % len(libm_squares)]):
                    got = distribute_triangles(objects, distances, x, ref)
                    assert got == _scalar_td(objects, distances, x, ref)

    @staticmethod
    def _columns(objects, distances):
        ids = sorted(objects)
        max_tris = np.asarray([objects[i].max_triangles for i in ids], dtype=float)
        eq1 = eq1_columns([objects[i].params for i in ids], [distances[i] for i in ids])
        return max_tris, eq1

    def test_rows_are_independent(self, sc1_objects, sc1_distances, rng):
        max_tris, eq1 = self._columns(sc1_objects, sc1_distances)
        xs = np.concatenate([rng.uniform(0.001, 1.0, 64), [1.0, 0.02]])
        batch = distribute_triangles_columns(max_tris, eq1, xs)
        for k, x in enumerate(xs.tolist()):
            alone = distribute_triangles_columns(max_tris, eq1, [x])
            assert alone[0].tolist() == batch[k].tolist()
            mapped = distribute_triangles(sc1_objects, sc1_distances, x)
            assert list(mapped) == sorted(sc1_objects)
            assert list(mapped.values()) == batch[k].tolist()
        reversed_batch = distribute_triangles_columns(max_tris, eq1, xs[::-1])
        assert reversed_batch[::-1].tolist() == batch.tolist()

    def test_batch_validation(self, sc1_objects, sc1_distances):
        max_tris, eq1 = self._columns(sc1_objects, sc1_distances)
        with pytest.raises(ConfigurationError):
            distribute_triangles_columns(max_tris, eq1, [])
        for bad in ([0.5, 0.0], [1.2], [0.5, float("nan")], [-0.1]):
            with pytest.raises(ConfigurationError):
                distribute_triangles_columns(max_tris, eq1, bad)
        with pytest.raises(ConfigurationError):
            distribute_triangles_columns(max_tris, eq1, [0.5], 1.5)
        with pytest.raises(ConfigurationError):
            distribute_triangles_columns(max_tris, eq1, [0.5, 0.6], [0.4, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "allocator",
        [
            distribute_triangles,
            uniform_distribution,
            greedy_optimal_distribution,
        ],
        ids=["td", "uniform", "greedy"],
    )
    def test_non_finite_distance_rejected(
        self, sc1_objects, sc1_distances, allocator, bad
    ):
        distances = dict(sc1_distances)
        distances[next(iter(distances))] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            allocator(sc1_objects, distances, 0.5)


class TestGroupedTD:
    """TD over R scenes' columns in one call gives every scene, bit for
    bit, the row it gets alone from the mapping ``distribute_triangles``."""

    @staticmethod
    def _scene(rng, n_objects):
        objects, _ = _random_scene(rng, n_objects)
        scene = Scene(user_position=rng.uniform(-1.0, 1.0, 3))
        # Insertion order differs from the sorted-id order TD reads.
        for iid in rng.permutation(sorted(objects)).tolist():
            scene.add(iid, objects[iid], rng.uniform(-3.0, 3.0, 3))
        return scene, objects

    @staticmethod
    def _alone(scene, objects, x, reference=None):
        ratios = distribute_triangles(objects, scene.distances(), x, reference)
        assert list(ratios) == [scene.columns.ids[j] for j in scene.columns.order]
        return list(ratios.values())

    @pytest.mark.parametrize("n_objects", [1, 7, 9, 12])
    def test_equal_counts_match_alone(self, n_objects):
        rng = np.random.default_rng(300 + n_objects)
        # Below the aggregate floor, mid-range, near-full (caps bind),
        # full, and one row with its own explicit reference ratio.
        xs = [0.01, float(rng.uniform(0.2, 0.6)), 0.97, 1.0, float(rng.uniform(0.05, 1.0))]
        refs = [0.5, 0.5, 0.5, 0.5, 0.3]
        scenes = [self._scene(rng, n_objects) for _ in xs]
        rows = distribute_triangles_grouped([s.columns for s, _ in scenes], xs, refs)
        capped = False
        for (scene, objects), x, ref, row in zip(scenes, xs, refs, rows):
            alone = self._alone(scene, objects, x, ref)
            assert row.tolist() == alone
            capped |= x < 1.0 and 1.0 in alone
        assert capped or n_objects == 1
        # The body on stacked (R, L) blocks, default reference per row.
        blocks = [scene.columns.td_columns() for scene, _ in scenes]
        stacked = distribute_triangles_columns(
            np.stack([max_tris for max_tris, _ in blocks]),
            Eq1Columns(*(np.stack(f) for f in zip(*(eq1 for _, eq1 in blocks)))),
            xs,
        )
        for (scene, objects), x, row in zip(scenes, xs, stacked):
            assert row.tolist() == self._alone(scene, objects, x)

    def test_one_call_per_object_count(self, monkeypatch):
        rng = np.random.default_rng(41)
        counts = [9, 7, 12, 9, 1, 7, 12, 9]
        scenes = [self._scene(rng, n) for n in counts]
        xs = rng.uniform(0.01, 1.0, len(counts)).tolist()
        calls = []
        real = distribution_module.distribute_triangles_columns

        def counted(max_tris, eq1, x, reference=None):
            calls.append(max_tris.shape)
            return real(max_tris, eq1, x, reference)

        monkeypatch.setattr(distribution_module, "distribute_triangles_columns", counted)
        rows = distribute_triangles_grouped(
            [s.columns for s, _ in scenes], xs, [0.5] * len(counts)
        )
        assert sorted(calls) == [(1, 1), (2, 7), (2, 12), (3, 9)]
        for (scene, objects), x, row in zip(scenes, xs, rows):
            assert row.tolist() == self._alone(scene, objects, x, 0.5)

    def test_validation(self):
        scene, _ = self._scene(np.random.default_rng(3), 4)
        max_tris, eq1 = scene.columns.td_columns()
        for bad_x, bad_ref in (([0.0], 0.5), ([0.5], 0.0), ([0.5], float("nan")), ([], 0.5)):
            with pytest.raises(ConfigurationError):
                distribute_triangles_columns(max_tris, eq1, bad_x, bad_ref)


class TestGreedyOptimal:
    def test_budget_respected(self, sc1_objects, sc1_distances):
        ratios = greedy_optimal_distribution(sc1_objects, sc1_distances, 0.6)
        assert drawn_ratio(sc1_objects, ratios) == pytest.approx(0.6, abs=0.05)

    def test_at_least_as_good_as_uniform(self, sc1_objects, sc1_distances):
        ids = sorted(sc1_objects)
        models = [sc1_objects[i].degradation for i in ids]
        dists = [sc1_distances[i] for i in ids]
        greedy = greedy_optimal_distribution(sc1_objects, sc1_distances, 0.5)
        uni = uniform_distribution(sc1_objects, sc1_distances, 0.5)
        q_greedy = average_quality(models, [greedy[i] for i in ids], dists)
        q_uni = average_quality(models, [uni[i] for i in ids], dists)
        assert q_greedy >= q_uni - 1e-6

    def test_invalid_chunks_rejected(self, sc1_objects, sc1_distances):
        with pytest.raises(ConfigurationError):
            greedy_optimal_distribution(sc1_objects, sc1_distances, 0.5, n_chunks=0)


class TestLODCache:
    def test_quantize(self):
        assert quantize_ratio(0.714) == pytest.approx(0.72)
        assert quantize_ratio(1.0) == 1.0
        assert quantize_ratio(0.001) == pytest.approx(0.02)  # never below a quantum
        with pytest.raises(ConfigurationError):
            quantize_ratio(0.0)

    def test_hit_miss_accounting(self):
        cache = LODCache(max_entries=4)
        mesh = object_by_name("cabin").mesh(500)
        assert cache.get("cabin", 0.5) is None
        cache.put("cabin", 0.5, mesh)
        assert cache.get("cabin", 0.5) is mesh
        assert cache.get("cabin", 0.508) is mesh  # same quantized key
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction(self):
        cache = LODCache(max_entries=2)
        mesh = object_by_name("cabin").mesh(500)
        cache.put("a", 0.5, mesh)
        cache.put("b", 0.5, mesh)
        cache.get("a", 0.5)  # refresh 'a'
        cache.put("c", 0.5, mesh)  # evicts 'b'
        assert cache.get("b", 0.5) is None
        assert cache.get("a", 0.5) is mesh

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            LODCache(max_entries=0)


class TestDecimationServer:
    def test_fetch_decimates_and_caches(self):
        server = DecimationServer(mesh_resolution=800)
        obj = object_by_name("hammer")
        first = server.fetch(obj, 0.4)
        assert not first.from_cache
        assert first.latency_ms > 0
        assert first.mesh.n_triangles < obj.mesh(800).n_triangles
        second = server.fetch(obj, 0.41)  # same quantized LOD
        assert second.from_cache
        assert second.latency_ms == 0.0

    def test_full_ratio_serves_original(self):
        server = DecimationServer(mesh_resolution=800)
        obj = object_by_name("cabin")
        result = server.fetch(obj, 1.0)
        assert result.mesh.n_triangles == obj.mesh(800).n_triangles

    def test_transfer_latency_scales_with_triangles(self):
        server = DecimationServer(rtt_ms=10, ms_per_million_triangles=100)
        small = server.fetch(object_by_name("cabin"), 0.5)  # 2.3k tris
        large = server.fetch(object_by_name("bike"), 0.5)  # 178k tris
        assert large.latency_ms > small.latency_ms

    def test_train_parameters_produces_decreasing_error(self):
        server = DecimationServer(mesh_resolution=600)
        params = server.train_parameters(object_by_name("ATV"), seed=5)
        from repro.ar.degradation import DegradationModel

        model = DegradationModel(params)
        assert model.error(0.15, 1.0) > model.error(0.8, 1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            DecimationServer(rtt_ms=-1)
