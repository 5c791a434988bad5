"""Property-based tests (hypothesis) on the core invariants.

These hammer the algebraic pieces the rest of the system leans on: the
simplex projection, the counts/allocation heuristics, the TD budget
accounting, Eq. 1/Eq. 4 bounds, the GP posterior, and the contention
model's monotonicity.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ar.degradation import DegradationModel, DegradationParams
from repro.ar.distribution import (
    MIN_OBJECT_RATIO,
    achieved_ratio,
    distribute_triangles,
)
from repro.ar.objects import object_by_name
from repro.bo.gp import GaussianProcess
from repro.bo.space import HBOSpace, SimplexSpace
from repro.core.allocation import allocate_tasks, proportions_to_counts
from repro.core.controller import HBOConfig
from repro.core.lookup import EnvironmentSignature
from repro.core.cost import normalized_average_latency
from repro.device.contention import ContentionModel, SystemLoad, TaskPlacement
from repro.device.profiles import GALAXY_S22, PIXEL7, get_profile
from repro.device.resources import Resource
from repro.device.soc import galaxy_s22_soc
from repro.fleet import FleetConfig, SessionSpec, run_fleet
from repro.models.tasks import taskset_cf1
from repro.rng import make_rng, spawn_rngs
from repro.fleet.export import fleet_result_to_dict

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestSimplexProperties:
    @given(
        v=hnp.arrays(np.float64, st.integers(2, 8), elements=finite_floats)
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_always_feasible(self, v):
        space = SimplexSpace(v.shape[0])
        projected = space.project(v)
        assert projected.shape == v.shape
        assert np.all(projected >= -1e-12)
        assert np.sum(projected) == pytest.approx(1.0, abs=1e-9)

    @given(
        v=hnp.arrays(np.float64, st.integers(2, 6), elements=finite_floats),
        scale=st.floats(min_value=0.001, max_value=10.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_perturb_closed(self, v, scale, seed):
        space = SimplexSpace(v.shape[0])
        start = space.project(v)
        out = space.perturb(start, scale, np.random.default_rng(seed))
        assert space.contains(out)

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_hbo_space_samples_feasible(self, seed, n):
        space = HBOSpace(n, r_min=0.1)
        z = space.sample(np.random.default_rng(seed), size=8)
        for row in z:
            assert space.contains(row)


class TestAllocationProperties:
    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=3, max_size=3
        ),
        m=st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_partition_m(self, weights, m):
        c = np.asarray(weights) / np.sum(weights)
        counts = proportions_to_counts(c, m)
        assert sum(counts) == m
        assert all(k >= 0 for k in counts)
        # Nobody exceeds its fair share by more than 1 task.
        for ci, ki in zip(c, counts):
            assert ki <= int(np.floor(ci * m)) + 1

    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=3, max_size=3
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_allocation_is_total_and_compatible(self, weights):
        taskset = taskset_cf1(PIXEL7)
        c = np.asarray(weights) / np.sum(weights)
        counts = proportions_to_counts(c, len(taskset))
        allocation = allocate_tasks(taskset, counts)
        assert set(allocation) == set(taskset.task_ids)
        for task in taskset:
            assert task.profile.supports(allocation[task.task_id])


class TestTDProperties:
    @given(
        x=st.floats(min_value=0.15, max_value=1.0),
        d1=st.floats(min_value=0.4, max_value=4.0),
        d2=st.floats(min_value=0.4, max_value=4.0),
        d3=st.floats(min_value=0.4, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_budget_and_bounds(self, x, d1, d2, d3):
        objects = {
            "bike": object_by_name("bike"),
            "plane": object_by_name("plane"),
            "cabin": object_by_name("cabin"),
        }
        distances = {"bike": d1, "plane": d2, "cabin": d3}
        ratios = distribute_triangles(objects, distances, x)
        assert set(ratios) == set(objects)
        for r in ratios.values():
            assert MIN_OBJECT_RATIO - 1e-9 <= r <= 1.0 + 1e-9
        assert achieved_ratio(objects, ratios) == pytest.approx(
            max(x, MIN_OBJECT_RATIO), abs=0.05
        )


class TestDegradationProperties:
    @given(
        a=st.floats(min_value=0.0, max_value=2.0),
        b=st.floats(min_value=-4.0, max_value=0.0),
        d=st.floats(min_value=0.0, max_value=2.0),
        ratio=st.floats(min_value=0.01, max_value=1.0),
        distance=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_always_in_unit_interval(self, a, b, d, ratio, distance):
        params = DegradationParams(a=a, b=b, c=-(a + b), d=d)
        error = DegradationModel(params).error(ratio, distance)
        assert 0.0 <= error <= 1.0

    @given(
        ratio=st.floats(min_value=0.05, max_value=1.0),
        near=st.floats(min_value=0.3, max_value=2.0),
        extra=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_error_non_increasing_in_distance(self, ratio, near, extra):
        params = DegradationParams(a=1.2, b=-2.8, c=1.6, d=1.0)
        model = DegradationModel(params)
        assert model.error(ratio, near + extra) <= model.error(ratio, near) + 1e-12


class TestCostProperties:
    @given(
        latencies=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=500.0),
                st.floats(min_value=0.1, max_value=500.0),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_eq4_bounds(self, latencies):
        measured = {f"t{i}": m for i, (m, _e) in enumerate(latencies)}
        expected = {f"t{i}": e for i, (_m, e) in enumerate(latencies)}
        eps = normalized_average_latency(measured, expected)
        per_task = [(m - e) / e for m, e in latencies]
        assert min(per_task) - 1e-9 <= eps <= max(per_task) + 1e-9


class TestGPProperties:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(3, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_posterior_std_positive_and_small_at_training_points(self, seed, n):
        gen = np.random.default_rng(seed)
        x = gen.uniform(0, 1, size=(n, 2))
        y = np.sin(x[:, 0] * 3) + x[:, 1]
        gp = GaussianProcess(noise=1e-6).fit(x, y)
        post = gp.predict(x)
        assert np.all(post.std > 0)
        far = gp.predict(np.array([[10.0, 10.0]]))
        assert far.std[0] >= post.std.max() - 1e-9


class TestContentionProperties:
    @given(
        triangles=st.floats(min_value=0, max_value=2_000_000),
        extra=st.floats(min_value=0, max_value=2_000_000),
        n_objects=st.integers(0, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_latency_monotone_in_rendered_triangles(
        self, triangles, extra, n_objects
    ):
        model = ContentionModel(galaxy_s22_soc())
        placements = [
            TaskPlacement(
                "t", get_profile(GALAXY_S22, "deeplabv3"), Resource.NNAPI
            )
        ]

        def latency(tri):
            return model.latencies(
                placements,
                SystemLoad(
                    rendered_triangles=tri,
                    n_objects=n_objects,
                    submitted_triangles=2 * tri,
                ),
            )["t"]

        assert latency(triangles + extra) >= latency(triangles) - 1e-9

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_latency_never_below_isolation(self, seed):
        """Contention can only hurt: no placement under load beats the
        isolation profile."""
        gen = np.random.default_rng(seed)
        model = ContentionModel(galaxy_s22_soc())
        profile = get_profile(GALAXY_S22, "mobilenet-v1")
        resources = [Resource.CPU, Resource.GPU_DELEGATE, Resource.NNAPI]
        placements = [
            TaskPlacement(f"t{i}", profile, resources[gen.integers(0, 3)])
            for i in range(int(gen.integers(1, 6)))
        ]
        load = SystemLoad(
            rendered_triangles=float(gen.uniform(0, 1e6)),
            n_objects=int(gen.integers(0, 10)),
            submitted_triangles=float(gen.uniform(1e6, 2e6)),
        )
        latencies = model.latencies(placements, load)
        for placement in placements:
            iso = placement.profile.latency(placement.resource)
            assert latencies[placement.task_id] >= iso - 1e-9


class TestSceneProperties:
    @given(
        positions=st.lists(
            st.tuples(
                st.floats(min_value=-3, max_value=3, allow_nan=False),
                st.floats(min_value=-3, max_value=3, allow_nan=False),
                st.floats(min_value=-3, max_value=3, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        x=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scene_triangle_accounting_closed(self, positions, x):
        """drawn = Σ ratio·max and triangle_ratio = drawn/T^max always."""
        from repro.ar.scene import Scene
        from repro.ar.objects import object_by_name

        scene = Scene()
        names = ["bike", "plane", "cabin", "hammer", "ATV", "andy",
                 "apricot", "splane"]
        for i, pos in enumerate(positions):
            scene.add(f"o{i}", object_by_name(names[i % len(names)]), pos)
        ratios = {iid: x for iid in scene.instance_ids}
        scene.apply_ratios(ratios)
        expected_drawn = sum(
            x * scene.get(iid).obj.max_triangles for iid in scene.instance_ids
        )
        assert scene.drawn_triangles == pytest.approx(expected_drawn)
        assert scene.triangle_ratio == pytest.approx(x)
        assert 0.0 <= scene.average_quality() <= 1.0


class TestRewardProperties:
    @given(
        quality=st.floats(min_value=0.0, max_value=1.0),
        epsilon=st.floats(min_value=-0.5, max_value=10.0),
        w=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_cost_is_exact_negation_and_monotone(self, quality, epsilon, w):
        from repro.core.cost import cost, reward

        assert cost(quality, epsilon, w) == pytest.approx(
            -reward(quality, epsilon, w)
        )
        # Better quality at equal latency never hurts the reward.
        if quality < 1.0:
            assert reward(min(1.0, quality + 0.1), epsilon, w) >= reward(
                quality, epsilon, w
            )


class TestEventPolicyProperties:
    @given(
        reference=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        observed=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_within_band_never_fires(self, reference, observed):
        """Rewards inside the [−10%, +5%] band (relative to the floored
        scale) must never trigger, regardless of streaks."""
        from repro.core.activation import EventBasedPolicy

        policy = EventBasedPolicy(confirmations=1)
        policy.record_reference(reference)
        scale = max(abs(reference), policy.min_scale)
        drift = (observed - reference) / scale
        fired = policy.should_activate(observed)
        if -0.10 < drift < 0.05:
            assert not fired
        else:
            assert fired


class TestRngStreamProperties:
    """reprolint's RL001 forces everything through repro.rng — these pin
    down that the plumbing actually delivers what it promises: stable
    replay from one seed and decorrelated child streams."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spawn_rngs_reproducible(self, seed):
        first = [g.normal(size=16) for g in spawn_rngs(seed, 3)]
        second = [g.normal(size=16) for g in spawn_rngs(seed, 3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spawn_rngs_decorrelated(self, seed):
        """Sibling streams share no samples and show no linear correlation
        (|r| < 0.35 is ≈5.6σ for 256 iid normals — astronomically unlikely
        to fail for genuinely independent streams)."""
        streams = spawn_rngs(seed, 4)
        draws = [g.normal(size=256) for g in streams]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.allclose(draws[i], draws[j])
                r = np.corrcoef(draws[i], draws[j])[0, 1]
                assert abs(r) < 0.35

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_children_decorrelated_from_parent(self, seed):
        parent = make_rng(seed)
        child = spawn_rngs(seed, 1)[0]
        assert not np.allclose(parent.normal(size=64), child.normal(size=64))


class TestSimplexProjectionContract:
    """The optimizer's feasibility rests on project() landing exactly on
    the probability simplex — nonnegative weights summing to 1 (±1e-9) —
    for arbitrary, even adversarially scaled, input."""

    @given(
        v=hnp.arrays(
            np.float64,
            st.integers(1, 12),
            elements=st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_projection_on_simplex_for_extreme_inputs(self, v):
        projected = SimplexSpace(v.shape[0]).project(v)
        assert np.all(projected >= 0.0)
        assert abs(float(np.sum(projected)) - 1.0) <= 1e-9

    @given(
        v=hnp.arrays(np.float64, st.integers(2, 8), elements=finite_floats)
    )
    @settings(max_examples=150, deadline=None)
    def test_projection_idempotent(self, v):
        space = SimplexSpace(v.shape[0])
        once = space.project(v)
        twice = space.project(once)
        assert np.allclose(once, twice, atol=1e-9)


signature_strategy = st.builds(
    EnvironmentSignature,
    total_max_triangles=st.floats(
        min_value=0.0, max_value=1e8, allow_nan=False, allow_infinity=False
    ),
    n_objects=st.integers(0, 200),
    mean_distance_m=st.floats(
        min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
    ),
    taskset_key=st.sampled_from([("a",), ("a", "b"), ("x", "y", "z")]),
)


class TestSignatureDistanceProperties:
    """distance_to must behave like a dissimilarity: the lookup table and
    the fleet's warm-start store both rank candidates by it."""

    @given(a=signature_strategy, b=signature_strategy)
    @settings(max_examples=300, deadline=None)
    def test_symmetric(self, a, b):
        assert a.distance_to(b) == b.distance_to(a)

    @given(a=signature_strategy, b=signature_strategy)
    @settings(max_examples=300, deadline=None)
    def test_non_negative(self, a, b):
        assert a.distance_to(b) >= 0.0

    @given(a=signature_strategy)
    @settings(max_examples=200, deadline=None)
    def test_self_distance_zero(self, a):
        assert a.distance_to(a) == 0.0

    @given(a=signature_strategy, b=signature_strategy)
    @settings(max_examples=200, deadline=None)
    def test_infinite_iff_tasksets_differ(self, a, b):
        d = a.distance_to(b)
        if a.taskset_key == b.taskset_key:
            assert np.isfinite(d)
        else:
            assert d == float("inf")


class TestFleetDeterminismProperty:
    """One seed must reproduce the whole fleet trace bit-for-bit, however
    the sessions' arrivals interleave."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        arrivals=st.lists(
            st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=5, deadline=None)
    def test_same_seed_same_trace(self, seed, arrivals):
        specs = [
            SessionSpec(session_id=f"s{i}", arrival_s=arrival_s, noise_sigma=0.02)
            for i, arrival_s in enumerate(arrivals)
        ]
        config = FleetConfig(hbo=HBOConfig(n_initial=2, n_iterations=1))
        traces = [
            json.dumps(
                fleet_result_to_dict(run_fleet(specs, seed=seed, config=config)),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert traces[0] == traces[1]
