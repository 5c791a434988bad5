"""Unit tests for repro.core.cost (Eq. 3-5) and repro.core.allocation
(Algorithm 1, Lines 2-22)."""

from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest

from repro.core.allocation import (
    allocate_tasks,
    build_priority_queue,
    count_lattice,
    drain_priority_queue,
    proportions_to_counts,
)
from repro.core.cost import cost, normalized_average_latency, reward
from repro.device.profiles import PIXEL7
from repro.device.resources import ALL_RESOURCES, Resource
from repro.errors import AllocationError, ConfigurationError
from repro.models.tasks import build_taskset, taskset_cf1, taskset_cf2


class TestNormalizedLatency:
    def test_eq4_formula(self):
        measured = {"a": 20.0, "b": 30.0}
        expected = {"a": 10.0, "b": 10.0}
        # ((20-10)/10 + (30-10)/10) / 2 = 1.5
        assert normalized_average_latency(measured, expected) == pytest.approx(1.5)

    def test_zero_when_at_expected(self):
        assert normalized_average_latency({"a": 5.0}, {"a": 5.0}) == 0.0

    def test_negative_allowed_below_expected(self):
        assert normalized_average_latency({"a": 5.0}, {"a": 10.0}) < 0

    def test_empty_taskset_is_zero(self):
        assert normalized_average_latency({}, {}) == 0.0

    def test_key_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            normalized_average_latency({"a": 1.0}, {"b": 1.0})

    def test_nonpositive_expected_rejected(self):
        with pytest.raises(ConfigurationError):
            normalized_average_latency({"a": 1.0}, {"a": 0.0})


class TestRewardCost:
    def test_eq3(self):
        assert reward(quality=0.9, epsilon=0.4, w=2.5) == pytest.approx(-0.1)

    def test_cost_is_negated_reward(self):
        assert cost(0.9, 0.4, 2.5) == pytest.approx(-reward(0.9, 0.4, 2.5))

    def test_w_zero_ignores_latency(self):
        assert reward(0.8, 100.0, 0.0) == pytest.approx(0.8)

    def test_negative_w_rejected(self):
        with pytest.raises(ConfigurationError):
            reward(0.5, 0.5, -1.0)


class TestProportionsToCounts:
    def test_paper_example(self):
        """§IV-D: c = [0.4, 0.1, 0.5] with M=3 → C = [1, 0, 2]."""
        assert proportions_to_counts([0.4, 0.1, 0.5], 3) == [1, 0, 2]

    def test_counts_sum_to_m(self, rng):
        for _ in range(100):
            c = rng.dirichlet(np.ones(3))
            m = int(rng.integers(0, 12))
            counts = proportions_to_counts(c, m)
            assert sum(counts) == m
            assert all(k >= 0 for k in counts)

    def test_exact_proportions_no_remainder(self):
        assert proportions_to_counts([0.5, 0.25, 0.25], 4) == [2, 1, 1]

    def test_remainder_goes_to_highest_usage(self):
        # floors: [0,0,0], remainder 1 task → resource with highest c.
        assert proportions_to_counts([0.2, 0.7, 0.1], 1) == [0, 1, 0]

    def test_tie_broken_by_index(self):
        counts = proportions_to_counts([0.5, 0.5, 0.0], 1)
        assert counts == [1, 0, 0]

    def test_zero_tasks(self):
        assert proportions_to_counts([0.3, 0.3, 0.4], 0) == [0, 0, 0]

    def test_invalid_proportions_rejected(self):
        with pytest.raises(AllocationError):
            proportions_to_counts([0.5, 0.6], 3)  # sums to 1.1
        with pytest.raises(AllocationError):
            proportions_to_counts([-0.1, 1.1], 3)
        with pytest.raises(AllocationError):
            proportions_to_counts([], 3)
        with pytest.raises(AllocationError):
            proportions_to_counts([1.0], -1)


class TestPriorityQueue:
    def test_head_is_globally_fastest_pair(self):
        queue = build_priority_queue(taskset_cf1(PIXEL7))
        latency, task_id, _index, resource = queue[0]
        # mnist on GPU (5.8 ms) is the fastest (task, resource) pair in CF1.
        assert task_id == "mnist"
        assert resource is Resource.GPU_DELEGATE
        assert latency == pytest.approx(5.8)

    def test_entry_count_counts_compatible_pairs_only(self):
        # CF2 on Pixel 7: all three models support all three resources.
        queue = build_priority_queue(taskset_cf2(PIXEL7))
        assert len(queue) == 9

    def test_entry_count_skips_unsupported_pairs(self):
        ts = build_taskset("seg", [("mnist", 1), ("deeplabv3", 1)], device=PIXEL7)
        # mnist: 3 resources; deeplabv3 on Pixel 7: 2 (no NNAPI).
        assert len(build_priority_queue(ts)) == 5


def _former_anchors(m, n, ratios):
    """The controller's count-lattice anchors as they were built before
    ``count_lattice`` existed: a float-array row per (counts, ratio)."""
    anchors = []
    for counts in product(range(m + 1), repeat=n):
        if sum(counts) == m:
            c = np.asarray(counts, dtype=float) / m
            for x in ratios:
                anchors.append(np.concatenate([c, [x]]))
    return np.asarray(anchors)


class TestCountLattice:
    @pytest.mark.parametrize("m,n", [(6, 3), (3, 3), (6, 4), (3, 4)])
    def test_shape_sums_and_former_anchor_bytes(self, m, n):
        ratios = np.linspace(0.1, 1.0, 5)
        rows = count_lattice(m, n, ratios)
        assert rows.shape == (comb(m + n - 1, n - 1) * len(ratios), n + 1)
        np.testing.assert_allclose(rows[:, :n].sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert rows.tobytes() == _former_anchors(m, n, ratios).tobytes()

    def test_every_row_maps_back_to_its_counts(self):
        rows = count_lattice(6, 3, [0.5])
        cells = {tuple(proportions_to_counts(row[:3], 6)) for row in rows}
        assert len(cells) == len(rows) == comb(8, 2)


class TestAllocateTasks:
    def test_counts_respected(self):
        cf1 = taskset_cf1(PIXEL7)
        allocation = allocate_tasks(cf1, [3, 0, 3])
        counts = Counter(allocation.values())
        assert counts[Resource.CPU] == 3
        assert counts[Resource.GPU_DELEGATE] == 0
        assert counts[Resource.NNAPI] == 3

    def test_greedy_prefers_fast_pairs(self):
        """With CPU=3/NNAPI=3, the NNAPI-affine trio (fastest NNAPI
        latencies) must land on NNAPI and the GPU-preferring trio on CPU —
        the paper's SC1-CF1 allocation."""
        cf1 = taskset_cf1(PIXEL7)
        allocation = allocate_tasks(cf1, [3, 0, 3])
        assert allocation["mobilenetDetv1"] is Resource.NNAPI
        assert allocation["mobilenet-v1"] is Resource.NNAPI
        assert allocation["efficientclass-lite0"] is Resource.NNAPI
        assert allocation["model-metadata_1"] is Resource.CPU
        assert allocation["model-metadata_2"] is Resource.CPU
        assert allocation["mnist"] is Resource.CPU

    def test_all_one_resource(self):
        cf2 = taskset_cf2(PIXEL7)
        allocation = allocate_tasks(cf2, [0, 0, 3])
        assert all(r is Resource.NNAPI for r in allocation.values())

    def test_compatibility_fallback(self):
        """deeplabv3 on Pixel 7 has no NNAPI path; forcing all counts onto
        NNAPI must still produce a valid (fallback) assignment."""
        ts = build_taskset("seg", [("deeplabv3", 1), ("mnist", 2)], device=PIXEL7)
        allocation = allocate_tasks(ts, [0, 0, 3])
        assert allocation["deeplabv3"] in (Resource.CPU, Resource.GPU_DELEGATE)
        assert allocation["mnist_1"] is Resource.NNAPI
        assert allocation["mnist_2"] is Resource.NNAPI

    def test_every_task_assigned_exactly_once(self, rng):
        cf1 = taskset_cf1(PIXEL7)
        for _ in range(30):
            c = rng.dirichlet(np.ones(3))
            counts = proportions_to_counts(c, len(cf1))
            allocation = allocate_tasks(cf1, counts)
            assert set(allocation) == set(cf1.task_ids)
            assert all(
                t.profile.supports(allocation[t.task_id]) for t in cf1
            )

    def test_one_queue_serves_every_count_vector(self):
        """A prebuilt queue is drained from a copy: reusing it for every
        count vector gives allocate_tasks' allocations, unchanged queue."""
        ts = build_taskset("seg", [("deeplabv3", 1), ("mnist", 2)], device=PIXEL7)
        queue = build_priority_queue(ts)
        before = list(queue)
        for counts in ([3, 0, 0], [0, 0, 3], [1, 1, 1], [0, 2, 1], [2, 0, 1]):
            assert drain_priority_queue(ts, counts, ALL_RESOURCES, queue) == (
                allocate_tasks(ts, counts)
            )
        assert queue == before

    def test_count_validation(self):
        cf2 = taskset_cf2(PIXEL7)
        with pytest.raises(AllocationError):
            allocate_tasks(cf2, [1, 1])  # wrong length
        with pytest.raises(AllocationError):
            allocate_tasks(cf2, [5, 0, 0])  # wrong sum
        with pytest.raises(AllocationError):
            allocate_tasks(cf2, [-1, 2, 2])
