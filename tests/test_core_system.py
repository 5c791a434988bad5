"""Unit tests for repro.core.system (the MAR system facade)."""

import numpy as np
import pytest

from repro.core.frontier import FrontierEvaluator
from repro.core.system import MARSystem
from repro.device.resources import Resource
from repro.errors import ConfigurationError, DeviceError


class TestApply:
    def test_apply_reallocates_and_redistributes(self, sc1cf1_system):
        system = sc1cf1_system
        allocation = {tid: Resource.CPU for tid in system.taskset.task_ids}
        allocation["mobilenet-v1"] = Resource.NNAPI
        ratios = system.apply(allocation, 0.6)
        assert system.device.allocation["mobilenet-v1"] is Resource.NNAPI
        assert system.scene.triangle_ratio == pytest.approx(0.6, abs=0.02)
        assert set(ratios) == set(system.scene.columns.ids)

    def test_apply_uniform_ratio(self, sc1cf1_system):
        system = sc1cf1_system
        allocation = system.taskset.affinity_allocation()
        ratios = system.apply_uniform_ratio(allocation, 0.5)
        assert all(r == pytest.approx(0.5) for r in ratios.values())

    def test_apply_refreshes_device_load(self, sc1cf1_system):
        system = sc1cf1_system
        allocation = system.taskset.affinity_allocation()
        system.apply(allocation, 1.0)
        full = system.device.load.rendered_triangles
        system.apply(allocation, 0.3)
        assert system.device.load.rendered_triangles < full

    def test_apply_incomplete_allocation_rejected(self, sc1cf1_system):
        with pytest.raises(DeviceError):
            sc1cf1_system.apply({"mnist": Resource.CPU}, 0.5)

    @pytest.mark.parametrize("scenario", ["sc1cf1_system", "sc2cf2_system"])
    def test_frontier_draws_the_same_object_ratios(self, scenario, request):
        """One TD: a frontier row's object ratios are the bits apply draws."""
        system = request.getfixturevalue(scenario)
        frontier = FrontierEvaluator(system, w=1.0)
        n_res = system.n_resources
        draws = np.random.default_rng(3).uniform(0.05, 1.0, 20_000).tolist()
        # Ratios whose libm square differs from x*x, plus plain draws.
        xs = [v for v in draws if v**2 != v * v][:40] + draws[:10]
        for x in xs:
            z = np.concatenate([np.full(n_res, 1.0 / n_res), [x]])
            result = frontier.evaluate(z)
            drawn = system.apply(result.allocations[0], x)
            assert result.object_ratios[0].tolist() == [
                drawn[i] for i in result.object_ids
            ]


class TestMeasure:
    def test_measurement_fields_consistent(self, sc1cf1_system):
        system = sc1cf1_system
        measurement = system.measure(samples=2)
        assert set(measurement.latencies_ms) == set(system.taskset.task_ids)
        assert measurement.quality == pytest.approx(system.scene.average_quality())
        assert measurement.triangle_ratio == pytest.approx(
            system.scene.triangle_ratio
        )
        assert measurement.mean_latency_ms > 0

    def test_epsilon_uses_expected_latencies(self, sc1cf1_system):
        system = sc1cf1_system
        measurement = system.measure(samples=1)
        expected = system.taskset.expected_latencies()
        manual = sum(
            (measurement.latencies_ms[t] - expected[t]) / expected[t]
            for t in expected
        ) / len(expected)
        assert measurement.epsilon == pytest.approx(manual)

    def test_reward_matches_eq3(self, sc1cf1_system):
        measurement = sc1cf1_system.measure(samples=1)
        assert measurement.reward(2.5) == pytest.approx(
            measurement.quality - 2.5 * measurement.epsilon
        )

    def test_measure_reward_shortcut(self, sc1cf1_system):
        value = sc1cf1_system.measure_reward(2.5, samples=1)
        assert isinstance(value, float)

    def test_lower_ratio_trades_quality_for_latency(self, sc1cf1_system):
        system = sc1cf1_system
        allocation = system.taskset.affinity_allocation()
        system.apply(allocation, 1.0)
        full = system.measure(samples=1)
        system.apply(allocation, 0.4)
        reduced = system.measure(samples=1)
        assert reduced.quality < full.quality
        assert reduced.epsilon < full.epsilon


class TestConstruction:
    def test_invalid_samples_rejected(self, sc1cf1_system):
        with pytest.raises(ConfigurationError):
            MARSystem(
                sc1cf1_system.taskset,
                sc1cf1_system.device,
                sc1cf1_system.scene,
                samples_per_period=0,
            )

    def test_n_resources(self, sc1cf1_system):
        assert sc1cf1_system.n_resources == 3

    def test_objects_map(self, sc1cf1_system):
        objects = sc1cf1_system.objects_map()
        assert len(objects) == 9  # SC1 instance count
        assert "bike" in objects
