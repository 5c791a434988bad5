"""Unit tests for repro.baselines (SMQ, SML, BNT, AllN)."""

import dataclasses

import pytest

from repro.baselines import (
    AllNNAPIBaseline,
    BayesianNoTriangleBaseline,
    StaticMatchLatencyBaseline,
    StaticMatchQualityBaseline,
)
from repro.core.controller import HBOConfig
from repro.device.profiles import PIXEL7
from repro.device.resources import Resource
from repro.device.thermal import ThermalModel
from repro.errors import ConfigurationError
from repro.models.tasks import build_taskset
from repro.sim.scenarios import build_system


class TestSMQ:
    def test_static_affinity_allocation(self, sc1cf1_system):
        outcome = StaticMatchQualityBaseline(0.6).run(sc1cf1_system)
        assert outcome.name == "SMQ"
        affinity = sc1cf1_system.taskset.affinity_allocation()
        assert dict(outcome.allocation) == affinity
        assert outcome.triangle_ratio == 0.6

    def test_quality_matches_td_at_same_ratio(self, sc1cf1_system):
        """SMQ uses HBO's TD distribution, so its quality equals the
        scene quality at the matched ratio."""
        outcome = StaticMatchQualityBaseline(0.6).run(sc1cf1_system)
        assert outcome.quality == pytest.approx(
            sc1cf1_system.scene.average_quality()
        )

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticMatchQualityBaseline(0.0)
        with pytest.raises(ConfigurationError):
            StaticMatchQualityBaseline(1.5)


class TestSML:
    def test_reaches_easy_target(self, sc1cf1_system):
        """With a generous target, SML should stop early at high ratio."""
        generous = 100.0
        outcome = StaticMatchLatencyBaseline(generous).run(sc1cf1_system)
        assert outcome.triangle_ratio == pytest.approx(1.0)

    def test_reduces_triangles_toward_tight_target(self, sc1cf1_system):
        outcome = StaticMatchLatencyBaseline(target_epsilon=0.7).run(sc1cf1_system)
        assert outcome.triangle_ratio < 1.0

    def test_unreachable_target_stops_at_knee(self, sc1cf1_system):
        """An impossible target must not grind the scene to the minimum:
        SML settles where further decimation stops paying."""
        outcome = StaticMatchLatencyBaseline(target_epsilon=0.0).run(sc1cf1_system)
        assert outcome.triangle_ratio > 0.05  # not the floor
        assert outcome.quality > 0.1

    def test_thermal_scan_takes_the_batched_rows(self, monkeypatch):
        """On a thermal device the one-solve grid rows give the same bits
        as letting the device compute each step's steady state."""

        def run():
            system = build_system(
                "SC1", "CF1", seed=7,
                thermal=ThermalModel(ambient_c=44.0, time_constant_steps=2.0),
            )
            outcome = StaticMatchLatencyBaseline(target_epsilon=0.0).run(system)
            return outcome, system.device.thermal.temperature_c

        batched = run()
        monkeypatch.setattr(
            StaticMatchLatencyBaseline,
            "_steady_by_step",
            lambda self, system, allocation, grid: [None] * len(grid),
        )
        local = run()
        assert batched == local
        assert batched[1] > 45.0  # throttling was live

    def test_static_allocation_kept(self, sc1cf1_system):
        outcome = StaticMatchLatencyBaseline(0.5).run(sc1cf1_system)
        assert dict(outcome.allocation) == sc1cf1_system.taskset.affinity_allocation()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaticMatchLatencyBaseline(0.5, step=0.0)
        with pytest.raises(ConfigurationError):
            StaticMatchLatencyBaseline(0.5, min_ratio=0.0)
        with pytest.raises(ConfigurationError):
            StaticMatchLatencyBaseline(0.5, knee_tolerance=-0.1)


class TestBNT:
    def test_keeps_full_quality(self, sc1cf1_system, fast_config):
        outcome = BayesianNoTriangleBaseline(config=fast_config, seed=0).run(
            sc1cf1_system
        )
        assert outcome.triangle_ratio == 1.0
        assert outcome.quality == pytest.approx(1.0, abs=1e-6)

    def test_reallocates_some_task_off_nnapi_under_load(self, sc1cf1_system):
        """Under SC1's rendering pressure BNT should not park everything
        on a single delegate — some relocation spread is expected."""
        config = HBOConfig(n_initial=5, n_iterations=10)
        outcome = BayesianNoTriangleBaseline(config=config, seed=0).run(
            sc1cf1_system
        )
        resources = set(outcome.allocation.values())
        assert len(resources) >= 2

    def test_uses_latency_only_cost(self, fast_config):
        baseline = BayesianNoTriangleBaseline(config=fast_config)
        assert baseline.config.latency_only

    def test_config_keeps_every_field(self):
        config = HBOConfig(
            w=1.5, n_initial=3, n_iterations=4, r_min=0.2, kernel_length_scale=0.5,
            noise=1e-2, w_power=0.3, gp_tier="sparse", gp_sparse_threshold=8,
        )
        baseline = BayesianNoTriangleBaseline(config=config)
        assert baseline.config == dataclasses.replace(config, latency_only=True)


class TestAllN:
    def test_everything_on_nnapi(self, sc1cf1_system):
        outcome = AllNNAPIBaseline().run(sc1cf1_system)
        assert all(r is Resource.NNAPI for r in outcome.allocation.values())
        assert outcome.triangle_ratio == 1.0
        assert outcome.quality == pytest.approx(1.0, abs=1e-6)

    def test_incompatible_models_fall_back(self):
        """deeplabv3 has no NNAPI path on the Pixel 7: AllN must fall back
        to its affinity instead of crashing."""
        system = build_system("SC2", "CF2", seed=1, noise_sigma=0.0)
        # Swap in a taskset containing the incompatible model.
        taskset = build_taskset(
            "mixed", [("deeplabv3", 1), ("mnist", 1)], device=PIXEL7
        )
        system2 = build_system("SC2", "CF2", seed=1, noise_sigma=0.0)
        from repro.core.system import MARSystem
        from repro.device.executor import DeviceSimulator
        from repro.device.soc import pixel7_soc

        device = DeviceSimulator(pixel7_soc(), noise_sigma=0.0, seed=0)
        system = MARSystem(taskset, device, system2.scene)
        outcome = AllNNAPIBaseline().run(system)
        assert outcome.allocation["mnist"] is Resource.NNAPI
        assert outcome.allocation["deeplabv3"] is not Resource.NNAPI


class TestOrdering:
    def test_dynamic_beats_all_nnapi_on_latency(self, fast_config):
        """The headline ordering on SC1-CF1: any reasonable joint policy
        beats AllN's latency by a wide margin."""
        hbo_system = build_system("SC1", "CF1", seed=7, noise_sigma=0.0)
        from repro.core.controller import HBOController

        controller = HBOController(hbo_system, fast_config, seed=4)
        hbo_eps = controller.activate().best.measurement.epsilon

        alln_system = build_system("SC1", "CF1", seed=7, noise_sigma=0.0)
        alln_eps = AllNNAPIBaseline().run(alln_system).epsilon
        assert alln_eps > 2.0 * hbo_eps
