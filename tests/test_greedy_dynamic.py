"""Tests for the GreedyDyn extra baseline."""

import pytest

from repro.baselines import GreedyDynamicBaseline
from repro.core.controller import HBOConfig, HBOController
from repro.device.resources import Resource
from repro.device.thermal import ThermalModel
from repro.errors import ConfigurationError
from repro.sim.scenarios import build_system


class TestGreedyDynamic:
    def test_improves_over_static_affinity(self):
        """One local-search pass must beat the static starting point."""
        system = build_system("SC1", "CF1", seed=7, noise_sigma=0.0)
        static = system.taskset.affinity_allocation()
        system.apply_uniform_ratio(static, 1.0)
        static_eps = system.measure(samples=1).epsilon

        baseline = GreedyDynamicBaseline(max_rounds=3, samples_per_probe=1)
        outcome = baseline.run(build_system("SC1", "CF1", seed=7, noise_sigma=0.0))
        assert outcome.epsilon < static_eps

    def test_thermal_probes_take_the_batched_rows(self, monkeypatch):
        """On a thermal device the one-solve candidate rows give the same
        bits as letting the device compute each probe's steady state."""

        def run():
            system = build_system(
                "SC1", "CF1", seed=7,
                thermal=ThermalModel(ambient_c=44.0, time_constant_steps=2.0),
            )
            baseline = GreedyDynamicBaseline(max_rounds=2, samples_per_probe=3)
            return baseline.run(system), system.device.thermal.temperature_c

        batched = run()
        monkeypatch.setattr(
            GreedyDynamicBaseline,
            "_steady_rows",
            lambda self, system, candidates: [None] * len(candidates),
        )
        local = run()
        assert batched == local
        assert batched[1] > 45.0  # throttling was live

    def test_keeps_full_quality(self):
        system = build_system("SC1", "CF1", seed=7, noise_sigma=0.0)
        outcome = GreedyDynamicBaseline(max_rounds=1, samples_per_probe=1).run(system)
        assert outcome.triangle_ratio == 1.0
        assert outcome.quality == pytest.approx(1.0, abs=1e-6)

    def test_probe_accounting(self):
        system = build_system("SC2", "CF2", seed=7, noise_sigma=0.0)
        baseline = GreedyDynamicBaseline(max_rounds=2, samples_per_probe=1)
        baseline.run(system)
        # 3 tasks × 2 alternative resources = 6 probes per round + the
        # initial probe; local search may stop after round one.
        assert baseline.probes >= 7

    def test_relocates_under_sc1_pressure(self):
        """Like BNT, greedy search moves GPU-preferring tasks off the
        contended GPU delegate."""
        system = build_system("SC1", "CF1", seed=7, noise_sigma=0.0)
        outcome = GreedyDynamicBaseline(max_rounds=3, samples_per_probe=1).run(system)
        gpu_mmdata = sum(
            1
            for t in ("model-metadata_1", "model-metadata_2")
            if outcome.allocation[t] is Resource.GPU_DELEGATE
        )
        assert gpu_mmdata == 0

    def test_hbo_beats_greedy_on_reward(self, fast_config):
        """HBO's joint optimization dominates: same-or-better latency
        *plus* the quality dimension greedy cannot touch means a better
        reward at the paper's weight."""
        greedy_system = build_system("SC1", "CF1", seed=11, noise_sigma=0.02)
        greedy = GreedyDynamicBaseline(max_rounds=3, samples_per_probe=2).run(
            greedy_system
        )
        hbo_system = build_system("SC1", "CF1", seed=11, noise_sigma=0.02)
        controller = HBOController(
            hbo_system, HBOConfig(n_initial=5, n_iterations=10), seed=11
        )
        hbo = controller.activate()
        w = 2.5
        assert hbo.final_measurement.reward(w) > greedy.measurement.reward(w)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GreedyDynamicBaseline(max_rounds=0)
        with pytest.raises(ConfigurationError):
            GreedyDynamicBaseline(samples_per_probe=0)
