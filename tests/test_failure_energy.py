"""The energy-aware cost variant."""

import pytest

from repro.core.controller import HBOConfig, HBOController
from repro.errors import ConfigurationError
from repro.sim.scenarios import build_system


class TestEnergyAwareHBO:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            HBOConfig(w_power=-0.1)

    def test_energy_weight_changes_the_cost_surface(self):
        """With a large power weight, the same measurements must map to
        different costs than the vanilla formulation."""
        cfg = HBOConfig(n_initial=3, n_iterations=3, w_power=2.0)
        system = build_system("SC1", "CF1", seed=8, noise_sigma=0.0)
        controller = HBOController(system, cfg, seed=8)
        result = controller.activate()
        for iteration in result.iterations:
            vanilla = -(
                iteration.measurement.quality
                - cfg.w * iteration.measurement.epsilon
            )
            assert iteration.cost != pytest.approx(vanilla, abs=1e-6)

    def test_energy_weight_zero_is_vanilla(self):
        cfg = HBOConfig(n_initial=3, n_iterations=3, w_power=0.0)
        system = build_system("SC1", "CF1", seed=8, noise_sigma=0.0)
        controller = HBOController(system, cfg, seed=8)
        result = controller.activate()
        iteration = result.iterations[-1]
        vanilla = -(
            iteration.measurement.quality - cfg.w * iteration.measurement.epsilon
        )
        assert iteration.cost == pytest.approx(vanilla, abs=1e-9)

    def test_heavy_power_weight_discourages_cpu_spinup(self):
        """With power priced very high, the chosen configuration should
        draw less than the vanilla choice (or at worst equal)."""
        from repro.device.power import PowerModel

        def chosen_power(w_power):
            cfg = HBOConfig(n_initial=4, n_iterations=8, w_power=w_power)
            system = build_system("SC1", "CF1", seed=9, noise_sigma=0.02)
            controller = HBOController(system, cfg, seed=9)
            controller.activate()
            return PowerModel().system_power_w(
                system.device.soc, system.device.placements(), system.device.load
            )

        assert chosen_power(3.0) <= chosen_power(0.0) + 0.4
