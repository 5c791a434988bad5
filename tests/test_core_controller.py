"""Unit tests for repro.core.algorithm, repro.core.activation and
repro.core.controller."""

import dataclasses
import math

import numpy as np
import pytest

from repro.bo.optimizer import BayesianOptimizer
from repro.bo.space import BoxSpace, HBOSpace
from repro.core.activation import EventBasedPolicy, PeriodicPolicy, reward_drifted
from repro.core.algorithm import HBOIteration
from repro.core.controller import HBOConfig, HBOController, HBORunResult
from repro.core.cost import cost_from_measurement, latency_cost
from repro.device.power import PowerModel, energy_aware_cost
from repro.errors import ConfigurationError


class TestHBOIteration:
    def test_one_iteration_produces_consistent_result(self, sc1cf1_system):
        optimizer = BayesianOptimizer(HBOSpace(3, r_min=0.1), seed=0)
        step = HBOIteration(sc1cf1_system, optimizer, w=2.5)
        result = step.run_once()
        assert np.isclose(result.proportions.sum(), 1.0)
        assert 0.1 <= result.triangle_ratio <= 1.0
        assert set(result.allocation) == set(sc1cf1_system.taskset.task_ids)
        assert result.cost == pytest.approx(
            -(result.measurement.quality - 2.5 * result.measurement.epsilon)
        )
        assert optimizer.n_observations == 1

    def test_latency_only_pins_ratio_to_one(self, sc1cf1_system):
        optimizer = BayesianOptimizer(HBOSpace(3, r_min=0.1), seed=0)
        step = HBOIteration(sc1cf1_system, optimizer, w=2.5, latency_only=True)
        result = step.run_once()
        assert result.triangle_ratio == 1.0
        assert result.cost == pytest.approx(2.5 * result.measurement.epsilon)

    def test_wrong_space_type_rejected(self, sc1cf1_system):
        optimizer = BayesianOptimizer(BoxSpace([(0, 1)] * 4), seed=0)
        with pytest.raises(ConfigurationError, match="HBOSpace"):
            HBOIteration(sc1cf1_system, optimizer, w=2.5)

    def test_space_resource_mismatch_rejected(self, sc1cf1_system):
        optimizer = BayesianOptimizer(HBOSpace(5), seed=0)
        with pytest.raises(ConfigurationError, match="resources"):
            HBOIteration(sc1cf1_system, optimizer, w=2.5)

    def test_negative_w_rejected(self, sc1cf1_system):
        optimizer = BayesianOptimizer(HBOSpace(3), seed=0)
        with pytest.raises(ConfigurationError):
            HBOIteration(sc1cf1_system, optimizer, w=-1.0)

    def test_evaluate_prices_without_telling(self, sc1cf1_system):
        """``finish`` is ``evaluate`` plus the tell: the same φ, and only
        ``finish`` grows the optimizer's dataset."""
        optimizer = BayesianOptimizer(HBOSpace(3, r_min=0.1), seed=0)
        step = HBOIteration(sc1cf1_system, optimizer, w=2.5)
        pending = step.apply(step.decode(optimizer.ask()))
        priced = step.evaluate(pending)
        assert optimizer.n_observations == 0
        assert priced.cost == pytest.approx(
            -(priced.measurement.quality - 2.5 * priced.measurement.epsilon)
        )
        told = step.finish(pending)
        assert optimizer.n_observations == 1
        assert optimizer.best().cost == told.cost


class TestHBOConfig:
    def test_paper_defaults(self):
        config = HBOConfig()
        assert config.w == 2.5
        assert config.n_initial == 5
        assert config.n_iterations == 15
        assert config.total_evaluations == 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HBOConfig(w=-1)
        with pytest.raises(ConfigurationError):
            HBOConfig(n_initial=0)
        with pytest.raises(ConfigurationError):
            HBOConfig(r_min=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("noise", -1.0), ("noise", np.nan), ("noise", np.inf),
            ("w", np.nan), ("w", np.inf), ("w_power", np.nan), ("w_power", np.inf),
            ("kernel_length_scale", np.nan), ("kernel_length_scale", 0.0),
            ("kernel_length_scale", -1.0), ("kernel_length_scale", np.inf),
        ],
    )
    def test_rejects_bad_gp_and_cost_weights(self, field, value):
        """A bad GP noise used to fail every fit inside the degenerate-fit
        fallback, silently turning every guided ask into uniform sampling."""
        with pytest.raises(ConfigurationError, match=field):
            HBOConfig(**{field: value})


class TestHBORunResult:
    def test_best_and_trajectory_empty_raises(self):
        with pytest.raises(ConfigurationError):
            HBORunResult().best_index


class TestController:
    def test_activation_runs_budget_and_applies_best(
        self, sc1cf1_system, fast_config
    ):
        controller = HBOController(sc1cf1_system, fast_config, seed=3)
        result = controller.activate()
        # total budget + the incumbent seeding evaluation
        assert len(result.iterations) == fast_config.total_evaluations + 1
        best = result.best
        # The best configuration must be live on the system afterwards.
        assert sc1cf1_system.device.allocation == dict(best.allocation)
        assert sc1cf1_system.scene.triangle_ratio == pytest.approx(
            best.measurement.triangle_ratio, abs=0.05
        )
        assert result.final_measurement is not None

    def test_trajectory_monotone(self, sc1cf1_system, fast_config):
        controller = HBOController(sc1cf1_system, fast_config, seed=3)
        result = controller.activate()
        trajectory = result.best_cost_trajectory()
        assert len(trajectory) == fast_config.total_evaluations + 1
        assert np.all(np.diff(trajectory) <= 1e-12)

    def test_activation_improves_over_first_random_config(
        self, sc1cf1_system, fast_config
    ):
        controller = HBOController(sc1cf1_system, fast_config, seed=5)
        result = controller.activate()
        assert result.best.cost <= result.iterations[0].cost

    def test_activations_accumulate(self, sc2cf2_system, fast_config):
        controller = HBOController(sc2cf2_system, fast_config, seed=1)
        controller.activate()
        controller.activate()
        assert len(controller.activations) == 2

    def test_consecutive_distances_shape(self, sc2cf2_system, fast_config):
        controller = HBOController(sc2cf2_system, fast_config, seed=1)
        result = controller.activate()
        distances = result.consecutive_distances()
        assert len(distances) == fast_config.total_evaluations
        assert np.all(distances >= 0)


class TestIncumbent:
    """The first row of an activation is the running configuration,
    priced by the same cost branch as every proposed row."""

    def test_latency_only_prices_its_own_epsilon(
        self, sc1cf1_system, fast_config
    ):
        config = dataclasses.replace(fast_config, latency_only=True)
        running = dict(sc1cf1_system.device.allocation)
        result = HBOController(sc1cf1_system, config, seed=3).activate()
        incumbent = result.iterations[0]
        assert dict(incumbent.allocation) == running
        assert incumbent.cost == latency_cost(
            incumbent.measurement.epsilon, config.w
        )

    def test_power_weight_prices_energy(self, sc1cf1_system, fast_config):
        config = dataclasses.replace(fast_config, w_power=0.4)
        device = sc1cf1_system.device
        power_w = PowerModel().system_power_w(
            device.soc,
            device.placements(),
            device.load,
            edge=sc1cf1_system.edge_share(),
        )
        result = HBOController(sc1cf1_system, config, seed=3).activate()
        incumbent = result.iterations[0]
        measurement = incumbent.measurement
        assert incumbent.cost == energy_aware_cost(
            measurement.quality,
            measurement.epsilon,
            power_w,
            w_latency=config.w,
            w_power=config.w_power,
        )
        assert incumbent.cost != cost_from_measurement(measurement, config.w)


class TestEventBasedPolicy:
    def test_first_call_always_activates(self):
        policy = EventBasedPolicy()
        assert policy.should_activate(0.5)

    def test_thresholds_asymmetric(self):
        policy = EventBasedPolicy(
            increase_threshold=0.05, decrease_threshold=0.10, confirmations=1
        )
        policy.record_reference(1.0)
        assert not policy.should_activate(1.0)
        assert not policy.should_activate(1.04)  # +4% < 5%
        assert policy.should_activate(1.06)  # +6% > 5%
        policy.record_reference(1.0)
        assert not policy.should_activate(0.92)  # −8% < 10%
        assert policy.should_activate(0.89)  # −11% > 10%

    def test_negative_reference_relative_drift(self):
        """Rewards are often negative; drift must be scale-relative."""
        policy = EventBasedPolicy(confirmations=1)
        policy.record_reference(-1.0)
        assert not policy.should_activate(-1.05)
        assert policy.should_activate(-1.2)

    def test_confirmation_hysteresis(self):
        """A single noisy out-of-band sample must not fire; two
        consecutive ones must; an in-band sample resets the streak."""
        policy = EventBasedPolicy(confirmations=2)
        policy.record_reference(1.0)
        assert not policy.should_activate(1.5)  # first drifting sample
        assert not policy.should_activate(1.0)  # back in band: reset
        assert not policy.should_activate(1.5)
        assert policy.should_activate(1.5)  # second consecutive: fire

    def test_invalid_confirmations(self):
        with pytest.raises(ConfigurationError):
            EventBasedPolicy(confirmations=0)

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            EventBasedPolicy(increase_threshold=0.0)
        with pytest.raises(ConfigurationError):
            EventBasedPolicy(decrease_threshold=-0.1)


class TestRewardDrifted:
    """The one §IV-E band test, shared by the policy and the fleet's
    lookup verify."""

    def test_band_edges_and_scale_floor(self):
        assert not reward_drifted(1.04, 1.0)
        assert reward_drifted(1.06, 1.0)
        assert not reward_drifted(0.91, 1.0)
        assert reward_drifted(0.89, 1.0)
        # |reference| < 1 is scaled by the floor: an absolute band.
        assert not reward_drifted(0.12, 0.2)
        assert reward_drifted(0.09, 0.2)

    def test_one_sided_check(self):
        assert not reward_drifted(5.0, 1.0, increase_threshold=math.inf)
        assert reward_drifted(0.5, 1.0, increase_threshold=math.inf)

    def test_policy_fires_exactly_when_the_band_test_does(self):
        policy = EventBasedPolicy(confirmations=1)
        policy.record_reference(-0.4)
        for reward in np.linspace(-1.0, 0.5, 61):
            assert policy.should_activate(reward) == reward_drifted(reward, -0.4)


class TestPeriodicPolicy:
    def test_fires_on_schedule(self):
        policy = PeriodicPolicy(period=3)
        assert policy.should_activate(0.0)  # first call
        policy.record_reference(0.0)
        fired = []
        for i in range(9):
            if policy.should_activate(0.0):
                fired.append(i)
                policy.record_reference(0.0)
            else:
                policy.step()
        # An activation consumes its own monitoring slot, so with period 3
        # the cadence over 9 slots is fires at indices 3 and 7.
        assert fired == [3, 7]

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            PeriodicPolicy(period=0)
