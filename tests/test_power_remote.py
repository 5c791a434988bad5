"""Unit tests for the energy model and the edge-offloaded BO proxy."""

import pytest

from repro.bo.optimizer import BayesianOptimizer
from repro.bo.space import HBOSpace
from repro.core.controller import HBOController
from repro.core.remote import RemoteOptimizerProxy
from repro.edge.link import NetworkLink
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.power import PowerModel, ProcessorPower, energy_aware_cost
from repro.device.profiles import GALAXY_S22, get_profile
from repro.device.resources import Processor, Resource
from repro.device.soc import galaxy_s22_soc
from repro.errors import ConfigurationError
from repro.sim.scenarios import build_system


def _placements(n_nnapi=2, n_cpu=0):
    profile = get_profile(GALAXY_S22, "deeplabv3")
    placements = [
        TaskPlacement(f"n{i}", profile, Resource.NNAPI) for i in range(n_nnapi)
    ]
    placements += [
        TaskPlacement(f"c{i}", profile, Resource.CPU) for i in range(n_cpu)
    ]
    return placements


class TestProcessorPower:
    def test_interpolation(self):
        power = ProcessorPower(idle_w=0.5, busy_w=2.5)
        assert power.at_utilization(0.0) == 0.5
        assert power.at_utilization(1.0) == 2.5
        assert power.at_utilization(0.5) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessorPower(idle_w=2.0, busy_w=1.0)
        with pytest.raises(ConfigurationError):
            ProcessorPower(idle_w=0.5, busy_w=1.0).at_utilization(1.5)


class TestPowerModel:
    def test_idle_system_draws_base_plus_idle(self):
        model = PowerModel()
        soc = galaxy_s22_soc()
        power = model.system_power_w(soc, [], SystemLoad())
        expected = model.base_w + sum(p.idle_w for p in model.processors.values())
        assert power == pytest.approx(expected)

    def test_more_work_more_power(self):
        model = PowerModel()
        soc = galaxy_s22_soc()
        light = model.system_power_w(soc, _placements(1), SystemLoad())
        heavy = model.system_power_w(
            soc,
            _placements(4, 2),
            SystemLoad(rendered_triangles=600_000, n_objects=8,
                       submitted_triangles=1_200_000),
        )
        assert heavy > light

    def test_utilization_bounded(self):
        model = PowerModel()
        soc = galaxy_s22_soc()
        utilization = model.utilizations(
            soc,
            _placements(5, 3),
            SystemLoad(rendered_triangles=5e6, n_objects=30,
                       submitted_triangles=1e7),
        )
        for proc in Processor:
            assert 0.0 <= utilization[proc] <= 1.0
        assert utilization[Processor.GPU] == 1.0  # saturated under that load

    def test_energy_aware_cost_prices_power(self):
        cheap = energy_aware_cost(0.9, 0.5, power_w=3.0)
        pricey = energy_aware_cost(0.9, 0.5, power_w=7.0)
        assert pricey > cheap  # higher draw, higher cost
        with pytest.raises(ConfigurationError):
            energy_aware_cost(0.9, 0.5, power_w=3.0, w_power=-1.0)


class TestNetworkLink:
    def test_transfer_time_components(self, rng):
        link = NetworkLink(rtt_ms=10.0, jitter_ms=0.0, bytes_per_ms=1_000.0)
        assert link.transfer_ms(5_000, rng) == pytest.approx(15.0)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            NetworkLink(rtt_ms=-1)
        with pytest.raises(ConfigurationError):
            NetworkLink().transfer_ms(-5, rng)


class TestRemoteOptimizerProxy:
    def test_accounting_per_exchange(self):
        space = HBOSpace(3)
        proxy = RemoteOptimizerProxy(
            BayesianOptimizer(space, seed=0),
            link=NetworkLink(jitter_ms=0.0),
            seed=0,
        )
        for _ in range(4):
            z = proxy.ask()
            proxy.tell(z, 1.0)
        assert proxy.stats.exchanges == 8  # 4 asks + 4 tells
        assert proxy.stats.total_bytes > 0
        assert proxy.stats.network_ms > 0
        # The paper's claim: payloads are tiny — a few dozen bytes each.
        per_exchange = proxy.stats.total_bytes / proxy.stats.exchanges
        assert per_exchange < 100

    def test_transparent_optimization(self):
        """Offloading must not change what the optimizer finds."""
        space = HBOSpace(3)

        def run(offloaded):
            optimizer = BayesianOptimizer(space, seed=42)
            opt = (
                RemoteOptimizerProxy(optimizer, seed=1) if offloaded else optimizer
            )
            for _ in range(10):
                z = opt.ask()
                point = space.split(z)
                opt.tell(z, float((point.triangle_ratio - 0.7) ** 2))
            return opt.best().cost

        assert run(False) == pytest.approx(run(True))

    def test_mean_exchange_time(self):
        proxy = RemoteOptimizerProxy(
            BayesianOptimizer(HBOSpace(3), seed=0),
            link=NetworkLink(rtt_ms=8.0, jitter_ms=0.0),
            seed=0,
        )
        assert proxy.stats.exchanges == 0
        z = proxy.ask()
        proxy.tell(z, 0.5)
        mean_ms = proxy.stats.network_ms / proxy.stats.exchanges
        assert mean_ms == pytest.approx(8.0, abs=0.5)


#: ``(z, cost)`` per evaluation of the offloaded SC2-CF2 activation below
#: (seed 9; the first row is the incumbent).
OFFLOADED_ACTIVATION = [
    ([0.0, 0.3333333333333333, 0.6666666666666666, 1.0], -0.6849771993338605),
    ([0.20285169714969228, 0.3867035950967395, 0.4104447077535683, 0.7444671666432088],
     -0.6129080969143474),
    ([0.7032930226110098, 0.017437051834445966, 0.2792699255545444, 0.5364498942795592],
     2.847105014101876),
    ([0.007583801089676166, 0.7728234656600759, 0.21959273325024786, 0.8798916599444778],
     6.540617887196507),
    ([0.09035382208412018, 0.09096051332956386, 0.8186856645863158, 0.601959908656384],
     0.8714871785447763),
    ([0.3298397645901262, 0.14871969876323282, 0.5214405366466409, 0.9963334230543835],
     -0.6046857310589698),
    ([0.19765249454671308, 0.2073377875225542, 0.5950097179307328, 0.9114103666333793],
     -0.6626460995729961),
    ([0.17455664056336903, 0.32092564296505416, 0.5045177164715768, 0.8081065364171411],
     -0.633445598198195),
]


class TestOffloadedController:
    def test_controller_with_offload_link(self, fast_config):
        system = build_system("SC2", "CF2", seed=9, noise_sigma=0.02)
        controller = HBOController(
            system,
            fast_config,
            offload_link=NetworkLink(rtt_ms=8.0, jitter_ms=1.0),
            seed=9,
        )
        result = controller.activate()
        assert result.final_measurement is not None
        stats = controller.last_offload_stats
        assert stats is not None
        # One ask + one tell per non-incumbent evaluation; the incumbent
        # seeding is a tell-only exchange.
        assert stats.exchanges == 2 * fast_config.total_evaluations + 1
        # The optimizer and the link share the controller's stream: a
        # reordered draw moves these values.
        assert [(it.z.tolist(), it.cost) for it in result.iterations] == OFFLOADED_ACTIVATION
        assert stats.network_ms == 117.1935186711274


class TestBatchedOffload:
    def _proxy(self, space_dim=3, seed=0):
        return RemoteOptimizerProxy(
            BayesianOptimizer(HBOSpace(space_dim), seed=seed),
            link=NetworkLink(jitter_ms=0.0),
            seed=seed,
        )

    def test_warm_start_accounts_one_batch(self, rng):
        from repro.bo.optimizer import Observation

        proxy = self._proxy()
        donors = [
            Observation(z=z, cost=float(i))
            for i, z in enumerate(proxy.space.sample(rng, size=5))
        ]
        assert proxy.warm_start(donors) == 5
        assert proxy.stats.batched_exchanges == 1
        assert proxy.stats.batched_observations == 5
        assert proxy.n_observations == 5
        assert proxy.stats.exchanges == 1
        # One shared frame for the batch, not one per observation.
        assert proxy.stats.bytes_up == 5 * (4 * proxy.space.dim + 4) + 16
        fresh = self._proxy(seed=2)
        assert fresh.warm_start([]) == 0  # no traffic for an empty donation
        assert fresh.stats.exchanges == 0
