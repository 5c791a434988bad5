"""Edge offloading subsystem tests: link, server, runtime, integration.

Covers the subsystem's three load-bearing contracts:

- **determinism** — wireless-link traces are a pure function of the seed,
  and decorrelated streams from :func:`repro.rng.spawn_rngs` produce
  decorrelated traces;
- **conservation** — the shared edge server's stream accounting stays
  consistent under concurrent register/set/release traffic;
- **off-by-default** — without an edge runtime nothing changes: N stays
  3, profiles keep their rows, and power figures reproduce exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frontier import FrontierEvaluator
from repro.device.contention import ContentionModel
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.executor import DeviceSimulator
from repro.device.power import PowerModel, RadioPower
from repro.device.profiles import GALAXY_S22, PIXEL7, get_profile
from repro.device.resources import ALL_RESOURCES, EDGE_RESOURCES, Resource
from repro.device.soc import galaxy_s22_soc
from repro.edge import (
    EdgeConfig,
    EdgeServer,
    EdgeServerConfig,
    EdgeShare,
    LinkConfig,
    WirelessLink,
    build_edge_runtime,
    edge_compute_ms,
    edge_payload_bytes,
    edge_slowdown,
    edge_tx_ms,
    extend_profile,
    extend_taskset,
)
from repro.errors import DeviceError, EdgeError
from repro.edge.topology import EdgeTopologyConfig
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.session import SessionSpec
from repro.core.controller import HBOConfig
from repro.models.tasks import taskset_cf1
from repro.rng import spawn_rngs
from repro.sim.scenarios import (
    NETWORK_DRIFT_SCHEDULE,
    apply_network_drift,
    build_system,
    network_drift_scale,
)


class TestWirelessLink:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_trace_is_a_pure_function_of_the_seed(self, seed, n):
        """Two links with the same seed walk the same bandwidth trace."""
        a = WirelessLink(seed=seed)
        b = WirelessLink(seed=seed)
        for _ in range(n):
            a.advance_period()
            b.advance_period()
            assert a.bandwidth_scale == b.bandwidth_scale
            assert a.bytes_per_ms == b.bytes_per_ms

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spawned_streams_decorrelate_traces(self, seed):
        """Sibling links from spawn_rngs drift independently — their
        traces must not be identical (decorrelated child streams)."""
        rng_a, rng_b = spawn_rngs(seed, 2)
        a = WirelessLink(seed=rng_a)
        b = WirelessLink(seed=rng_b)
        traces = ([], [])
        for _ in range(16):
            traces[0].append(a.advance_period())
            traces[1].append(b.advance_period())
        assert traces[0] != traces[1]

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_scale_stays_inside_the_configured_bounds(self, seed, n):
        config = LinkConfig(min_scale=0.5, max_scale=1.25)
        link = WirelessLink(config, seed=seed)
        for _ in range(n):
            scale = link.advance_period()
            assert config.min_scale <= scale <= config.max_scale

    def test_set_bandwidth_scale_validates_bounds(self):
        link = WirelessLink(seed=0)
        link.set_bandwidth_scale(0.5)
        assert link.bandwidth_scale == 0.5
        with pytest.raises(EdgeError):
            link.set_bandwidth_scale(99.0)

    def test_link_config_validation(self):
        with pytest.raises(EdgeError):
            LinkConfig(bytes_per_ms=0.0)
        with pytest.raises(EdgeError):
            LinkConfig(min_scale=1.5, max_scale=0.5)


demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=10
)


class TestEdgeServer:
    @given(demands=demand_lists)
    @settings(max_examples=100, deadline=None)
    def test_stream_conservation_across_tenants(self, demands):
        """total == the insertion-order sum of tenant demands, and each
        tenant's extern + own view re-totals to float associativity."""
        server = EdgeServer()
        for i, demand in enumerate(demands):
            server.register(f"s{i}")
            server.set_demand(f"s{i}", demand)
        total = 0.0
        for demand in demands:
            total += demand
        assert server.total_streams == total
        for i, demand in enumerate(demands):
            assert server.extern_streams(f"s{i}") == pytest.approx(
                total - demand, abs=1e-9
            )

    @given(demands=demand_lists, drop=st.integers(0, 9))
    @settings(max_examples=100, deadline=None)
    def test_release_removes_exactly_one_tenant_demand(self, demands, drop):
        server = EdgeServer()
        for i, demand in enumerate(demands):
            server.register(f"s{i}")
            server.set_demand(f"s{i}", demand)
        victim = f"s{drop % len(demands)}"
        before = server.total_streams
        gone = server.demand_of(victim)
        server.release(victim)
        assert victim not in server.tenant_ids
        assert server.total_streams == pytest.approx(before - gone, abs=1e-9)

    def test_duplicate_registration_and_unknown_tenant_raise(self):
        server = EdgeServer()
        server.register("a")
        with pytest.raises(EdgeError):
            server.register("a")
        with pytest.raises(EdgeError):
            server.set_demand("ghost", 1.0)
        with pytest.raises(EdgeError):
            server.set_demand("a", -0.1)

    def test_slowdown_is_neutral_below_capacity(self):
        server = EdgeServer(EdgeServerConfig(capacity_streams=4.0))
        server.register("a")
        server.set_demand("a", 4.0)
        assert server.slowdown() == 1.0
        server.set_demand("a", 8.0)
        assert server.slowdown() > 1.0


class TestShareHelpers:
    def test_slowdown_matches_processor_sharing_form(self):
        share = EdgeShare(
            capacity_streams=4.0,
            queue_exponent=1.25,
            extern_streams=0.0,
            rtt_ms=10.0,
            bytes_per_ms=8000.0,
            speedup=6.0,
        )
        assert edge_slowdown(3.0, share) == 1.0
        assert edge_slowdown(8.0, share) == (8.0 / 4.0) ** 1.25

    def test_latency_decomposition(self):
        profile = get_profile(GALAXY_S22, "mobilenet-v1")
        share = EdgeShare(
            capacity_streams=6.0,
            queue_exponent=1.15,
            extern_streams=0.0,
            rtt_ms=10.0,
            bytes_per_ms=8000.0,
            speedup=6.0,
        )
        tx = edge_tx_ms(profile, share)
        assert tx == 10.0 + edge_payload_bytes(profile) / 8000.0
        assert edge_compute_ms(profile, share) == (
            profile.latency(Resource.CPU) / 6.0
        )


class TestRuntimeAndProfiles:
    def test_extend_profile_adds_edge_row_and_keeps_affinity(self):
        profile = get_profile(PIXEL7, "mobilenet-v1")
        extended = extend_profile(profile, EdgeConfig())
        assert extended.supports(Resource.EDGE)
        assert not profile.supports(Resource.EDGE)
        # τ^e stays device-defined: EDGE never becomes the affinity.
        assert extended.best_resource() == profile.best_resource()

    def test_extend_taskset_preserves_expected_latencies(self):
        base = taskset_cf1(GALAXY_S22)
        extended = extend_taskset(base, EdgeConfig())
        assert base.expected_latencies() == extended.expected_latencies()
        assert all(
            t.profile.supports(Resource.EDGE)
            for t in extended
            if t.profile.supports(Resource.CPU)
        )

    def test_runtime_share_reflects_other_tenants_only(self):
        server = EdgeServer()
        rt_a = build_edge_runtime(session_id="a", server=server, seed=1)
        rt_b = build_edge_runtime(session_id="b", server=server, seed=2)
        rt_a.set_demand_streams(3.0)
        rt_b.set_demand_streams(5.0)
        assert rt_a.share().extern_streams == 5.0
        assert rt_b.share().extern_streams == 3.0
        server.release("b")  # as the topology detaches a tenant
        rt_b.abandon()
        assert rt_a.share().extern_streams == 0.0
        with pytest.raises(EdgeError):
            rt_b.set_demand_streams(1.0)


class TestExecutorIntegration:
    def _simulator(self, edge=None):
        return DeviceSimulator(galaxy_s22_soc(), noise_sigma=0.0, seed=3, edge=edge)

    def test_edge_allocation_without_runtime_raises(self):
        sim = self._simulator()
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        sim.add_task("t0", profile)
        with pytest.raises(DeviceError):
            sim.set_allocation("t0", Resource.EDGE)

    def test_edge_allocation_publishes_demand_to_the_server(self):
        runtime = build_edge_runtime(session_id="dev", seed=4)
        sim = self._simulator(edge=runtime)
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        sim.add_task("t0", profile)
        sim.set_allocation("t0", Resource.EDGE)
        assert runtime.server.demand_of("dev") == profile.cpu_demand
        sim.set_allocation("t0", Resource.CPU)
        assert runtime.server.demand_of("dev") == 0.0

    def test_scalar_and_frontier_agree_on_an_edge_system(self):
        """The frontier's batched pricing of the *current* configuration
        matches the device's scalar steady state to 1e-9 (fast mode)."""
        runtime = build_edge_runtime(session_id="par", seed=5)
        system = build_system(
            "SC1", "CF1", device=GALAXY_S22, seed=11, noise_sigma=0.0,
            edge=runtime,
        )
        from repro.core.allocation import allocate_tasks

        resources = system.resources
        task_ids = list(system.device.allocation)
        m = len(task_ids)
        counts = (2, 1, 1, 2)  # two tasks offloaded
        allocation = allocate_tasks(system.taskset, counts, resources)
        system.device.apply_allocation(dict(allocation))
        scalar = system.device.steady_state_latencies()

        z = np.concatenate(
            [np.asarray(counts) / m, [system.scene.triangle_ratio]]
        )
        result = FrontierEvaluator(system, w=2.5).evaluate(z)
        # Same counts decode to the same allocation (greedy is pure).
        assert result.allocations[0] == system.device.allocation
        batched = {
            tid: result.latency_ms[0, j] for j, tid in enumerate(task_ids)
        }
        for tid in task_ids:
            np.testing.assert_allclose(batched[tid], scalar[tid], rtol=1e-9)


class TestFleetEdge:
    def test_shared_server_fleet_is_deterministic(self):
        specs = [
            SessionSpec(session_id=f"s{i}", device=GALAXY_S22, arrival_s=float(i))
            for i in range(4)
        ]
        cfg = FleetConfig(
            hbo=HBOConfig(n_initial=2, n_iterations=2),
            topology=EdgeTopologyConfig.single(),
        )
        r1 = run_fleet(specs, seed=2024, config=cfg)
        r2 = run_fleet(specs, seed=2024, config=cfg)
        for a, b in zip(r1.reports, r2.reports):
            assert a.costs == b.costs
            assert a.best_cost == b.best_cost

    def test_device_only_fleet_ignores_the_edge_code_path(self):
        """Without edge config the fleet result is byte-identical to the
        pre-edge behavior (same draws, no server, N = 3)."""
        specs = [
            SessionSpec(session_id=f"s{i}", arrival_s=float(i)) for i in range(3)
        ]
        cfg = FleetConfig(hbo=HBOConfig(n_initial=2, n_iterations=2))
        result = run_fleet(specs, seed=7, config=cfg)
        assert all(len(r.costs) == 4 for r in result.reports)


class TestDriftScenario:
    def test_schedule_is_stepwise_constant(self):
        assert network_drift_scale(0.0) == NETWORK_DRIFT_SCHEDULE[0][1]
        assert network_drift_scale(30.0) == 0.25
        assert network_drift_scale(45.0) == 0.25
        assert network_drift_scale(60.0) == 0.6
        assert network_drift_scale(1e6) == 0.6

    def test_bandwidth_collapse_inflates_transfer_time(self):
        runtime = build_edge_runtime(session_id="drift", seed=6)
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        before = edge_tx_ms(profile, runtime.share())
        apply_network_drift(runtime.link, 30.0)
        after = edge_tx_ms(profile, runtime.share())
        assert after > before


class TestRadioPower:
    def test_power_without_edge_is_unchanged(self):
        soc = galaxy_s22_soc()
        profile = get_profile(GALAXY_S22, "mobilenet-v1")
        placements = [TaskPlacement("t0", profile, Resource.CPU)]
        load = SystemLoad(rendered_triangles=1e5, n_objects=3)
        assert PowerModel().system_power_w(soc, placements, load) == (
            PowerModel(radio=RadioPower(tx_w=9.9)).system_power_w(
                soc, placements, load
            )
        )

    def test_offloading_draws_radio_power(self):
        soc = galaxy_s22_soc()
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        load = SystemLoad(rendered_triangles=1e5, n_objects=3)
        share = build_edge_runtime(session_id="p", seed=8).share()
        on_device = PowerModel().system_power_w(
            soc, [TaskPlacement("t0", profile, Resource.CPU)], load, edge=share
        )
        offloaded = PowerModel().system_power_w(
            soc, [TaskPlacement("t0", profile, Resource.EDGE)], load, edge=share
        )
        # The offloaded task vacates the CPU but pays the radio.
        state = ContentionModel(soc).processor_state(
            [TaskPlacement("t0", profile, Resource.EDGE)], load, share
        )
        radio = PowerModel().radio.radio_power_w(
            [TaskPlacement("t0", profile, Resource.EDGE)], share,
            state.edge_slowdown,
        )
        assert radio > RadioPower().idle_w
        assert offloaded != on_device


class TestAcceptance:
    def test_edge_beats_device_only_at_equal_quality(self):
        """Heavy co-location on the S22: the 4-resource frontier achieves
        strictly lower ε than the best device-only point at matched x."""
        from repro.experiments.edge import run_edge_experiment

        result = run_edge_experiment(n_ratios=3, seed=2024)
        assert result.n_strict_wins >= 1
        assert result.best_win.epsilon_win > 0.0
        # Equal quality at matched ratio, by construction of the grids.
        best = result.best_win
        np.testing.assert_allclose(
            best.device_only.quality, best.edge.quality, rtol=1e-12
        )

    def test_resources_default_to_the_paper_trio(self):
        system = build_system("SC1", "CF1", seed=1)
        assert system.resources == ALL_RESOURCES
        assert system.n_resources == 3
        runtime = build_edge_runtime(session_id="n4", seed=9)
        edge_system = build_system("SC1", "CF1", seed=1, edge=runtime)
        assert edge_system.resources == EDGE_RESOURCES
        assert edge_system.n_resources == 4
