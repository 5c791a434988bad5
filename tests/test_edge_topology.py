"""Multi-server edge topology: placement, admission, fallback, migration.

The tentpole contracts under test:

- a 1-node topology with admission disabled (``--edge``) reproduces the
  pinned stdout of the one-shared-server fleet **bit for bit**;
- placement decisions are a pure function of (seed, arrival order,
  topology config) — the Hypothesis property;
- admission rejections and mid-run shedding/outages degrade sessions to
  device-only gracefully (full trajectories, no crash);
- scalar/backend pricing parity extends to heterogeneous shares from
  N >= 2 different servers;
- stale tenant handles raise :class:`~repro.errors.UnknownTenantError`
  instead of silently corrupting the demand table.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.plan import EvalPlan
from repro.backend.solve import solve
from repro.core.controller import HBOConfig
from repro.device.contention import ContentionModel
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.profiles import GALAXY_S22, get_profile
from repro.device.resources import Resource
from repro.device.soc import galaxy_s22_soc
from repro.edge.admission import (
    OPEN_ADMISSION,
    AdmissionConfig,
    decide,
    shed_plan,
    utilization,
)
from repro.edge.link import LinkConfig, WirelessLink
from repro.edge.placement import (
    PlacementRequest,
    node_offload_price_ms,
    place,
    resolve_policy,
)
from repro.edge.runtime import EdgeConfig, extend_profile
from repro.edge.server import EdgeServer, EdgeServerConfig
from repro.edge.topology import (
    EdgeNodeConfig,
    EdgeTopology,
    EdgeTopologyConfig,
    MigrationConfig,
    default_topology,
)
from repro.errors import ConfigurationError, EdgeError, UnknownTenantError
from repro.experiments.edge import (
    flash_crowd_specs,
    run_saturation_study,
    saturation_topology,
)
from repro.cli import main
from repro.fleet.export import fleet_result_to_dict
from repro.fleet.scheduler import FleetConfig, FleetScheduler
from repro.rng import derive_seed
from repro.sim.scenarios import (
    NETWORK_DRIFT_SCHEDULE,
    ServerOutage,
    apply_network_drift,
    network_drift_scale,
    staggered_drift_schedules,
)

SMALL = HBOConfig(n_initial=2, n_iterations=2)


def _node(name, distance=0.0, capacity=6.0, admission=None, rtt_ms=10.0):
    return EdgeNodeConfig(
        server=EdgeServerConfig(capacity_streams=capacity, name=name),
        link=LinkConfig(rtt_ms=rtt_ms),
        admission=admission if admission is not None else OPEN_ADMISSION,
        distance=distance,
    )


class TestUnknownTenant:
    """Satellite: stale handles raise a typed error, not KeyError."""

    def test_release_of_unknown_tenant_raises(self):
        server = EdgeServer(EdgeServerConfig(name="edge-x"))
        with pytest.raises(UnknownTenantError) as exc:
            server.release("ghost")
        assert exc.value.tenant_id == "ghost"
        assert exc.value.server == "edge-x"
        assert exc.value.operation == "release"

    def test_double_release_raises(self):
        server = EdgeServer(EdgeServerConfig())
        server.register("s0")
        server.release("s0")
        with pytest.raises(UnknownTenantError):
            server.release("s0")

    def test_set_demand_on_released_tenant_raises(self):
        server = EdgeServer(EdgeServerConfig())
        server.register("s0")
        server.release("s0")
        with pytest.raises(UnknownTenantError):
            server.set_demand("s0", 1.0)

    def test_unknown_tenant_error_is_an_edge_error(self):
        assert issubclass(UnknownTenantError, EdgeError)

    def test_topology_detach_of_unassigned_session_raises(self):
        topology = EdgeTopology(EdgeTopologyConfig.single())
        with pytest.raises(UnknownTenantError) as exc:
            topology.detach("ghost")
        assert exc.value.operation == "detach"


class TestAdmission:
    def test_config_validation(self):
        with pytest.raises(EdgeError):
            AdmissionConfig(admit_utilization=0.0)
        with pytest.raises(EdgeError):
            AdmissionConfig(admit_utilization=1.0, shed_utilization=0.5)
        with pytest.raises(EdgeError):
            AdmissionConfig(est_offload_fraction=1.5)

    def test_utilization_requires_positive_capacity(self):
        with pytest.raises(EdgeError):
            utilization(1.0, 0.0)

    def test_disabled_policy_admits_at_any_load(self):
        decision = decide(OPEN_ADMISSION, "e", 1e9, 1e9, 1.0)
        assert decision.admitted and decision.reason == ""

    def test_threshold_splits_admit_and_reject(self):
        config = AdmissionConfig(
            admit_utilization=1.0, est_offload_fraction=1.0
        )
        assert decide(config, "e", 4.0, 2.0, 6.0).admitted
        rejected = decide(config, "e", 5.0, 2.0, 6.0)
        assert not rejected.admitted
        assert "exceeds admit threshold" in rejected.reason
        assert rejected.utilization == pytest.approx(7.0 / 6.0)

    def test_shed_plan_is_empty_under_the_threshold(self):
        config = AdmissionConfig(shed_utilization=1.5)
        assert shed_plan(config, [("a", 3.0), ("b", 3.0)], 6.0) == ()
        assert shed_plan(OPEN_ADMISSION, [("a", 100.0)], 1.0) == ()

    def test_shed_plan_peels_newest_first_down_to_admit_band(self):
        config = AdmissionConfig(
            admit_utilization=1.0, shed_utilization=1.5
        )
        tenants = [("old", 4.0), ("mid", 3.0), ("new", 3.0)]
        # 10/6 > 1.5: shed "new" (7/6 > 1) then "mid" (4/6 <= 1).
        assert shed_plan(config, tenants, 6.0) == ("new", "mid")


class TestTopology:
    def test_config_rejects_empty_and_duplicate_nodes(self):
        with pytest.raises(EdgeError):
            EdgeTopologyConfig(nodes=())
        with pytest.raises(EdgeError):
            EdgeTopologyConfig(nodes=(_node("a"), _node("a")))

    def test_singleton_detection(self):
        assert EdgeTopologyConfig.single().is_singleton
        assert not default_topology(1).is_singleton  # admission enabled
        assert not default_topology(4).is_singleton

    def test_default_topology_is_a_pure_function(self):
        assert default_topology(4) == default_topology(4)
        names = [n.name for n in default_topology(3).nodes]
        assert names == ["edge-0", "edge-1", "edge-2"]

    def test_attach_detach_bookkeeping(self):
        topology = EdgeTopology(
            EdgeTopologyConfig(nodes=(_node("a"), _node("b")))
        )
        link = WirelessLink(LinkConfig(), seed=1)
        topology.attach("s0", "a", link)
        assert topology.assignment_of("s0") == "a"
        assert topology.node("a").server.total_streams == 0.0
        with pytest.raises(EdgeError):
            topology.attach("s0", "b", link)  # double attach
        assert topology.detach("s0") == "a"
        assert topology.assignment_of("s0") is None

    def test_outage_rejects_regardless_of_admission(self):
        topology = EdgeTopology(EdgeTopologyConfig(nodes=(_node("a"),)))
        topology.node("a").set_outage(True)
        decision = topology.admit("a", 0.0)
        assert not decision.admitted and "outage" in decision.reason

    def test_bandwidth_scale_clamps_to_link_bounds(self):
        node_config = _node("a")
        topology = EdgeTopology(EdgeTopologyConfig(nodes=(node_config,)))
        node = topology.node("a")
        node.set_bandwidth_scale(1e-9)
        assert node.bandwidth_scale == node_config.link.min_scale
        node.set_bandwidth_scale(1e9)
        assert node.bandwidth_scale == node_config.link.max_scale


class TestPlacement:
    def _topology(self, **kwargs):
        return EdgeTopology(
            EdgeTopologyConfig(
                nodes=(
                    _node("near", distance=0.0, **kwargs),
                    _node("mid", distance=10.0, **kwargs),
                    _node("far", distance=20.0, **kwargs),
                )
            )
        )

    def test_unknown_policy_raises(self):
        with pytest.raises(EdgeError):
            resolve_policy("round-robin")

    def test_nearest_ranks_by_distance_to_position(self):
        topology = self._topology()
        outcome = place(
            topology, PlacementRequest("s", 1.0, position=9.0), "nearest"
        )
        assert outcome.node == "mid"

    def test_least_loaded_avoids_busy_nodes(self):
        topology = self._topology()
        link = WirelessLink(LinkConfig(), seed=1)
        topology.attach("busy", "near", link)
        topology.node("near").server.set_demand("busy", 5.0)
        outcome = place(
            topology, PlacementRequest("s", 1.0), "least-loaded"
        )
        assert outcome.node == "mid"  # first zero-load node in config order

    def test_price_aware_needs_a_profile(self):
        topology = self._topology()
        with pytest.raises(EdgeError):
            place(topology, PlacementRequest("s", 1.0), "price-aware")

    def test_price_aware_picks_the_cheapest_node(self):
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        topology = self._topology()
        link = WirelessLink(LinkConfig(), seed=1)
        topology.attach("busy", "near", link)
        topology.node("near").server.set_demand("busy", 12.0)
        outcome = place(
            topology,
            PlacementRequest("s", 1.0, profile=profile),
            "price-aware",
        )
        prices = {
            node.name: node_offload_price_ms(node, profile, 1.0)
            for node in topology.nodes
        }
        assert outcome.node == min(prices, key=lambda k: (prices[k],))
        assert outcome.node != "near"

    def test_rejection_cascade_records_every_refusal(self):
        admission = AdmissionConfig(
            admit_utilization=0.1, est_offload_fraction=1.0
        )
        topology = self._topology(admission=admission, capacity=1.0)
        outcome = place(
            topology, PlacementRequest("s", 5.0), "least-loaded"
        )
        assert not outcome.admitted and outcome.node is None
        assert len(outcome.rejections) == 3
        assert all(not r.admitted for r in outcome.rejections)

    def test_outage_nodes_are_never_ranked(self):
        topology = self._topology()
        topology.node("near").set_outage(True)
        outcome = place(
            topology, PlacementRequest("s", 1.0, position=0.0), "nearest"
        )
        assert outcome.node == "mid"


class TestPlacementDeterminism:
    """Satellite: placement is a pure function of (seed, arrival order,
    topology config)."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=30.0),
                st.floats(min_value=0.1, max_value=4.0),
            ),
            min_size=1,
            max_size=8,
        ),
        policy=st.sampled_from(["nearest", "least-loaded"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_identical_replays_place_identically(self, seed, arrivals, policy):
        def replay():
            topology = EdgeTopology(
                default_topology(3, admission=AdmissionConfig())
            )
            outcomes = []
            for i, (position, est) in enumerate(arrivals):
                sid = f"s{i}"
                outcome = place(
                    topology,
                    PlacementRequest(sid, est, position=position),
                    policy,
                )
                outcomes.append((outcome.node, len(outcome.rejections)))
                if outcome.admitted:
                    link = WirelessLink(
                        topology.node(outcome.node).config.link,
                        seed=derive_seed(seed, sid),
                    )
                    node = topology.attach(sid, outcome.node, link)
                    node.server.set_demand(sid, est)
            return outcomes

        assert replay() == replay()


class TestDriftMap:
    """Satellite: apply_network_drift generalizes to per-server maps."""

    def test_legacy_tuple_call_sites_are_byte_identical(self):
        a = WirelessLink(LinkConfig(), seed=3)
        b = WirelessLink(LinkConfig(), seed=3)
        for now_s in (0.0, 15.0, 30.0, 45.0, 60.0, 90.0):
            scale_a = apply_network_drift(a, now_s)
            scale_b = apply_network_drift(
                b, now_s, {"n0": NETWORK_DRIFT_SCHEDULE}, server="n0"
            )
            assert scale_a == scale_b
            assert scale_a == network_drift_scale(now_s)
            assert a.bytes_per_ms == b.bytes_per_ms

    def test_map_without_server_name_raises(self):
        link = WirelessLink(LinkConfig(), seed=3)
        with pytest.raises(ConfigurationError):
            apply_network_drift(link, 0.0, {"n0": NETWORK_DRIFT_SCHEDULE})

    def test_server_absent_from_map_stays_nominal(self):
        link = WirelessLink(LinkConfig(), seed=3)
        apply_network_drift(link, 30.0)  # collapse to 0.25 first
        scale = apply_network_drift(
            link, 30.0, {"other": NETWORK_DRIFT_SCHEDULE}, server="n0"
        )
        assert scale == 1.0
        assert link.bytes_per_ms == link.config.bytes_per_ms

    def test_staggered_schedules_shift_breakpoints_per_node(self):
        plans = staggered_drift_schedules(["a", "b", "c"], stagger_s=10.0)
        assert set(plans) == {"a", "b", "c"}
        assert plans["a"] == NETWORK_DRIFT_SCHEDULE
        for i, name in enumerate(["a", "b", "c"]):
            for (t0, s0), (t1, s1) in zip(NETWORK_DRIFT_SCHEDULE, plans[name]):
                assert s1 == s0
                assert t1 == (t0 + 10.0 * i if t0 > 0 else t0)

    def test_server_outage_validation_and_coverage(self):
        episode = ServerOutage("edge-0", 5.0, 10.0)
        assert not episode.covers(4.9)
        assert episode.covers(5.0)
        assert not episode.covers(10.0)
        with pytest.raises(ConfigurationError):
            ServerOutage("edge-0", 10.0, 5.0)
        with pytest.raises(ConfigurationError):
            ServerOutage("", 0.0, 1.0)


class TestSingletonEquivalence:
    """``--edge`` is the 1-node open topology: it keeps the bytes of the
    one-shared-server fleet it replaced and names the node it used."""

    def test_edge_cli_matches_pinned_singleton_bytes(self, capsys):
        # Measured on the retired singleton-server path at seed 2024, and
        # re-pinned when lock-in onto confirmed store entries landed.
        assert main(
            ["fleet", "--edge", "--sessions", "16", "--seed", "2024",
             "--initial", "2", "--iterations", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dc806b27a19d1745a43167bce600bce3589b3c5feec1e951d293a77ef93a6f35"
        )

    def test_edge_export_names_the_shared_server(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        assert main(
            ["fleet", "--edge", "--sessions", "6", "--seed", "2024",
             "--initial", "2", "--iterations", "2", "--export", str(path)]
        ) == 0
        capsys.readouterr()
        exported = json.loads(path.read_text())
        assert "topology" not in exported  # topology_stats is None
        for session in exported["sessions"]:
            assert session["placed_node"] == session["edge_node"] == "edge-server"


class TestTopologyFleet:
    def test_config_cross_validation(self):
        with pytest.raises(Exception):
            FleetConfig(edge_outages=(ServerOutage("edge-0", 0.0, 1.0),))
        with pytest.raises(Exception):
            FleetConfig(
                topology=default_topology(2),
                edge_outages=(ServerOutage("nope", 0.0, 1.0),),
            )
        with pytest.raises(Exception):
            FleetConfig(topology=default_topology(2), placement="bogus")

    def test_topology_fleet_is_deterministic(self):
        def run():
            scheduler = FleetScheduler(
                flash_crowd_specs(6, seed=5),
                seed=derive_seed(5, "topo-det"),
                config=FleetConfig(
                    hbo=SMALL,
                    warm_start=False,
                    topology=saturation_topology(2),
                    placement="least-loaded",
                ),
            )
            return fleet_result_to_dict(scheduler.run())

        assert run() == run()

    def test_saturation_degrades_gracefully_to_device(self):
        """Oversubscribing tiny servers rejects/sheds sessions without
        crashing; every session still completes its full budget."""
        scheduler = FleetScheduler(
            flash_crowd_specs(8, seed=7),
            seed=derive_seed(7, "topo-sat"),
            config=FleetConfig(
                hbo=SMALL,
                warm_start=False,
                topology=saturation_topology(2, capacity_streams=1.5),
                placement="least-loaded",
            ),
        )
        result = scheduler.run()
        stats = result.topology_stats
        assert stats is not None
        assert stats["rejections"] + stats["sheds"] > 0
        budget = SMALL.total_evaluations
        for report in result.reports:
            assert len(report.costs) == budget
            assert len(report.epsilons) == budget
        degraded = [r for r in result.reports if r.fallback_reason]
        rejected = [r for r in result.reports if not r.placed_node]
        assert degraded or rejected
        assert all(r.fallback_reason == "shed" for r in degraded)

    def test_outage_sheds_every_tenant_onto_its_device(self):
        # Second node far enough that every flash-crowd position (0..30)
        # prefers edge-0 under `nearest` — and it keeps the topology
        # non-singleton so stats are reported.
        topology = EdgeTopologyConfig(
            nodes=(_node("edge-0"), _node("edge-1", distance=1000.0)),
            migration=MigrationConfig(enabled=False),
        )
        scheduler = FleetScheduler(
            flash_crowd_specs(4, seed=9, gap_s=0.0),
            seed=derive_seed(9, "topo-outage"),
            config=FleetConfig(
                hbo=SMALL,
                warm_start=False,
                topology=topology,
                placement="nearest",
                edge_outages=(ServerOutage("edge-0", 2.0, 1000.0),),
            ),
        )
        result = scheduler.run()
        stats = result.topology_stats
        assert stats is not None
        assert stats["outage_fallbacks"] == 4
        assert all(r.fallback_reason == "outage" for r in result.reports)
        assert all(r.placed_node == "edge-0" for r in result.reports)
        assert all(r.edge_node == "" for r in result.reports)
        budget = SMALL.total_evaluations
        assert all(len(r.costs) == budget for r in result.reports)

    def test_drift_collapse_migrates_sessions_with_hysteresis(self):
        topology = EdgeTopologyConfig(
            nodes=(
                _node("edge-0", distance=0.0),
                _node("edge-1", distance=1000.0),
            ),
            migration=MigrationConfig(
                enabled=True, hysteresis=0.05, dwell_ticks=1
            ),
        )
        drift = {"edge-0": ((0.0, 1.0), (2.0, 0.05))}

        def run():
            scheduler = FleetScheduler(
                flash_crowd_specs(4, seed=11, gap_s=0.0),
                seed=derive_seed(11, "topo-mig"),
                config=FleetConfig(
                    hbo=HBOConfig(n_initial=2, n_iterations=4),
                    warm_start=False,
                    topology=topology,
                    placement="nearest",
                    edge_drift=drift,
                ),
            )
            return scheduler.run()

        result = run()
        stats = result.topology_stats
        assert stats is not None
        assert stats["migrations"] > 0
        migrated = [r for r in result.reports if r.migrations > 0]
        assert migrated
        assert all(r.placed_node == "edge-0" for r in result.reports)
        assert all(r.edge_node == "edge-1" for r in migrated)
        # Hysteresis + dwell keep it one-way under a one-way collapse.
        assert all(r.migrations == 1 for r in migrated)
        again = run()
        assert fleet_result_to_dict(result) == fleet_result_to_dict(again)

    def test_admission_control_beats_open_admission_on_the_eps_tail(self):
        """The BENCH_pr7 headline ordering, at a reduced budget."""
        study = run_saturation_study(
            seed=2024, config=HBOConfig(n_initial=2, n_iterations=3)
        )
        assert study.epsilon_tail_win > 0


class TestEdgeParityMultiServer:
    """Acceptance: scalar/backend parity with shares from N >= 2 nodes."""

    def _share_of(self, node, extern):
        node.server.register("bg")
        node.server.set_demand("bg", extern)
        return node.pricing_share(extern_streams=extern)

    def test_heterogeneous_node_shares_batch_bit_for_bit(self):
        topology = EdgeTopology(default_topology(3))
        soc = galaxy_s22_soc()
        model = ContentionModel(soc)
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        load = SystemLoad(rendered_triangles=200_000.0, n_objects=4)
        rows = []
        scalar = []
        for i, node in enumerate(topology.nodes):
            share = self._share_of(node, extern=1.5 * i)
            placements = [TaskPlacement(f"t{i}", profile, Resource.EDGE)]
            state = model.processor_state(placements, load, share)
            scalar.append(
                model.task_latency(placements[0], state, share)
            )
            rows.append((soc, placements, load, share))
        plan = EvalPlan.from_placement_rows(rows)
        result = solve(plan, exact=True)
        for i in range(len(rows)):
            batched = plan.latency_map(result.latency_ms, i)
            assert batched[f"t{i}"] == scalar[i]

    def test_node_prices_diverge_across_the_topology(self):
        """Heterogeneous nodes must actually price differently, or the
        parity test above would be vacuous."""
        topology = EdgeTopology(default_topology(3))
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        prices = [
            node_offload_price_ms(node, profile, 1.0)
            for node in topology.nodes
        ]
        assert len(set(prices)) == len(prices)
