"""Scenario engine tests: generator purity, catalog round-trips, the
compile replay contract, the full scenario × serving-mode lattice, and
the thermal/event/drift fleet hooks the catalog drives."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import HBOConfig
from repro.device.profiles import device_names
from repro.device.thermal import ThermalModel, ThermalSpec
from repro.edge.topology import default_topology
from repro.errors import ConfigurationError, FleetError, ScenarioError
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.session import SessionSpec
from repro.rng import derive_seed
from repro.scenarios import (
    compile_scenario,
    default_fleet_specs,
    device_mix,
    diurnal_arrivals,
    dump_spec,
    export_json,
    flash_crowd_arrivals,
    get_scenario,
    load_spec,
    mobility_events,
    mobility_flags,
    mobility_link_schedule,
    run_scenario,
    ScenarioRun,
    scenario_names,
    ThermalEpisodeSpec,
    thermal_flags,
    user_positions,
    with_serving_mode,
    workload_mix,
)
from repro.scenarios.catalog import SERVING_MODES
from repro.sim.events import DistanceChange
from repro.sim.scenarios import build_system

TINY = HBOConfig(n_initial=2, n_iterations=2)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestGeneratorAxes:
    @given(seed=seeds, n=st.integers(1, 32),
           peak=st.floats(1.0, 10.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_diurnal_sorted_in_range_and_pure(
        self, seed: int, n: int, peak: float
    ) -> None:
        first = diurnal_arrivals(n, seed, period_s=120.0, peak_to_base=peak)
        assert first == diurnal_arrivals(
            n, seed, period_s=120.0, peak_to_base=peak
        )
        assert len(first) == n
        assert list(first) == sorted(first)
        assert all(0.0 <= t <= 120.0 for t in first)

    @given(seed=seeds, n=st.integers(1, 32),
           fraction=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_flash_crowd_sorted_nonnegative_and_pure(
        self, seed: int, n: int, fraction: float
    ) -> None:
        kwargs = dict(
            window_s=60.0, burst_time_s=20.0, burst_sigma_s=3.0,
            burst_fraction=fraction,
        )
        first = flash_crowd_arrivals(n, seed, **kwargs)
        assert first == flash_crowd_arrivals(n, seed, **kwargs)
        assert len(first) == n
        assert list(first) == sorted(first)
        assert all(t >= 0.0 for t in first)

    @given(seed=seeds, n=st.integers(1, 32))
    @settings(max_examples=25, deadline=None)
    def test_device_mix_draws_known_devices(self, seed: int, n: int) -> None:
        weights = tuple((name, 1.0) for name in device_names())
        picks = device_mix(n, seed, weights)
        assert picks == device_mix(n, seed, weights)
        assert len(picks) == n
        assert set(picks) <= set(device_names())

    @given(seed=seeds, churn=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_workload_mix_stream_stable_under_churn(
        self, seed: int, churn: bool
    ) -> None:
        arrivals = (0.0, 5.0, 30.0, 60.0)
        weights = (("SC1", "CF1", 0.7), ("SC2", "CF2", 0.3))
        churn_weights = (("SC2", "CF2", 1.0),)
        picks = workload_mix(
            arrivals, seed, weights,
            churn_time_s=20.0 if churn else -1.0,
            churn_weights=churn_weights if churn else (),
        )
        assert len(picks) == len(arrivals)
        assert all(pair in (("SC1", "CF1"), ("SC2", "CF2")) for pair in picks)
        if churn:
            # Late arrivals draw from the churned table (all-SC2 here).
            assert picks[2] == ("SC2", "CF2")
            assert picks[3] == ("SC2", "CF2")

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_mobility_link_schedule_shape(self, seed: int) -> None:
        schedule = mobility_link_schedule(
            seed, "u000", start_s=3.0, duration_s=40.0, n_breakpoints=4,
            scale_floor=0.3, scale_ceil=1.4,
        )
        assert schedule == mobility_link_schedule(
            seed, "u000", start_s=3.0, duration_s=40.0, n_breakpoints=4,
            scale_floor=0.3, scale_ceil=1.4,
        )
        assert schedule[0] == (0.0, 1.0)
        times = [t for t, _scale in schedule]
        assert times == sorted(times)
        assert all(0.3 <= scale <= 1.4 for _t, scale in schedule[1:])

    @given(seed=seeds, n_moves=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_mobility_events_are_sorted_distance_changes(
        self, seed: int, n_moves: int
    ) -> None:
        events = mobility_events(
            seed, "u001", start_s=2.0, duration_s=30.0, n_moves=n_moves
        )
        assert len(events) == n_moves
        assert all(isinstance(e, DistanceChange) for e in events)
        times = [e.time_s for e in events]
        assert times == sorted(times)
        assert all(t >= 2.0 for t in times)

    @given(seed=seeds, n=st.integers(1, 32),
           fraction=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_flag_axes_pure_with_independent_streams(
        self, seed: int, n: int, fraction: float
    ) -> None:
        hot = thermal_flags(n, seed, fraction)
        mobile = mobility_flags(n, seed, fraction)
        assert hot == thermal_flags(n, seed, fraction)
        assert mobile == mobility_flags(n, seed, fraction)
        assert len(hot) == len(mobile) == n
        positions = user_positions(n, seed, span_m=30.0)
        assert all(0.0 <= p < 30.0 for p in positions)

    def test_axis_validation(self) -> None:
        with pytest.raises(ScenarioError):
            diurnal_arrivals(0, 1)
        with pytest.raises(ScenarioError):
            diurnal_arrivals(4, 1, peak_to_base=0.5)
        with pytest.raises(ScenarioError):
            flash_crowd_arrivals(4, 1, burst_fraction=1.5)
        with pytest.raises(ScenarioError):
            device_mix(4, 1, (("No Such Phone", 1.0),))
        with pytest.raises(ScenarioError):
            workload_mix((0.0,), 1, (("SC9", "CF1", 1.0),))
        with pytest.raises(ScenarioError):
            thermal_flags(4, 1, 1.5)


class TestCatalog:
    def test_catalog_has_expected_entries(self) -> None:
        names = scenario_names()
        assert len(names) == 8
        assert {"legacy-fleet", "diurnal-baseline", "flash-crowd",
                "commuter-mobility", "hot-device", "mixed-fleet-churn",
                "network-collapse", "low-tier-surge"} == set(names)

    def test_unknown_name_raises(self) -> None:
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_spec_round_trips_through_json(self, name: str) -> None:
        spec = get_scenario(name)
        text = dump_spec(spec)
        assert text.endswith("\n")
        assert load_spec(text) == spec

    def test_load_spec_rejects_garbage(self) -> None:
        with pytest.raises(ScenarioError, match="does not parse"):
            load_spec("{not json")
        with pytest.raises(ScenarioError, match="must be an object"):
            load_spec("[1, 2]")
        with pytest.raises(ScenarioError, match="malformed"):
            load_spec('{"name": "x"}')

    def test_spec_validation(self) -> None:
        spec = get_scenario("diurnal-baseline")
        with pytest.raises(ScenarioError, match="unknown arrival process"):
            dataclasses.replace(
                spec, arrivals=dataclasses.replace(
                    spec.arrivals, process="poisson"
                )
            )
        legacy = get_scenario("legacy-fleet")
        with pytest.raises(ScenarioError, match="must be None"):
            dataclasses.replace(legacy, devices=spec.devices)
        with pytest.raises(ScenarioError, match="need devices"):
            dataclasses.replace(spec, devices=None)

    def test_with_serving_mode_drops_topology_features(self) -> None:
        collapse = get_scenario("network-collapse")
        assert collapse.serving.outages
        device = with_serving_mode(collapse, "device")
        assert device.serving.mode == "device"
        assert device.serving.outages == ()
        assert device.serving.node_drift_stagger_s < 0
        with pytest.raises(ScenarioError, match="unknown serving mode"):
            with_serving_mode(collapse, "cloud")


class TestCompile:
    @pytest.mark.parametrize("name", scenario_names())
    def test_compile_is_pure(self, name: str) -> None:
        spec = get_scenario(name)
        first = compile_scenario(spec, 2024, hbo=TINY)
        second = compile_scenario(spec, 2024, hbo=TINY)
        assert first.session_specs == second.session_specs
        assert first.fleet_config == second.fleet_config
        assert first.fleet_seed == second.fleet_seed

    def test_legacy_fleet_matches_hand_written_schedule(self) -> None:
        cfg = HBOConfig(n_initial=3, n_iterations=5)
        compiled = compile_scenario(
            get_scenario("legacy-fleet"), 2024, hbo=cfg, n_sessions=8
        )
        assert list(compiled.session_specs) == default_fleet_specs(
            8, cfg, seed=2024
        )
        assert compiled.fleet_seed == derive_seed(2024, "fleet")
        assert compiled.fleet_config.session_events is None
        assert compiled.fleet_config.thermal is None

    def test_device_mode_has_no_link_drift(self) -> None:
        spec = get_scenario("commuter-mobility")
        served = compile_scenario(spec, 2024, hbo=TINY)
        assert served.fleet_config.link_drift
        assert served.fleet_config.session_events
        on_device = compile_scenario(
            with_serving_mode(spec, "device"), 2024, hbo=TINY
        )
        assert on_device.fleet_config.link_drift is None
        # Scene mobility still applies without an edge.
        assert on_device.fleet_config.session_events

    def test_thermal_scenario_gates_sessions(self) -> None:
        compiled = compile_scenario(get_scenario("hot-device"), 2024, hbo=TINY)
        assert compiled.fleet_config.thermal is not None
        flags = [s.thermal for s in compiled.session_specs]
        assert any(flags)

    def test_n_sessions_override(self) -> None:
        compiled = compile_scenario(
            get_scenario("flash-crowd"), 2024, hbo=TINY, n_sessions=5
        )
        assert len(compiled.session_specs) == 5
        with pytest.raises(ScenarioError):
            compile_scenario(
                get_scenario("flash-crowd"), 2024, hbo=TINY, n_sessions=0
            )


class TestLattice:
    @pytest.mark.parametrize("mode", SERVING_MODES)
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_completes_in_every_mode(
        self, name: str, mode: str
    ) -> None:
        run = run_scenario(name, seed=11, hbo=TINY, n_sessions=3, mode=mode)
        reports = run.result.reports
        assert len(reports) == 3
        for report in reports:
            assert len(report.costs) >= 1  # its budget actually ran
            assert math.isfinite(report.best_cost)
        assert run.result.ticks > 0


class TestReplay:
    @pytest.mark.parametrize("name", scenario_names())
    def test_double_run_byte_identity(self, name: str) -> None:
        first = run_scenario(name, seed=2024, hbo=TINY, n_sessions=4)
        second = run_scenario(name, seed=2024, hbo=TINY, n_sessions=4)
        assert export_json(first) == export_json(second)

    def test_mobility_hooks_change_the_run(self) -> None:
        spec = get_scenario("commuter-mobility")
        with_hooks = run_scenario(spec, seed=11, hbo=TINY, n_sessions=3)
        without = run_scenario(
            dataclasses.replace(spec, mobility=None),
            seed=11, hbo=TINY, n_sessions=3,
        )
        assert export_json(with_hooks) != export_json(without)

    def test_mobility_hooks_compose_with_sharding(self) -> None:
        """Scene events and link drift run in each worker's row pass, so
        a sharded mobility run exports the shards=1 bytes in every
        serving mode."""
        for mode in SERVING_MODES:
            compiled = compile_scenario(
                with_serving_mode(get_scenario("commuter-mobility"), mode),
                2024, hbo=TINY, n_sessions=6,
            )
            exports = []
            for shards in (1, 2, 3):
                config = dataclasses.replace(
                    compiled.fleet_config, shards=shards
                )
                result = run_fleet(
                    compiled.session_specs, seed=compiled.fleet_seed,
                    config=config,
                )
                exports.append(
                    export_json(ScenarioRun(compiled=compiled, result=result))
                )
            assert exports[1] == exports[0], mode
            assert exports[2] == exports[0], mode

    def test_thermal_episode_changes_the_run(self) -> None:
        spec = get_scenario("hot-device")
        hot = run_scenario(spec, seed=11, hbo=TINY, n_sessions=3)
        cool = run_scenario(
            dataclasses.replace(spec, thermal=None),
            seed=11, hbo=TINY, n_sessions=3,
        )
        assert export_json(hot) != export_json(cool)


class TestThermalWiring:
    def test_spec_builds_fresh_models(self) -> None:
        spec = ThermalSpec(throttle_start_c=40.0)
        first, second = spec.build(), spec.build()
        assert first is not second
        assert first.throttle_start_c == 40.0
        with pytest.raises(ConfigurationError):
            ThermalSpec(max_heat_c=-1.0).build()

    @pytest.mark.parametrize(
        "bad",
        [{"time_constant_steps": 0.0}, {"throttle_slope": math.nan},
         {"ambient_c": math.inf}],
    )
    def test_bad_thermal_params_fail_at_construction(self, bad) -> None:
        """Both configs that carry a ThermalSpec reject bad parameters
        when built, not when the first hot session is admitted."""
        with pytest.raises(ConfigurationError):
            FleetConfig(thermal=ThermalSpec(**bad))
        with pytest.raises(ConfigurationError):
            ThermalEpisodeSpec(model=ThermalSpec(**bad))
        payload = json.loads(dump_spec(get_scenario("hot-device")))
        payload["thermal"]["model"].update(bad)
        with pytest.raises(ConfigurationError):
            load_spec(json.dumps(payload))

    def test_throttle_exempts_edge_tasks(self) -> None:
        from repro.device.resources import Resource
        from repro.edge.runtime import build_edge_runtime

        # Already above the throttle knee at construction: factor > 1
        # before any step.
        hot = ThermalModel(
            ambient_c=60.0, max_heat_c=5.0, throttle_start_c=45.0,
            throttle_slope=0.02,
        )
        assert hot.throttle_factor() > 1.0
        seed = derive_seed(11, "SC1", "CF1")
        cool_system = build_system(
            "SC1", "CF1", seed=seed,
            edge=build_edge_runtime(seed=derive_seed(11, "edge-link"),
                                    session_id="t"),
        )
        hot_system = build_system(
            "SC1", "CF1", seed=seed,
            edge=build_edge_runtime(seed=derive_seed(11, "edge-link"),
                                    session_id="t"),
            thermal=hot,
        )
        tid = sorted(cool_system.device.task_ids)[0]
        cool_system.device.set_allocation(tid, Resource.EDGE)
        hot_system.device.set_allocation(tid, Resource.EDGE)
        cool_lat = cool_system.device.steady_state_latencies()
        hot_lat = hot_system.device.steady_state_latencies()
        assert hot_lat[tid] == pytest.approx(cool_lat[tid])
        for other in cool_lat:
            if other != tid:
                assert hot_lat[other] > cool_lat[other]


class TestSchedulerHookValidation:
    def _spec(self, sid: str = "s00") -> SessionSpec:
        return SessionSpec(
            session_id=sid, device="Google Pixel 7", scenario="SC1",
            taskset="CF1", arrival_s=0.0, placement_seed=11,
        )

    @pytest.mark.parametrize(
        "field_name, schedule",
        [
            ("edge_drift", ((5.0, 0.5), (0.0, 1.0))),
            ("edge_drift", ()),
            ("link_drift", ((5.0, 0.5), (0.0, 1.0))),
            ("link_drift", ()),
        ],
    )
    def test_drift_schedules_must_be_nonempty_and_time_sorted(
        self, field_name: str, schedule: tuple
    ) -> None:
        key = "edge-0" if field_name == "edge_drift" else "s00"
        with pytest.raises(FleetError, match="non-empty, time-sorted"):
            FleetConfig(
                hbo=TINY,
                topology=default_topology(2),
                **{field_name: {key: schedule}},
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("slot", ["time", "scale"])
    @pytest.mark.parametrize("field_name", ["edge_drift", "link_drift"])
    def test_drift_breakpoints_must_be_finite(
        self, field_name: str, slot: str, value: float
    ) -> None:
        """A NaN time never comes due and a NaN/inf scale only fails once
        the link applies it mid-run: both are rejected at construction."""
        bad = (value, 0.3) if slot == "time" else (3.0, value)
        key = "edge-0" if field_name == "edge_drift" else "s00"
        with pytest.raises(FleetError, match="must be finite"):
            FleetConfig(
                hbo=TINY,
                topology=default_topology(2),
                **{field_name: {key: ((0.0, 0.5), bad)}},
            )

    def test_link_drift_requires_an_edge(self) -> None:
        with pytest.raises(FleetError, match="link_drift needs an edge"):
            FleetConfig(hbo=TINY, link_drift={"s00": ((0.0, 1.0),)})

    def test_events_must_be_time_sorted(self) -> None:
        events = {
            "s00": (
                DistanceChange(time_s=5.0, user_position=(0.0, 0.0, 1.0)),
                DistanceChange(time_s=1.0, user_position=(0.0, 0.0, 2.0)),
            )
        }
        with pytest.raises(FleetError, match="time-sorted"):
            FleetConfig(hbo=TINY, session_events=events)

    def test_unknown_session_ids_rejected_by_scheduler(self) -> None:
        from repro.fleet.scheduler import FleetScheduler

        events = {"nope": (DistanceChange(time_s=1.0,
                                          user_position=(0.0, 0.0, 1.0)),)}
        with pytest.raises(FleetError, match="unknown session ids"):
            FleetScheduler(
                [self._spec()], seed=11,
                config=FleetConfig(hbo=TINY, session_events=events),
            )
