"""Unit tests for repro.sim (clock, events, trace, scenarios, engine)."""

import numpy as np
import pytest

from repro.ar.objects import object_by_name
from repro.ar.scene import Scene
from repro.core.activation import EventBasedPolicy, PeriodicPolicy
from repro.core.controller import HBOConfig, HBOController
from repro.errors import ConfigurationError, SimulationError
from repro.sim.clock import SimClock
from repro.sim.engine import MonitoringEngine
from repro.sim.events import (
    DistanceChange,
    ObjectPlacement,
    ObjectRemoval,
    validate_script,
)
from repro.sim.scenarios import (
    build_system,
    fig8_event_script,
    place_catalog,
    scenario_catalog,
    scenario_taskset,
)
from repro.sim.trace import ActivationRecord, RewardSample, SessionTrace


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.5) == 3.0
        assert clock.now_s == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-1.0)


class TestEvents:
    def test_placement_applies(self):
        scene = Scene()
        event = ObjectPlacement(
            time_s=1.0, instance_id="b", obj=object_by_name("bike"),
            position=(0, 0, 2),
        )
        note = event.apply(scene)
        assert "b" in scene
        assert "178,552" in note

    def test_removal_applies(self):
        scene = Scene()
        scene.add("b", object_by_name("bike"), (0, 0, 2))
        ObjectRemoval(time_s=2.0, instance_id="b").apply(scene)
        assert len(scene) == 0

    def test_distance_change_applies(self):
        scene = Scene()
        DistanceChange(time_s=0.0, user_position=(1, 2, 3)).apply(scene)
        assert np.allclose(scene.user_position, [1, 2, 3])

    def test_validation(self):
        with pytest.raises(SimulationError):
            ObjectPlacement(time_s=-1.0, instance_id="x", obj=object_by_name("bike"))
        with pytest.raises(SimulationError):
            ObjectPlacement(time_s=0.0, instance_id="", obj=object_by_name("bike"))
        with pytest.raises(SimulationError):
            ObjectRemoval(time_s=0.0, instance_id="")

    def test_validate_script_sorts_and_checks(self):
        bike = object_by_name("bike")
        script = validate_script(
            [
                ObjectRemoval(time_s=5.0, instance_id="a"),
                ObjectPlacement(time_s=1.0, instance_id="a", obj=bike),
            ]
        )
        assert [e.time_s for e in script] == [1.0, 5.0]
        with pytest.raises(SimulationError, match="duplicate placement"):
            validate_script(
                [
                    ObjectPlacement(time_s=0.0, instance_id="a", obj=bike),
                    ObjectPlacement(time_s=1.0, instance_id="a", obj=bike),
                ]
            )
        with pytest.raises(SimulationError, match="never-placed"):
            validate_script([ObjectRemoval(time_s=0.0, instance_id="ghost")])


class TestTrace:
    def test_samples_must_be_time_ordered(self):
        trace = SessionTrace()
        trace.add_sample(RewardSample(time_s=1.0, reward=0.5))
        with pytest.raises(SimulationError):
            trace.add_sample(RewardSample(time_s=0.5, reward=0.5))

    def test_series_and_windows(self):
        trace = SessionTrace()
        for t in (0.0, 2.0, 4.0):
            trace.add_sample(RewardSample(time_s=t, reward=-t))
        trace.add_activation(
            ActivationRecord(
                start_time_s=2.0, end_time_s=6.0, trigger="placed",
                best_cost=0.1, best_triangle_ratio=0.8,
                reward_before=-1.0, reward_after=-0.1, n_iterations=4,
            )
        )
        times, rewards = trace.reward_series()
        assert np.allclose(times, [0, 2, 4])
        windows = [(a.start_time_s, a.end_time_s) for a in trace.activations]
        assert windows == [(2.0, 6.0)]
        assert trace.n_activations == 1


class TestScenarios:
    def test_build_system_places_all_instances(self):
        system = build_system("SC1", "CF1", seed=3)
        assert len(system.scene) == 9
        assert len(system.taskset) == 6

    def test_build_system_defer_placement(self):
        system = build_system("SC2", "CF2", seed=3, place_objects=False)
        assert len(system.scene) == 0

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_catalog("SC3")
        with pytest.raises(ConfigurationError):
            scenario_taskset("CF9")
        with pytest.raises(ConfigurationError):
            build_system("SC1", "CF1", device="OnePlus")

    def test_same_seed_same_placement(self):
        a = build_system("SC1", "CF1", seed=3)
        b = build_system("SC1", "CF1", seed=3)
        for iid in a.scene.columns.ids:
            assert np.allclose(a.scene.get(iid).position, b.scene.get(iid).position)

    def test_place_catalog_distances_reasonable(self):
        scene = Scene()
        place_catalog(scene, scenario_catalog("SC1"), seed=1)
        distances = list(scene.distances().values())
        assert min(distances) >= 0.3
        assert max(distances) <= 4.0

    def test_fig8_script_shape(self):
        events, duration = fig8_event_script(seed=2)
        placements = [e for e in events if isinstance(e, ObjectPlacement)]
        moves = [e for e in events if isinstance(e, DistanceChange)]
        assert len(placements) == 10
        assert len(moves) == 1
        assert moves[0].time_s == pytest.approx(320.0)
        assert duration > moves[0].time_s
        # The 10th object is the heavy one.
        assert placements[-1].obj.max_triangles > 100_000


class TestMonitoringEngine:
    def _make_engine(self, policy, seed=5):
        system = build_system("SC2", "CF2", seed=seed, place_objects=False)
        controller = HBOController(
            system, HBOConfig(n_initial=2, n_iterations=2), seed=seed
        )
        return MonitoringEngine(
            controller, policy, monitor_interval_s=2.0, control_period_s=2.0,
            monitor_samples=2,
        )

    def test_event_policy_session(self):
        engine = self._make_engine(EventBasedPolicy())
        bike = object_by_name("bike")
        events = [
            ObjectPlacement(time_s=4.0, instance_id="b1", obj=bike, position=(0, 0, 1.2)),
        ]
        report = engine.run(events, duration_s=40.0)
        assert report.n_activations >= 1  # first placement triggers
        assert report.trace.activations[0].trigger.startswith("place") or (
            "first" in report.trace.activations[0].trigger
        )
        times, _rewards = report.trace.reward_series()
        assert np.all(np.diff(times) > 0)

    def test_no_objects_no_activation(self):
        engine = self._make_engine(EventBasedPolicy())
        report = engine.run([], duration_s=20.0)
        assert report.n_activations == 0

    def test_periodic_policy_activates_repeatedly(self):
        engine = self._make_engine(PeriodicPolicy(period=4))
        bike = object_by_name("cabin")
        events = [
            ObjectPlacement(time_s=0.0, instance_id="c", obj=object_by_name("cabin"),
                            position=(0, 0, 1.0)),
        ]
        report = engine.run(events, duration_s=120.0)
        assert report.n_activations >= 2

    def test_invalid_construction(self):
        system = build_system("SC2", "CF2", seed=1, place_objects=False)
        controller = HBOController(system, HBOConfig(n_initial=2, n_iterations=1))
        with pytest.raises(ConfigurationError):
            MonitoringEngine(controller, EventBasedPolicy(), monitor_interval_s=0)
        with pytest.raises(ConfigurationError):
            MonitoringEngine(controller, EventBasedPolicy(), monitor_samples=0)
        engine = MonitoringEngine(controller, EventBasedPolicy())
        with pytest.raises(ConfigurationError):
            engine.run([], duration_s=0)
