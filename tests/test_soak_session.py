"""Soak test: a long, adversarial session end to end.

One simulated ~13-minute MAR session that exercises everything at once:
object churn (placements *and* removals), user movement and the
event-based activation policy — asserting the system stays consistent and
responsive throughout. This is the closest thing to a production burn-in the
simulator can express.
"""

import numpy as np
import pytest

from repro.ar.objects import catalog_sc2, expand_instances, object_by_name
from repro.core.activation import EventBasedPolicy
from repro.core.controller import HBOConfig, HBOController
from repro.sim.engine import MonitoringEngine
from repro.sim.events import DistanceChange, ObjectPlacement, ObjectRemoval
from repro.sim.scenarios import build_system


@pytest.fixture(scope="module")
def soak_report():
    system = build_system("SC2", "CF2", seed=31, place_objects=False,
                          noise_sigma=0.03)
    controller = HBOController(
        system, HBOConfig(n_initial=3, n_iterations=5), seed=31
    )
    engine = MonitoringEngine(
        controller, EventBasedPolicy(), monitor_interval_s=2.0,
        control_period_s=2.0,
    )

    # Build a churny script: waves of placements, removals, movement.
    events = []
    instances = expand_instances(catalog_sc2())
    rng = np.random.default_rng(31)
    t = 0.0
    for i, (iid, obj) in enumerate(instances):
        events.append(
            ObjectPlacement(
                time_s=t, instance_id=iid, obj=obj,
                position=tuple(rng.uniform(-1.0, 1.0, 3) + [0, 0, 1.2]),
            )
        )
        t += 25.0
    # A heavy intruder, then remove it again.
    events.append(
        ObjectPlacement(time_s=t, instance_id="intruder",
                        obj=object_by_name("plane"), position=(0, 0, 1.0))
    )
    events.append(ObjectRemoval(time_s=t + 80.0, instance_id="intruder"))
    # The user wanders.
    events.append(DistanceChange(time_s=t + 120.0, user_position=(0, 0, -1.5)))
    events.append(DistanceChange(time_s=t + 200.0, user_position=(0, 0, 0.5)))
    # Remove a couple of originals near the end.
    events.append(ObjectRemoval(time_s=t + 260.0, instance_id=instances[0][0]))
    events.append(ObjectRemoval(time_s=t + 280.0, instance_id=instances[1][0]))
    duration = t + 340.0

    report = engine.run(events, duration)
    return system, report


class TestSoakSession:
    def test_session_completes_with_activity(self, soak_report):
        system, report = soak_report
        assert report.n_activations >= 1
        times, rewards = report.trace.reward_series()
        assert times[-1] > 500.0  # the session actually ran long
        assert np.all(np.isfinite(rewards))

    def test_scene_state_consistent_at_end(self, soak_report):
        system, report = soak_report
        # 7 placed + intruder placed, then 3 removals → 5 objects remain.
        assert len(system.scene) == 5
        assert "intruder" not in system.scene
        # Every remaining object draws within its bounds.
        for placed in system.scene:
            assert 0.0 < placed.ratio <= 1.0

    def test_device_allocation_covers_exactly_the_taskset(self, soak_report):
        system, _report = soak_report
        assert set(system.device.allocation) == set(system.taskset.task_ids)

    def test_reward_recovers_after_intruder_leaves(self, soak_report):
        _system, report = soak_report
        times, rewards = report.trace.reward_series()
        # Mean reward over the final stretch beats the worst moment of the
        # session (the system recovered from the churn).
        closing = rewards[times > times[-1] - 60.0]
        assert closing.mean() > rewards.min()

    def test_activation_windows_are_disjoint_and_ordered(self, soak_report):
        _system, report = soak_report
        windows = [(a.start_time_s, a.end_time_s) for a in report.trace.activations]
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 <= s2
            assert s1 < e1


class TestSoakWithFailureAndLookup:
    def test_repeated_activations_do_not_leak_tasks(self):
        system = build_system("SC2", "CF2", seed=34, noise_sigma=0.02)
        controller = HBOController(
            system, HBOConfig(n_initial=2, n_iterations=2), seed=34
        )
        for _ in range(5):
            controller.activate()
        assert set(system.device.allocation) == set(system.taskset.task_ids)
        assert len(controller.activations) == 5
