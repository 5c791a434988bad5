"""The monitoring loop of §IV-E.

:class:`MonitoringEngine` replays a scripted session: it advances the
simulated clock in monitoring intervals (2 s in the paper), fires due
scene events, samples the live reward B_t, and consults the activation
policy. When the policy fires, a full HBO activation runs — consuming
simulated time (one control period per Algorithm 1 iteration) — and the
post-activation reward becomes the policy's new reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.core.activation import EventBasedPolicy, PeriodicPolicy
from repro.core.controller import HBOController
from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.sim.clock import SimClock
from repro.sim.events import SceneEvent, validate_script
from repro.sim.trace import ActivationRecord, RewardSample, SessionTrace

Policy = Union[EventBasedPolicy, PeriodicPolicy]


@dataclass(frozen=True)
class MonitorReport:
    """Summary of a monitored session."""

    trace: SessionTrace
    n_activations: int
    final_reward: float


class MonitoringEngine:
    """Replays a scene script under an activation policy."""

    def __init__(
        self,
        controller: HBOController,
        policy: Policy,
        monitor_interval_s: float = 2.0,
        control_period_s: float = 2.0,
        monitor_samples: int = 20,
    ) -> None:
        if monitor_interval_s <= 0:
            raise ConfigurationError(
                f"monitor_interval_s must be > 0, got {monitor_interval_s}"
            )
        if control_period_s <= 0:
            raise ConfigurationError(
                f"control_period_s must be > 0, got {control_period_s}"
            )
        if monitor_samples < 1:
            raise ConfigurationError(
                f"monitor_samples must be >= 1, got {monitor_samples}"
            )
        self.controller = controller
        self.policy = policy
        self.monitor_interval_s = float(monitor_interval_s)
        self.control_period_s = float(control_period_s)
        self.monitor_samples = int(monitor_samples)
        self.clock = SimClock()

    # ---------------------------------------------------------------- run

    def run(
        self, events: Sequence[SceneEvent], duration_s: float
    ) -> MonitorReport:
        """Replay ``events`` for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {duration_s}")
        script = list(validate_script(events))
        trace = SessionTrace()
        system = self.controller.system
        w = self.controller.config.w
        next_event = 0

        while self.clock.now_s <= duration_s:
            now = self.clock.now_s
            # Fire all events due by now.
            fired_descriptions = []
            while next_event < len(script) and script[next_event].time_s <= now:
                fired_descriptions.append(script[next_event].apply(system.scene))
                next_event += 1
            if fired_descriptions:
                system.refresh_load()

            with obs.span("sim.monitor", category="sim", n_objects=len(system.scene)):
                reward = system.measure_reward(w, samples=self.monitor_samples)
            obs.counter("engine_monitor_steps").inc()
            obs.gauge("engine_reward").set(reward)
            event_note = "; ".join(fired_descriptions) if fired_descriptions else None

            activate = False
            trigger = ""
            if len(system.scene) > 0 and self.policy.should_activate(reward):
                activate = True
                if self.policy.reference is None and not isinstance(
                    self.policy, PeriodicPolicy
                ):
                    trigger = "first object placement"
                elif event_note:
                    trigger = event_note
                else:
                    trigger = "reward drift" if isinstance(
                        self.policy, EventBasedPolicy
                    ) else "period elapsed"

            trace.add_sample(
                RewardSample(
                    time_s=now,
                    reward=reward,
                    n_objects=len(system.scene),
                    during_activation=False,
                    event=event_note,
                )
            )

            if activate:
                self._run_activation(trace, trigger, reward)
            else:
                if isinstance(self.policy, PeriodicPolicy):
                    self.policy.step()
                self.clock.advance(self.monitor_interval_s)

        final_reward = system.measure_reward(w, samples=self.monitor_samples)
        return MonitorReport(
            trace=trace, n_activations=trace.n_activations, final_reward=final_reward
        )

    # ------------------------------------------------------------ internals

    def _run_activation(
        self, trace: SessionTrace, trigger: str, reward_before: float
    ) -> None:
        start = self.clock.now_s
        with obs.span("sim.activation", category="sim", trigger=trigger) as span:
            result = self.controller.activate()
            # Each Algorithm 1 iteration spans one control period of sim time.
            for iteration in result.iterations:
                self.clock.advance(self.control_period_s)
                trace.add_sample(
                    RewardSample(
                        time_s=self.clock.now_s,
                        reward=-iteration.cost,
                        n_objects=len(self.controller.system.scene),
                        during_activation=True,
                    )
                )
            span.set(n_iterations=len(result.iterations), best_cost=result.best.cost)
        obs.counter("engine_activations").inc()
        reward_after = (
            result.final_measurement.reward(self.controller.config.w)
            if result.final_measurement is not None
            else -result.best.cost
        )
        self.policy.record_reference(reward_after)
        trace.add_activation(
            ActivationRecord(
                start_time_s=start,
                end_time_s=self.clock.now_s,
                trigger=trigger,
                best_cost=result.best.cost,
                best_triangle_ratio=result.best.triangle_ratio,
                reward_before=reward_before,
                reward_after=reward_after,
                n_iterations=len(result.iterations),
            )
        )
        self.clock.advance(self.monitor_interval_s)
