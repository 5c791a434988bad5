"""Fig. 8: event-based vs periodic activation over a scripted session.

Replays the §V-D script — ten object placements between t = 0 and
t = 255 s, then the user stepping away at t ≈ 320 s — twice: once under
the paper's event-based policy (5%/10% reward-drift thresholds) and once
under a periodic policy. Expected shapes: the event policy activates only
a handful of times (first placement, the heavy 9th/10th objects, the
distance change) while the periodic policy re-optimizes on schedule —
"seven times, potentially imposing unnecessary burdens".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.activation import EventBasedPolicy, PeriodicPolicy
from repro.core.controller import HBOConfig, HBOController
from repro.device.profiles import PIXEL7
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_series, format_table
from repro.rng import derive_seed
from repro.sim.engine import MonitoringEngine, MonitorReport
from repro.sim.scenarios import build_system, fig8_event_script


@dataclass(frozen=True)
class Fig8Result:
    event_report: MonitorReport
    periodic_report: MonitorReport

    @property
    def event_activations(self) -> int:
        return self.event_report.n_activations

    @property
    def periodic_activations(self) -> int:
        return self.periodic_report.n_activations


def _run_session(policy, seed: int, config: HBOConfig) -> MonitorReport:
    # Empty scene: the script places every object.
    system = build_system(
        "SC2", "CF1", device=PIXEL7, seed=seed, place_objects=False
    )
    controller = HBOController(system, config, seed=derive_seed(seed, "ctl"))
    engine = MonitoringEngine(
        controller, policy, monitor_interval_s=2.0, control_period_s=2.0
    )
    events, duration = fig8_event_script(seed=derive_seed(seed, "script"))
    return engine.run(events, duration)


def run_fig8(
    seed: int = DEFAULT_SEED,
    config: HBOConfig = None,  # type: ignore[assignment]
    periodic_interval_steps: int = 25,
) -> Fig8Result:
    cfg = config if config is not None else HBOConfig()
    event_report = _run_session(
        EventBasedPolicy(increase_threshold=0.05, decrease_threshold=0.10),
        derive_seed(seed, "event"),
        cfg,
    )
    periodic_report = _run_session(
        PeriodicPolicy(period=periodic_interval_steps),
        derive_seed(seed, "event"),  # same seed: identical scene script
        cfg,
    )
    return Fig8Result(event_report=event_report, periodic_report=periodic_report)


def render(result: Fig8Result) -> str:
    blocks = []
    for label, report in (
        ("event-based (paper policy)", result.event_report),
        ("periodic", result.periodic_report),
    ):
        times, rewards = report.trace.reward_series()
        lines = [f"Fig. 8 — {label}: {report.n_activations} activations"]
        lines.append(format_series("  reward B_t", rewards, precision=2))
        rows = [
            [
                f"{a.start_time_s:.0f}-{a.end_time_s:.0f}s",
                a.trigger,
                a.reward_before,
                a.reward_after,
                a.best_triangle_ratio,
            ]
            for a in report.trace.activations
        ]
        if rows:
            lines.append(
                format_table(
                    ["window", "trigger", "B before", "B after", "x*"], rows
                )
            )
        blocks.append("\n".join(lines))
    blocks.append(
        f"activation count: event-based={result.event_activations}, "
        f"periodic={result.periodic_activations} "
        "(the event policy should activate substantially fewer times)"
    )
    return "\n\n".join(blocks)


if __name__ == "__main__":
    print(render(run_fig8()))
