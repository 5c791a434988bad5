"""Thermal throttling extension (beyond the paper; off by default).

The paper's §VI notes HBO targets sustained AR sessions; on real phones a
sustained AI+AR load heats the SoC and triggers frequency throttling,
which inflates every latency. This simple first-order model lets the
ablation benches explore how HBO's choices shift when the device
throttles: temperature follows utilization with an exponential time
constant, and the latency multiplier grows once temperature exceeds the
throttle threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


class ThermalModel:
    """First-order SoC temperature with a soft throttle curve.

    Parameters
    ----------
    ambient_c / max_heat_c:
        Idle temperature and the additional degrees reached at 100%
        sustained utilization.
    time_constant_steps:
        Steps for the temperature to close ~63% of the gap to its target.
    throttle_start_c:
        Temperature where throttling begins.
    throttle_slope:
        Latency multiplier gained per degree above the threshold.
    """

    def __init__(
        self,
        ambient_c: float = 30.0,
        max_heat_c: float = 25.0,
        time_constant_steps: float = 40.0,
        throttle_start_c: float = 45.0,
        throttle_slope: float = 0.02,
    ) -> None:
        for name, value in (
            ("ambient_c", ambient_c),
            ("max_heat_c", max_heat_c),
            ("time_constant_steps", time_constant_steps),
            ("throttle_start_c", throttle_start_c),
            ("throttle_slope", throttle_slope),
        ):
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if max_heat_c < 0:
            raise ConfigurationError(f"max_heat_c must be >= 0, got {max_heat_c}")
        if time_constant_steps <= 0:
            raise ConfigurationError(
                f"time_constant_steps must be > 0, got {time_constant_steps}"
            )
        if throttle_slope < 0:
            raise ConfigurationError(
                f"throttle_slope must be >= 0, got {throttle_slope}"
            )
        self.ambient_c = float(ambient_c)
        self.max_heat_c = float(max_heat_c)
        self.time_constant_steps = float(time_constant_steps)
        self.throttle_start_c = float(throttle_start_c)
        self.throttle_slope = float(throttle_slope)
        self.temperature_c = float(ambient_c)

    def step(self, utilization: float) -> None:
        """Advance one control step at the given utilization ∈ [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        target = self.ambient_c + self.max_heat_c * utilization
        alpha = 1.0 / self.time_constant_steps
        self.temperature_c += alpha * (target - self.temperature_c)

    def throttle_factor(self) -> float:
        """Current latency multiplier (1.0 when cool)."""
        excess = max(0.0, self.temperature_c - self.throttle_start_c)
        return 1.0 + self.throttle_slope * excess


@dataclass(frozen=True)
class ThermalSpec:
    """Declarative thermal-episode parameters (picklable, hashable).

    The fleet config and the scenario catalog carry one of these instead
    of a live :class:`ThermalModel` — model instances hold mutable
    temperature state and must be built fresh per session (and per shard
    worker). Fields mirror the model's constructor; see there for
    semantics. Construction validates them by building one model, so the
    checks live in the model's constructor alone.
    """

    ambient_c: float = 30.0
    max_heat_c: float = 25.0
    time_constant_steps: float = 40.0
    throttle_start_c: float = 45.0
    throttle_slope: float = 0.02

    def __post_init__(self) -> None:
        self.build()

    def build(self) -> ThermalModel:
        """A fresh, cool model with these parameters."""
        return ThermalModel(
            ambient_c=self.ambient_c,
            max_heat_c=self.max_heat_c,
            time_constant_steps=self.time_constant_steps,
            throttle_start_c=self.throttle_start_c,
            throttle_slope=self.throttle_slope,
        )
