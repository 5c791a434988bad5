"""Activation policies (§IV-E).

HBO does not re-optimize on a timer. The event-based policy records the
reward B_t achieved right after an optimization as a *reference* and then
monitors the live reward periodically (every 2 s in the paper's Fig. 8
experiment). A new optimization is triggered when the reward drifts from
the reference by more than a tunable fraction — the paper uses asymmetric
boundaries: 5% for an *increase* (an opportunity appeared, e.g. the user
stepped back and quality improved for free) and 10% for a *decrease* (a
regression, e.g. a heavy object landed). The very first object placement
always triggers, to establish the reference.

:class:`PeriodicPolicy` reproduces the comparison policy of Fig. 8b.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError


def reward_drifted(
    current: float,
    reference: float,
    increase_threshold: float = 0.05,
    decrease_threshold: float = 0.10,
    min_scale: float = 1.0,
) -> bool:
    """The §IV-E band test: has ``current`` left the band around
    ``reference``?

    Drift is relative with a scale floor: the reward B = Q − w·ε crosses
    zero routinely, and dividing by a near-zero reference would turn
    measurement noise into constant re-activations. A one-sided check
    (the fleet's lookup verify only guards against a decrease) passes
    ``increase_threshold=math.inf``.
    """
    scale = max(abs(reference), min_scale)
    drift = (current - reference) / scale
    return drift >= increase_threshold or drift <= -decrease_threshold


class EventBasedPolicy:
    """The paper's event-based activation policy.

    ``confirmations`` adds hysteresis against measurement noise: the drift
    must be observed on that many *consecutive* monitoring samples before
    an activation fires (a single noisy reward sample re-optimizing the
    whole system would defeat the policy's purpose of limiting overhead).
    """

    def __init__(
        self,
        increase_threshold: float = 0.05,
        decrease_threshold: float = 0.10,
        confirmations: int = 2,
        min_scale: float = 1.0,
    ) -> None:
        if increase_threshold <= 0:
            raise ConfigurationError(
                f"increase_threshold must be > 0, got {increase_threshold}"
            )
        if decrease_threshold <= 0:
            raise ConfigurationError(
                f"decrease_threshold must be > 0, got {decrease_threshold}"
            )
        if confirmations < 1:
            raise ConfigurationError(
                f"confirmations must be >= 1, got {confirmations}"
            )
        if min_scale <= 0:
            raise ConfigurationError(f"min_scale must be > 0, got {min_scale}")
        self.increase_threshold = float(increase_threshold)
        self.decrease_threshold = float(decrease_threshold)
        self.confirmations = int(confirmations)
        self.min_scale = float(min_scale)
        self._reference: Optional[float] = None
        self._drift_streak = 0

    @property
    def reference(self) -> Optional[float]:
        """The reward recorded after the last optimization (None before
        the first activation)."""
        return self._reference

    def should_activate(self, current_reward: float) -> bool:
        """Decide whether the observed reward warrants re-optimizing."""
        if self._reference is None:
            return True  # first placement: establish the reference
        if reward_drifted(
            current_reward,
            self._reference,
            self.increase_threshold,
            self.decrease_threshold,
            self.min_scale,
        ):
            self._drift_streak += 1
        else:
            self._drift_streak = 0
        return self._drift_streak >= self.confirmations

    def record_reference(self, reward: float) -> None:
        """Store the post-optimization reward as the new reference."""
        self._reference = float(reward)
        self._drift_streak = 0

    def reset(self) -> None:
        self._reference = None
        self._drift_streak = 0


class PeriodicPolicy:
    """Re-optimize every ``period`` monitoring steps (Fig. 8b)."""

    def __init__(self, period: int) -> None:
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self.period = int(period)
        self._steps_since = None  # type: Optional[int]

    @property
    def reference(self) -> Optional[float]:
        return None

    def should_activate(self, current_reward: float) -> bool:
        if self._steps_since is None:
            return True
        return self._steps_since >= self.period

    def record_reference(self, reward: float) -> None:
        self._steps_since = 0

    def step(self) -> None:
        """Advance one monitoring interval."""
        if self._steps_since is not None:
            self._steps_since += 1

    def reset(self) -> None:
        self._steps_since = None
