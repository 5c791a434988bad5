"""Session telemetry: what happened when.

The monitoring engine records a :class:`RewardSample` at every monitoring
interval (the blue points of the paper's Fig. 8) and an
:class:`ActivationRecord` per HBO activation (the boxed regions). The
resulting :class:`SessionTrace` is what the Fig. 8 bench renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class RewardSample:
    """One monitoring observation of the live reward B_t."""

    time_s: float
    reward: float


@dataclass(frozen=True)
class ActivationRecord:
    """One HBO activation: when it ran and what it settled on."""

    start_time_s: float
    end_time_s: float
    trigger: str  # what the policy reacted to
    best_cost: float
    best_triangle_ratio: float
    reward_before: float
    reward_after: float
    n_iterations: int


@dataclass
class SessionTrace:
    """Everything recorded over one scripted session."""

    samples: List[RewardSample] = field(default_factory=list)
    activations: List[ActivationRecord] = field(default_factory=list)

    def add_sample(self, sample: RewardSample) -> None:
        if self.samples and sample.time_s < self.samples[-1].time_s:
            raise SimulationError(
                f"trace samples must be time-ordered: {sample.time_s} after "
                f"{self.samples[-1].time_s}"
            )
        self.samples.append(sample)

    def add_activation(self, record: ActivationRecord) -> None:
        self.activations.append(record)

    @property
    def n_activations(self) -> int:
        return len(self.activations)

    def reward_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, rewards) arrays of the monitoring samples."""
        if not self.samples:
            return np.empty(0), np.empty(0)
        times = np.asarray([s.time_s for s in self.samples])
        rewards = np.asarray([s.reward for s in self.samples])
        return times, rewards
