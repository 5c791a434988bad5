"""Wireless link models for device ↔ edge-server communication.

Two models share this module:

- :class:`NetworkLink` — a per-exchange request/response hop with
  Gaussian RTT jitter. This is the model ``core/remote.py`` has always
  used for optimizer offload (§VI of the paper); it lives here now so
  optimizer exchanges and task offload price bytes the same way.
- :class:`WirelessLink` — a *traced* link whose effective bandwidth
  drifts between control periods as a geometric random walk (a
  deterministic drift trace given the seed, via :mod:`repro.rng`). Task
  offloading prices transfers against the link's *current* state, so a
  souring link shows up in ε and triggers re-optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, EdgeError
from repro.rng import SeedLike, make_rng
from repro.units import Ms


@dataclass(frozen=True)
class NetworkLink:
    """A Wi-Fi/5G hop to the edge server."""

    rtt_ms: float = 8.0
    jitter_ms: float = 2.0
    bytes_per_ms: float = 5_000.0  # ~40 Mbit/s effective

    def __post_init__(self) -> None:
        if self.rtt_ms < 0 or self.jitter_ms < 0 or self.bytes_per_ms <= 0:
            raise ConfigurationError(
                f"invalid link parameters: rtt={self.rtt_ms}, "
                f"jitter={self.jitter_ms}, rate={self.bytes_per_ms}"
            )

    def transfer_ms(self, payload_bytes: int, rng: np.random.Generator) -> float:
        """One request/response exchange carrying ``payload_bytes``."""
        if payload_bytes < 0:
            raise ConfigurationError(f"payload must be >= 0, got {payload_bytes}")
        jitter = float(rng.normal(0.0, self.jitter_ms)) if self.jitter_ms else 0.0
        return max(0.0, self.rtt_ms + jitter) + payload_bytes / self.bytes_per_ms


@dataclass(frozen=True)
class LinkConfig:
    """Nominal parameters of a task-offload wireless link.

    ``bytes_per_ms`` and ``rtt_ms`` are the nominal (scale = 1) values;
    the effective bandwidth at any control period is
    ``bytes_per_ms * bandwidth_scale`` where the scale follows a
    geometric random walk with per-period log-std ``drift_sigma``,
    clipped to ``[min_scale, max_scale]``.
    """

    bytes_per_ms: float = 8_000.0  # ~64 Mbit/s nominal
    rtt_ms: Ms = 10.0
    drift_sigma: float = 0.05
    min_scale: float = 0.25
    max_scale: float = 1.5

    def __post_init__(self) -> None:
        if self.bytes_per_ms <= 0:
            raise EdgeError(f"bytes_per_ms must be > 0, got {self.bytes_per_ms}")
        if self.rtt_ms < 0:
            raise EdgeError(f"rtt_ms must be >= 0, got {self.rtt_ms}")
        if self.drift_sigma < 0:
            raise EdgeError(f"drift_sigma must be >= 0, got {self.drift_sigma}")
        if not 0 < self.min_scale <= 1.0 <= self.max_scale:
            raise EdgeError(
                "scale bounds must satisfy 0 < min_scale <= 1 <= max_scale, "
                f"got [{self.min_scale}, {self.max_scale}]"
            )


class WirelessLink:
    """A wireless link whose bandwidth follows a deterministic drift trace.

    The trace advances once per measured control period (never during
    pricing), so every evaluation within a period — scalar or batched —
    sees the same link state. Construct with a decorrelated stream from
    :func:`repro.rng.spawn_rngs` when several links coexist in a fleet.
    """

    def __init__(
        self, config: Optional[LinkConfig] = None, seed: SeedLike = None
    ) -> None:
        self.config = config if config is not None else LinkConfig()
        self._rng = make_rng(seed)
        self._scale = 1.0

    @property
    def bandwidth_scale(self) -> float:
        """Current multiplier on the nominal bandwidth, in [min, max]."""
        return self._scale

    @property
    def bytes_per_ms(self) -> float:
        """Effective bandwidth right now."""
        return self.config.bytes_per_ms * self._scale

    @property
    def rtt_ms(self) -> Ms:
        return self.config.rtt_ms

    def advance_period(self) -> float:
        """Advance the drift trace by one control period; returns the
        new bandwidth scale."""
        step = float(np.exp(self._rng.normal(0.0, self.config.drift_sigma)))
        scale = self._scale * step
        self._scale = min(max(scale, self.config.min_scale), self.config.max_scale)
        return self._scale

    def set_bandwidth_scale(self, scale: float) -> None:
        """Force the bandwidth scale (drift continues from there).

        Used by the network-drift scenario to model an abrupt
        degradation — e.g. walking away from the access point.
        """
        if not self.config.min_scale <= scale <= self.config.max_scale:
            raise EdgeError(
                f"bandwidth scale {scale} outside "
                f"[{self.config.min_scale}, {self.config.max_scale}]"
            )
        self._scale = scale
