"""Discrete simulation clock (and the sanctioned wall-clock shim).

The paper's experiments are wall-clock sessions (Fig. 2 and Fig. 8 have
time axes in seconds); control runs in fixed periods. :class:`SimClock`
keeps simulated seconds decoupled from host time so a 6-minute session
replays in milliseconds and every experiment is deterministic.

Reprolint rule RL001 bans host-clock reads everywhere except this module:
code that genuinely needs wall time — only the observability layer's
optional span timings (:mod:`repro.obs.tracing`) — must go through
:func:`wall_now_ms`, which keeps every host-clock read greppable and the
resulting values clearly marked as non-reproducible.
"""

from __future__ import annotations

import time

from repro.errors import SimulationError


def wall_now_ms() -> float:
    """Host wall-clock milliseconds from a monotonic origin.

    Observability-only: values from this shim never feed simulation
    state, exports compared across runs, or any reproducibility
    assertion — they exist so a trace can report how long a span took on
    the host, next to its deterministic sim-time bounds.
    """
    return time.perf_counter() * 1000.0


class SimClock:
    """Monotonic simulated time in seconds."""

    def __init__(self, start_s: float = 0.0) -> None:
        self._now = float(start_s)

    @property
    def now_s(self) -> float:
        return self._now

    def advance(self, dt_s: float) -> float:
        """Move time forward by ``dt_s`` seconds; returns the new time."""
        if dt_s < 0:
            raise SimulationError(f"cannot advance time by {dt_s} s")
        self._now += dt_s
        return self._now
