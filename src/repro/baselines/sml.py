"""Static Match Latency (SML), §V-A.

Keeps SMQ's static affinity allocation but gradually reduces the total
triangle count until the measured average latency comes down to HBO's.
Quantifies how much quality a static allocator must sacrifice to buy the
latency HBO gets by *jointly* reallocating tasks — the paper reports HBO
achieving 14.5% better quality at comparable latency (§V-C) and SML
needing ratio 0.2 where HBO keeps 0.52 in the user study (§V-E).

When the target latency is unreachable (a static allocation's latency is
floored by GPU/NPU contention that triangles do not control), SML settles
at the *knee* of its achievable latency curve: the largest ratio whose
latency is within ``knee_tolerance`` of the best achievable — decimating
beyond that point sacrifices quality for nothing.

The scan itself is still sequential (each step's measurement decides
whether to keep reducing, and the noise stream must be drawn in scan
order), but the steady-state latencies of the *whole* candidate grid are
precomputed through one multi-row :func:`repro.backend.solve` call and
injected into each measurement — the per-step work is then just the
noise draw.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.backend.solve import price_placement_rows
from repro.baselines.base import Baseline, BaselineOutcome
from repro.core.system import MARSystem, Measurement
from repro.device.resources import Resource
from repro.errors import ConfigurationError


class StaticMatchLatencyBaseline(Baseline):
    """Affinity-static allocation, triangles reduced to match a target ε."""

    name = "SML"

    def __init__(
        self,
        target_epsilon: float,
        step: float = 0.02,
        min_ratio: float = 0.05,
        tolerance: float = 0.02,
        knee_tolerance: float = 0.03,
    ) -> None:
        if step <= 0 or step >= 1:
            raise ConfigurationError(f"step must be in (0, 1), got {step}")
        if not 0.0 < min_ratio <= 1.0:
            raise ConfigurationError(
                f"min_ratio must be in (0, 1], got {min_ratio}"
            )
        if knee_tolerance < 0:
            raise ConfigurationError(
                f"knee_tolerance must be >= 0, got {knee_tolerance}"
            )
        self.target_epsilon = float(target_epsilon)
        self.step = float(step)
        self.min_ratio = float(min_ratio)
        self.tolerance = float(tolerance)
        self.knee_tolerance = float(knee_tolerance)

    def _ratio_grid(self) -> List[float]:
        """The scan's ratio sequence, largest first (same float decrement
        sequence the scan loop walks)."""
        grid: List[float] = []
        ratio = 1.0
        while ratio >= self.min_ratio - 1e-9:
            grid.append(ratio)
            ratio -= self.step
        return grid

    def _steady_by_step(
        self,
        system: MARSystem,
        allocation: Dict[str, Resource],
        grid: List[float],
    ) -> List[Dict[str, float]]:
        """Steady-state latencies for every grid step, one backend solve.

        Applying a configuration is deterministic and RNG-free, so the
        grid can be pre-applied to snapshot each step's (placements,
        load) row; the scan re-applies the steps it actually visits.
        Rows are unthrottled; a thermal device throttles them per sample.
        """
        rows = []
        for ratio in grid:
            system.apply(allocation, ratio)
            rows.append(system.device.placement_row())
        return price_placement_rows(rows)

    def run(self, system: MARSystem) -> BaselineOutcome:
        allocation = system.taskset.affinity_allocation()
        grid = self._ratio_grid()
        steady_by_step = self._steady_by_step(system, allocation, grid)

        # Gradual reduction (the paper's description), recording the
        # whole achievable (ratio, ε) curve.
        scan: List[Tuple[float, Measurement]] = []
        for i, ratio in enumerate(grid):
            system.apply(allocation, ratio)
            measurement = system.measure(steady_latencies=steady_by_step[i])
            scan.append((ratio, measurement))
            if measurement.epsilon <= self.target_epsilon + self.tolerance:
                break  # target reached: stop at the largest such ratio

        chosen_ratio, chosen = scan[-1]
        if chosen.epsilon > self.target_epsilon + self.tolerance:
            # Target unreachable: settle at the knee of the curve.
            best_epsilon = min(m.epsilon for _r, m in scan)
            for r, m in scan:  # scan is ordered from largest ratio down
                if m.epsilon <= best_epsilon + self.knee_tolerance:
                    chosen_ratio, chosen = r, m
                    break
            step_index = grid.index(chosen_ratio)
            system.apply(allocation, chosen_ratio)
            chosen = system.measure(steady_latencies=steady_by_step[step_index])

        return BaselineOutcome(
            name=self.name,
            allocation=allocation,
            triangle_ratio=chosen_ratio,
            measurement=chosen,
        )
