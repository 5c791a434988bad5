"""Greedy dynamic scheduler baseline (beyond the paper's four).

The paper's §II argues that operator-level schedulers (BAND et al.) are
orthogonal to HBO and that reactive allocation alone cannot match the
joint optimization. This baseline makes that argument testable without a
full operator-level substrate: a *measurement-driven greedy local search*
over per-task allocations — repeatedly move the single task whose
relocation most improves the measured average latency, at full object
quality — which is how reactive schedulers behave in steady state.

Two properties distinguish it from BNT: it has no surrogate model (every
probe is a real measurement, so it spends many more control periods for
the same search depth), and like BNT it cannot trade quality, so it
inherits the full rendering interference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.backend.solve import price_placement_rows
from repro.baselines.base import Baseline, BaselineOutcome
from repro.core.system import MARSystem
from repro.device.resources import ALL_RESOURCES, Resource
from repro.errors import ConfigurationError


class GreedyDynamicBaseline(Baseline):
    """Measurement-driven greedy relocation at full quality.

    Each search round enumerates its single-task relocations up front and
    prices all their steady states through one multi-row
    :func:`repro.backend.solve`; the probes then only draw measurement
    noise, in the same order a fully sequential search would.
    """

    name = "GreedyDyn"

    def __init__(self, max_rounds: int = 4, samples_per_probe: int = 5) -> None:
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        if samples_per_probe < 1:
            raise ConfigurationError(
                f"samples_per_probe must be >= 1, got {samples_per_probe}"
            )
        self.max_rounds = int(max_rounds)
        self.samples_per_probe = int(samples_per_probe)
        #: Control periods spent probing (the baseline's overhead metric).
        self.probes = 0

    def _probe(
        self,
        system: MARSystem,
        allocation: Dict[str, Resource],
        steady: Optional[Dict[str, float]] = None,
    ) -> float:
        system.apply_uniform_ratio(allocation, 1.0)
        self.probes += 1
        return system.measure(
            samples=self.samples_per_probe, steady_latencies=steady
        ).epsilon

    def _steady_rows(
        self, system: MARSystem, candidates: List[Dict[str, Resource]]
    ) -> List[Dict[str, float]]:
        """Steady-state latencies for a round's candidates, one solve.

        Applying an allocation is deterministic and RNG-free, so each
        candidate is pre-applied to snapshot its (placements, load) row;
        the probe loop re-applies the one it is measuring. Rows are
        unthrottled; a thermal device throttles them per sample.
        """
        if not candidates:
            return []
        rows = []
        for candidate in candidates:
            system.apply_uniform_ratio(candidate, 1.0)
            rows.append(system.device.placement_row())
        return price_placement_rows(rows)

    def run(self, system: MARSystem) -> BaselineOutcome:
        self.probes = 0
        allocation = dict(system.taskset.affinity_allocation())
        best_epsilon = self._probe(system, allocation)

        for _round in range(self.max_rounds):
            # The candidate list depends only on the round's starting
            # allocation, so it can be enumerated (and priced) up front.
            candidates: List[Dict[str, Resource]] = []
            for task in system.taskset:
                current = allocation[task.task_id]
                for resource in ALL_RESOURCES:
                    if resource is current or not task.profile.supports(resource):
                        continue
                    candidate = dict(allocation)
                    candidate[task.task_id] = resource
                    candidates.append(candidate)
            steadies = self._steady_rows(system, candidates)
            best_move: Optional[Dict[str, Resource]] = None
            move_epsilon = best_epsilon
            # Probe every single-task relocation; keep the best.
            for candidate, steady in zip(candidates, steadies):
                epsilon = self._probe(system, candidate, steady)
                if epsilon < move_epsilon - 1e-6:
                    best_move, move_epsilon = candidate, epsilon
            if best_move is None:
                break  # local optimum
            allocation, best_epsilon = best_move, move_epsilon

        system.apply_uniform_ratio(allocation, 1.0)
        measurement = system.measure()
        return BaselineOutcome(
            name=self.name,
            allocation=allocation,
            triangle_ratio=1.0,
            measurement=measurement,
        )
