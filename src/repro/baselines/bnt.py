"""Bayesian No Triangle (BNT), §V-A.

Same heuristic AI-task relocation machinery as HBO, but the triangle
ratio is not regulated (objects stay at full quality) and the BO cost
incorporates only the average latency. Shows that reallocating AI tasks
alone — without trading off object quality — cannot reach HBO's latency
under heavy rendering.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.baselines.base import Baseline, BaselineOutcome
from repro.core.controller import HBOConfig, HBOController
from repro.core.system import MARSystem
from repro.rng import SeedLike


class BayesianNoTriangleBaseline(Baseline):
    """HBO's allocator with a latency-only cost and x pinned to 1."""

    name = "BNT"

    def __init__(
        self, config: Optional[HBOConfig] = None, seed: SeedLike = None
    ) -> None:
        base = config if config is not None else HBOConfig()
        # Same exploration budget as HBO, but the latency-only cost.
        self.config = replace(base, latency_only=True)
        self.seed = seed

    def run(self, system: MARSystem) -> BaselineOutcome:
        controller = HBOController(system, self.config, seed=self.seed)
        result = controller.activate()
        measurement = (
            result.final_measurement
            if result.final_measurement is not None
            else result.best.measurement
        )
        return BaselineOutcome(
            name=self.name,
            allocation=result.best.allocation,
            triangle_ratio=1.0,
            measurement=measurement,
        )
