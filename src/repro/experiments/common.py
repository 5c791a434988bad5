"""Shared experiment plumbing.

Standard HBO runs (paper defaults: w = 2.5, 5 random + 15 guided
iterations) against freshly-built scenario systems, with seeds derived so
every experiment is reproducible from one integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.controller import HBOConfig, HBOController, HBORunResult
from repro.core.system import MARSystem
from repro.device.profiles import PIXEL7
from repro.device.resources import Resource
from repro.rng import derive_seed
from repro.sim.scenarios import build_system

DEFAULT_SEED = 2024  # the paper's publication year, for flavor


@dataclass(frozen=True)
class HBORun:
    """A finished HBO activation on a scenario system."""

    scenario: str
    taskset: str
    system: MARSystem
    controller: HBOController
    result: HBORunResult

    @property
    def best_allocation(self) -> Mapping[str, Resource]:
        return self.result.best.allocation

    @property
    def best_triangle_ratio(self) -> float:
        return self.result.best.triangle_ratio

    @property
    def best_epsilon(self) -> float:
        return self.result.best.measurement.epsilon

    @property
    def best_quality(self) -> float:
        return self.result.best.measurement.quality


def run_hbo(
    scenario: str,
    taskset: str,
    seed: int = DEFAULT_SEED,
    device: str = PIXEL7,
    config: Optional[HBOConfig] = None,
    system: Optional[MARSystem] = None,
) -> HBORun:
    """Build the scenario system (unless given) and run one activation."""
    if system is None:
        system = build_system(
            scenario, taskset, device=device, seed=derive_seed(seed, scenario, taskset)
        )
    controller = HBOController(
        system,
        config if config is not None else HBOConfig(),
        seed=derive_seed(seed, "hbo", scenario, taskset),
    )
    result = controller.activate()
    return HBORun(
        scenario=scenario,
        taskset=taskset,
        system=system,
        controller=controller,
        result=result,
    )
