"""Extension experiments: w sweep, device comparison, frontier grid.

None is a numbered artifact in the paper, but each answers a question
the text raises:

- §V-B uses w = 2.5 "as example weight" — :func:`run_w_sweep` maps how
  the chosen operating point (triangle ratio, quality, latency) moves
  across w, tracing the quality/latency Pareto knob the weight controls.
- §V-A states results were "similar" on the Galaxy S22 and shows the
  Pixel 7 — :func:`run_device_comparison` runs the same scenario on both
  simulated devices.
- §V-B claims BO converges "close to the global optimum" without ever
  computing one — :func:`run_frontier_grid` enumerates the *entire*
  decision lattice (every integer allocation count vector × a dense
  triangle-ratio grid) and scores it in one batched
  :func:`repro.backend.solve` pass, giving the exact noise-free optimum
  HBO can be judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.allocation import count_lattice
from repro.core.controller import HBOConfig, HBOController
from repro.core.frontier import FrontierEvaluator
from repro.device.profiles import GALAXY_S22, PIXEL7
from repro.device.resources import ALL_RESOURCES
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_table
from repro.rng import derive_seed
from repro.sim.scenarios import build_system


@dataclass(frozen=True)
class SweepPoint:
    """HBO's chosen operating point at one weight."""

    w: float
    triangle_ratio: float
    quality: float
    epsilon: float
    reward: float


@dataclass(frozen=True)
class WSweepResult:
    points: List[SweepPoint]

    def ratios(self) -> np.ndarray:
        return np.asarray([p.triangle_ratio for p in self.points])

    def epsilons(self) -> np.ndarray:
        return np.asarray([p.epsilon for p in self.points])


def run_w_sweep(
    weights: Sequence[float] = (0.5, 1.0, 2.5, 5.0, 10.0),
    scenario: str = "SC1",
    taskset: str = "CF1",
    seed: int = DEFAULT_SEED,
    config: HBOConfig = None,  # type: ignore[assignment]
) -> WSweepResult:
    """One HBO activation per weight on identically-built systems."""
    base = config if config is not None else HBOConfig()
    points: List[SweepPoint] = []
    for w in weights:
        cfg = replace(base, w=float(w))
        system = build_system(
            scenario, taskset, seed=derive_seed(seed, "wsweep", scenario, taskset)
        )
        controller = HBOController(
            system, cfg, seed=derive_seed(seed, "wsweep-hbo", w)
        )
        result = controller.activate()
        measurement = result.final_measurement
        points.append(
            SweepPoint(
                w=float(w),
                triangle_ratio=result.best.triangle_ratio,
                quality=measurement.quality,
                epsilon=measurement.epsilon,
                reward=measurement.reward(float(w)),
            )
        )
    return WSweepResult(points=points)


def render_w_sweep(result: WSweepResult) -> str:
    rows = [
        [p.w, p.triangle_ratio, p.quality, p.epsilon, p.reward]
        for p in result.points
    ]
    return format_table(
        ["w", "x*", "quality Q", "eps", "reward B"],
        rows,
        title="Weight sweep — how w moves HBO's operating point (SC1-CF1)",
    )


@dataclass(frozen=True)
class DeviceRun:
    device: str
    triangle_ratio: float
    quality: float
    epsilon: float
    allocation_counts: Dict[str, int]  # resource short code -> count


@dataclass(frozen=True)
class DeviceComparisonResult:
    runs: List[DeviceRun]


def run_device_comparison(
    scenario: str = "SC1",
    taskset: str = "CF1",
    seed: int = DEFAULT_SEED,
    config: HBOConfig = None,  # type: ignore[assignment]
) -> DeviceComparisonResult:
    """The same scenario tuned on the Pixel 7 and the Galaxy S22."""
    cfg = config if config is not None else HBOConfig()
    runs: List[DeviceRun] = []
    for device in (PIXEL7, GALAXY_S22):
        system = build_system(
            scenario,
            taskset,
            device=device,
            seed=derive_seed(seed, "devices", scenario, taskset),
        )
        controller = HBOController(
            system, cfg, seed=derive_seed(seed, "devices-hbo", device)
        )
        result = controller.activate()
        measurement = result.final_measurement
        counts: Dict[str, int] = {}
        for resource in result.best.allocation.values():
            counts[resource.short] = counts.get(resource.short, 0) + 1
        runs.append(
            DeviceRun(
                device=device,
                triangle_ratio=result.best.triangle_ratio,
                quality=measurement.quality,
                epsilon=measurement.epsilon,
                allocation_counts=counts,
            )
        )
    return DeviceComparisonResult(runs=runs)


def render_device_comparison(result: DeviceComparisonResult) -> str:
    rows = [
        [
            run.device,
            run.triangle_ratio,
            run.quality,
            run.epsilon,
            ", ".join(f"{k}:{v}" for k, v in sorted(run.allocation_counts.items())),
        ]
        for run in result.runs
    ]
    return format_table(
        ["Device", "x*", "quality Q", "eps", "allocation"],
        rows,
        title="Device comparison — the same scenario on both Table I phones",
    )


@dataclass(frozen=True)
class FrontierOptimum:
    """The exact noise-free optimum at one weight."""

    w: float
    counts: Tuple[int, ...]  # tasks per resource (CPU, GPU, NNAPI)
    triangle_ratio: float
    quality: float
    epsilon: float
    phi: float


@dataclass(frozen=True)
class FrontierGridResult:
    device: str
    scenario: str
    taskset: str
    n_candidates: int
    optima: List[FrontierOptimum]


def run_frontier_grid(
    weights: Sequence[float] = (0.5, 1.0, 2.5, 5.0, 10.0),
    scenario: str = "SC1",
    taskset: str = "CF1",
    device: str = PIXEL7,
    n_ratios: int = 46,
    r_min: float = 0.1,
    seed: int = DEFAULT_SEED,
) -> FrontierGridResult:
    """Exhaustively score the decision lattice in one batched solve per w.

    Every integer count vector ``(k_CPU, k_GPU, k_NNAPI)`` summing to the
    task count is crossed with ``n_ratios`` equally-spaced triangle
    ratios; for 6 tasks and 46 ratios that is 1288 configurations, priced
    without a single control period on the live system.
    """
    system = build_system(
        scenario,
        taskset,
        device=device,
        seed=derive_seed(seed, "frontier", scenario, taskset),
    )
    ratios = np.linspace(r_min, 1.0, n_ratios)
    zs = count_lattice(len(system.taskset), len(ALL_RESOURCES), ratios)
    optima: List[FrontierOptimum] = []
    for w in weights:
        evaluator = FrontierEvaluator(system, w=float(w))
        result = evaluator.evaluate(zs)
        best = result.best_index
        optima.append(
            FrontierOptimum(
                w=float(w),
                counts=tuple(int(k) for k in result.counts[best]),
                triangle_ratio=float(result.triangle_ratio[best]),
                quality=float(result.quality[best]),
                epsilon=float(result.epsilon[best]),
                phi=float(result.phi[best]),
            )
        )
    return FrontierGridResult(
        device=device,
        scenario=scenario,
        taskset=taskset,
        n_candidates=int(zs.shape[0]),
        optima=optima,
    )


def render_frontier_grid(result: FrontierGridResult) -> str:
    rows = [
        [
            o.w,
            ", ".join(
                f"{res.short}:{k}" for res, k in zip(ALL_RESOURCES, o.counts)
            ),
            o.triangle_ratio,
            o.quality,
            o.epsilon,
            -o.phi,
        ]
        for o in result.optima
    ]
    return format_table(
        ["w", "allocation", "x*", "quality Q", "eps", "reward B"],
        rows,
        title=(
            f"Frontier grid — exact noise-free optimum over "
            f"{result.n_candidates} configurations "
            f"({result.scenario}-{result.taskset}, {result.device})"
        ),
    )


if __name__ == "__main__":
    print(render_w_sweep(run_w_sweep()))
    print()
    print(render_device_comparison(run_device_comparison()))
    print()
    print(render_frontier_grid(run_frontier_grid()))
