"""Fig. 6: in-depth analysis of one HBO execution (SC1-CF1).

Four panels:

- (a) Euclidean distance between consecutive BO configurations —
  exploration (large) vs exploitation (small);
- (b) best-cost-so-far over iterations;
- (c) average quality and normalized latency per iteration, with the
  selected (lowest-cost) iteration marked;
- (d) per-task latency (ms) under HBO's best configuration vs SMQ at the
  same triangle ratio — the paper reports HBO improving the NNAPI-resident
  tasks by 103% best-case / 23.8% worst-case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.baselines import StaticMatchQualityBaseline
from repro.core.controller import HBOConfig
from repro.device.profiles import PIXEL7
from repro.experiments.common import DEFAULT_SEED, HBORun, run_hbo
from repro.experiments.report import format_series, format_table
from repro.rng import derive_seed
from repro.sim.scenarios import build_system

SCENARIO, TASKSET = "SC1", "CF1"


@dataclass(frozen=True)
class Fig6Result:
    hbo: HBORun
    smq_latencies_ms: Dict[str, float]

    @property
    def consecutive_distances(self) -> np.ndarray:
        return self.hbo.result.consecutive_distances()

    @property
    def best_cost_trajectory(self) -> np.ndarray:
        return self.hbo.result.best_cost_trajectory()

    @property
    def qualities(self) -> np.ndarray:
        return np.asarray(
            [it.measurement.quality for it in self.hbo.result.iterations]
        )

    @property
    def epsilons(self) -> np.ndarray:
        return np.asarray(
            [it.measurement.epsilon for it in self.hbo.result.iterations]
        )

    @property
    def best_index(self) -> int:
        return self.hbo.result.best_index

    def hbo_latencies_ms(self) -> Dict[str, float]:
        return dict(self.hbo.result.best.measurement.latencies_ms)

    def per_task_improvement(self) -> Dict[str, float]:
        """SMQ latency over HBO latency − 1, per task (Fig. 6d's gaps)."""
        hbo_lat = self.hbo_latencies_ms()
        return {
            tid: self.smq_latencies_ms[tid] / hbo_lat[tid] - 1.0
            for tid in hbo_lat
        }


def run_fig6(seed: int = DEFAULT_SEED, config: HBOConfig = None) -> Fig6Result:  # type: ignore[assignment]
    cfg = config if config is not None else HBOConfig()
    hbo = run_hbo(SCENARIO, TASKSET, seed=seed, config=cfg)
    smq_system = build_system(
        SCENARIO, TASKSET, device=PIXEL7, seed=derive_seed(seed, SCENARIO, TASKSET)
    )
    smq = StaticMatchQualityBaseline(match_triangle_ratio=hbo.best_triangle_ratio)
    outcome = smq.run(smq_system)
    return Fig6Result(hbo=hbo, smq_latencies_ms=dict(outcome.measurement.latencies_ms))


def render(result: Fig6Result) -> str:
    blocks = []
    lines = ["Fig. 6a — distance between consecutive BO configurations"]
    lines.append(format_series("  |z_t − z_{t−1}|", result.consecutive_distances))
    blocks.append("\n".join(lines))

    lines = ["Fig. 6b — best cost through iterations"]
    lines.append(format_series("  best cost", result.best_cost_trajectory))
    blocks.append("\n".join(lines))

    lines = [
        f"Fig. 6c — quality and normalized latency per iteration "
        f"(selected iteration: {result.best_index})"
    ]
    lines.append(format_series("  quality Q", result.qualities))
    lines.append(format_series("  norm. latency eps", result.epsilons))
    blocks.append("\n".join(lines))

    hbo_lat = result.hbo_latencies_ms()
    improvement = result.per_task_improvement()
    rows = [
        [
            tid,
            hbo_lat[tid],
            result.smq_latencies_ms[tid],
            f"{improvement[tid] * 100:+.1f}%",
        ]
        for tid in sorted(hbo_lat)
    ]
    blocks.append(
        format_table(
            ["Task", "HBO ms", "SMQ ms", "HBO improvement"],
            rows,
            title="Fig. 6d — per-task latency, HBO vs SMQ at matched ratio",
        )
    )
    return "\n\n".join(blocks)


if __name__ == "__main__":
    print(render(run_fig6()))
