"""Fig. 2: the motivation study — taskset and triangle count reshape the
best allocation.

Three scripted runs on the Galaxy S22 reproduce the paper's time series:

- **(a)** five deconv-munet instances shuffled between CPU and GPU;
- **(b)** five deeplabv3 instances: progressive pile-up on NNAPI, a
  relocation to CPU under light load (helps the moved task only), virtual
  objects arriving (~t = 150/180 s, all NNAPI tasks spike), the same
  relocation now helping *everyone*, and a second CPU relocation that
  backfires for the CPU pair;
- **(c)** a mixed classification taskset across GPU and NNAPI.

Each run is a list of timed actions against the device simulator; the
result is a per-task latency series sampled every 5 simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.load import SystemLoad
from repro.device.executor import DeviceSimulator
from repro.device.profiles import GALAXY_S22, get_profile
from repro.device.resources import Resource
from repro.device.soc import galaxy_s22_soc
from repro.errors import ExperimentError
from repro.experiments.report import format_series
from repro.rng import derive_seed


@dataclass(frozen=True)
class Action:
    """One timed intervention in a motivation run."""

    time_s: float
    kind: str  # "add" | "move" | "objects"
    task_id: str = ""
    model: str = ""
    resource: Optional[Resource] = None
    drawn_triangles: float = 0.0
    n_objects: int = 0

    def label(self) -> str:
        if self.kind in ("add", "move"):
            assert self.resource is not None
            return f"{self.resource.short}{self.task_id.split('_')[-1]}"
        return f"+{self.n_objects}obj"


@dataclass
class MotivationRun:
    """A finished scripted run."""

    name: str
    times_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    latencies_ms: Dict[str, np.ndarray] = field(default_factory=dict)
    annotations: List[Tuple[float, str]] = field(default_factory=list)

    def series(self, task_id: str) -> np.ndarray:
        if task_id not in self.latencies_ms:
            raise ExperimentError(f"no series for task {task_id!r}")
        return self.latencies_ms[task_id]

    def mean_at(self, t_start: float, t_end: float) -> float:
        """Mean latency over tasks alive in a time window (NaN-aware)."""
        mask = (self.times_s >= t_start) & (self.times_s <= t_end)
        window = np.asarray(
            [series[mask] for series in self.latencies_ms.values()]
        )
        return float(np.nanmean(window))


def _execute(
    name: str,
    actions: Sequence[Action],
    duration_s: float,
    sample_interval_s: float = 5.0,
    seed: int = 0,
) -> MotivationRun:
    sim = DeviceSimulator(
        galaxy_s22_soc(), noise_sigma=0.03, seed=derive_seed(seed, "fig2", name)
    )
    ordered = sorted(actions, key=lambda a: a.time_s)
    all_ids = [a.task_id for a in ordered if a.kind == "add"]
    times = np.arange(0.0, duration_s + 1e-9, sample_interval_s)
    series: Dict[str, List[float]] = {tid: [] for tid in all_ids}
    annotations: List[Tuple[float, str]] = []

    next_action = 0
    for t in times:
        while next_action < len(ordered) and ordered[next_action].time_s <= t:
            action = ordered[next_action]
            if action.kind == "add":
                sim.add_task(
                    action.task_id,
                    get_profile(GALAXY_S22, action.model),
                    action.resource,
                )
            elif action.kind == "move":
                sim.set_allocation(action.task_id, action.resource)
            elif action.kind == "objects":
                sim.set_load(
                    SystemLoad(
                        rendered_triangles=action.drawn_triangles * 0.5,
                        n_objects=action.n_objects,
                        submitted_triangles=action.drawn_triangles,
                    )
                )
            else:
                raise ExperimentError(f"unknown action kind {action.kind!r}")
            annotations.append((action.time_s, action.label()))
            next_action += 1
        measured = sim.measure_period(n_samples=3)
        for tid in all_ids:
            series[tid].append(measured.get(tid, np.nan))

    return MotivationRun(
        name=name,
        times_s=times,
        latencies_ms={tid: np.asarray(vals) for tid, vals in series.items()},
        annotations=annotations,
    )


def run_fig2a(seed: int = 0) -> MotivationRun:
    """Five deconv-munet instances across CPU/GPU (Fig. 2a)."""
    a = []
    a.append(Action(0, "add", "deconv_1", "deconv-munet", Resource.CPU))
    a.append(Action(25, "move", "deconv_1", resource=Resource.GPU_DELEGATE))
    for i, t in enumerate((40, 55, 70, 85), start=2):
        a.append(Action(t, "add", f"deconv_{i}", "deconv-munet", Resource.GPU_DELEGATE))
    a.append(Action(120, "move", "deconv_5", resource=Resource.CPU))
    a.append(Action(150, "objects", drawn_triangles=500_000, n_objects=5))
    a.append(Action(200, "move", "deconv_4", resource=Resource.CPU))
    return _execute("fig2a-deconv-cpu-gpu", a, duration_s=240, seed=seed)


def run_fig2b(seed: int = 0) -> MotivationRun:
    """Five deeplabv3 instances, the paper's §III-B walk-through (Fig. 2b)."""
    a = []
    a.append(Action(0, "add", "deeplabv3_1", "deeplabv3", Resource.CPU))
    a.append(Action(25, "move", "deeplabv3_1", resource=Resource.NNAPI))
    for i, t in enumerate((40, 55, 75, 95), start=2):
        a.append(Action(t, "add", f"deeplabv3_{i}", "deeplabv3", Resource.NNAPI))
    a.append(Action(120, "move", "deeplabv3_5", resource=Resource.CPU))
    a.append(Action(140, "move", "deeplabv3_5", resource=Resource.NNAPI))
    a.append(Action(150, "objects", drawn_triangles=600_000, n_objects=4))
    a.append(Action(180, "objects", drawn_triangles=1_400_000, n_objects=8))
    a.append(Action(200, "move", "deeplabv3_5", resource=Resource.CPU))
    a.append(Action(220, "move", "deeplabv3_4", resource=Resource.CPU))
    return _execute("fig2b-deeplab-cpu-nnapi", a, duration_s=260, seed=seed)


def run_fig2c(seed: int = 0) -> MotivationRun:
    """Mixed classification taskset on GPU/NNAPI (Fig. 2c)."""
    a = []
    a.append(Action(0, "add", "mobilenet_1", "mobilenet-v1", Resource.GPU_DELEGATE))
    a.append(Action(20, "add", "inception_1", "inception-v1-q", Resource.NNAPI))
    a.append(Action(40, "add", "mobilenet_2", "mobilenet-v1", Resource.NNAPI))
    a.append(Action(60, "add", "inception_2", "inception-v1-q", Resource.NNAPI))
    a.append(Action(80, "add", "mobilenet_3", "mobilenet-v1", Resource.GPU_DELEGATE))
    a.append(Action(110, "objects", drawn_triangles=800_000, n_objects=6))
    a.append(Action(150, "move", "mobilenet_3", resource=Resource.NNAPI))
    a.append(Action(180, "move", "inception_2", resource=Resource.CPU))
    return _execute("fig2c-mixed-gpu-nnapi", a, duration_s=220, seed=seed)


def run_all(seed: int = 0) -> List[MotivationRun]:
    return [run_fig2a(seed), run_fig2b(seed), run_fig2c(seed)]


def render(runs: Sequence[MotivationRun]) -> str:
    blocks = []
    for run in runs:
        lines = [f"Fig. 2 run: {run.name}"]
        for tid, series in run.latencies_ms.items():
            clean = np.where(np.isnan(series), 0.0, series)
            lines.append(format_series(f"  {tid} (ms)", clean, precision=0))
        annot = ", ".join(f"{t:.0f}s:{label}" for t, label in run.annotations)
        lines.append(f"  actions: {annot}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


if __name__ == "__main__":
    print(render(run_all()))
