"""The MAR system facade — the "plant" that HBO and the baselines control.

:class:`MARSystem` binds together the four substrates:

- a :class:`~repro.models.tasks.TaskSet` of continuously-inferring AI
  tasks,
- a :class:`~repro.device.executor.DeviceSimulator` (the phone),
- a :class:`~repro.ar.scene.Scene` of placed virtual objects,
- a :class:`~repro.ar.renderer.RenderLoadModel` converting the scene into
  device load.

A controller interacts with it through exactly two verbs, mirroring the
paper's control loop: :meth:`apply` a configuration (per-task allocation +
total triangle ratio, distributed per-object by TD) and :meth:`measure`
the resulting performance over a control period (average per-task latency,
Eq. 4 normalized latency ε, Eq. 2 quality Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.ar.distribution import MIN_OBJECT_RATIO, distribute_triangles_columns
from repro.ar.objects import VirtualObject
from repro.ar.renderer import RenderLoadModel
from repro.ar.scene import Scene
from repro.core.cost import normalized_average_latency, reward
from repro.device.executor import DeviceSimulator
from repro.device.resources import ALL_RESOURCES, EDGE_RESOURCES, Resource
from repro.edge.share import EdgeShare
from repro.errors import ConfigurationError
from repro.models.tasks import TaskSet


@dataclass(frozen=True)
class Measurement:
    """Performance observed over one control period."""

    latencies_ms: Mapping[str, float]  # per task
    epsilon: float  # Eq. 4
    quality: float  # Eq. 2
    triangle_ratio: float  # overall x actually drawn
    allocation: Mapping[str, Resource]

    def reward(self, w: float) -> float:
        """Eq. 3 for this measurement."""
        return reward(self.quality, self.epsilon, w)

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms.values()) / len(self.latencies_ms)


class MARSystem:
    """A running MAR app: taskset + device + scene + renderer."""

    def __init__(
        self,
        taskset: TaskSet,
        device: DeviceSimulator,
        scene: Scene,
        render_model: Optional[RenderLoadModel] = None,
        samples_per_period: int = 20,
        td_reference_ratio: float = 0.5,
    ) -> None:
        if samples_per_period < 1:
            raise ConfigurationError(
                f"samples_per_period must be >= 1, got {samples_per_period}"
            )
        self.taskset = taskset
        self.device = device
        self.scene = scene
        self.render_model = render_model if render_model is not None else RenderLoadModel()
        self.samples_per_period = int(samples_per_period)
        self.td_reference_ratio = float(td_reference_ratio)
        # Register tasks on the device at their affinity allocation.
        for task in taskset:
            if task.task_id not in device.task_ids:
                device.add_task(task.task_id, task.profile)
        self._expected = taskset.expected_latencies()
        self.refresh_load()

    # ------------------------------------------------------------- plumbing

    @property
    def resources(self) -> Tuple[Resource, ...]:
        """The allocation choices this system schedules over: the
        paper's on-device trio, plus ``EDGE`` when the device carries an
        edge runtime (N becomes 4)."""
        if self.device.edge is not None:
            return EDGE_RESOURCES
        return ALL_RESOURCES

    @property
    def n_resources(self) -> int:
        return len(self.resources)  # the paper's N (3, or 4 with edge)

    def edge_share(self) -> Optional[EdgeShare]:
        """The device's current edge pricing snapshot (``None`` when the
        edge subsystem is off)."""
        return self.device.edge_share()

    def objects_map(self) -> Dict[str, VirtualObject]:
        cols = self.scene.columns
        return dict(zip(cols.ids, cols.objects))

    def refresh_load(self) -> None:
        """Recompute device load from the current scene (call after any
        scene mutation: object add/remove, ratio change, user move)."""
        self.device.set_load(self.render_model.system_load(self.scene))

    # ------------------------------------------------------------- control

    def apply(
        self,
        allocation: Mapping[str, Resource],
        triangle_ratio: float,
        td_ratios: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """Enforce a configuration: reallocate tasks, redistribute
        triangles via TD, redraw. Returns the per-object ratios chosen
        (sorted ids). ``td_ratios`` is the sorted-id row a grouped TD call
        already chose for ``triangle_ratio``; ``None`` runs TD on the
        scene's own columns."""
        if td_ratios is None:
            max_tris, eq1 = self.scene.columns.td_columns()
            (td_ratios,) = distribute_triangles_columns(
                max_tris, eq1, [triangle_ratio], self.td_reference_ratio
            )
        self.device.apply_allocation(dict(allocation))
        ratios = self.scene.apply_sorted_ratios(td_ratios)
        self.refresh_load()
        return ratios

    def apply_uniform_ratio(
        self, allocation: Mapping[str, Resource], triangle_ratio: float
    ) -> Dict[str, float]:
        """Like :meth:`apply` but with a uniform per-object ratio (used by
        baselines that do not run TD)."""
        uniform = np.full(len(self.scene), max(MIN_OBJECT_RATIO, triangle_ratio))
        return self.apply(allocation, triangle_ratio, uniform)

    def measure(
        self,
        samples: Optional[int] = None,
        steady_latencies: Optional[Mapping[str, float]] = None,
    ) -> Measurement:
        """Observe one control period under the current configuration.

        ``steady_latencies`` forwards precomputed noise-free latencies to
        the device (see :meth:`DeviceSimulator.measure_period`) so batched
        callers can share one backend solve across many measurements.
        """
        n = samples if samples is not None else self.samples_per_period
        latencies = self.device.measure_period(
            n_samples=n, steady_latencies=steady_latencies
        )
        epsilon = normalized_average_latency(latencies, self._expected)
        return Measurement(
            latencies_ms=latencies,
            epsilon=epsilon,
            quality=self.scene.average_quality(),
            triangle_ratio=self.scene.triangle_ratio,
            allocation=self.device.allocation,
        )

    def measure_reward(self, w: float, samples: Optional[int] = None) -> float:
        """Eq. 3 under the current configuration (used by the monitor)."""
        return self.measure(samples).reward(w)
