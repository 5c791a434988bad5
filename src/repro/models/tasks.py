"""AI task instances and the paper's tasksets (Table II).

An :class:`AITask` is one continuously-inferring instance of a model (the
paper runs several instances of the same model, e.g. "deeplabv3_5"). A
:class:`TaskSet` is the ordered collection HBO schedules. Factories build
the two tasksets of Table II:

- **CF1** (6 tasks): mnist ×1, mobilenetDetv1 ×1, model-metadata ×2,
  mobilenet-v1 ×1, efficientclass-lite0 ×1. On the Pixel 7 three of these
  prefer the GPU delegate (mnist, both model-metadata) and three prefer
  NNAPI — exactly the split §V-B describes.
- **CF2** (3 tasks): mnist ×1, mobilenetDetv1 ×1, efficientclass-lite0 ×1
  (one GPU-preferring, two NNAPI-preferring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.device.profiles import PIXEL7, StaticProfile
from repro.device.resources import Resource
from repro.errors import ConfigurationError
from repro.models.zoo import ModelZoo


@dataclass(frozen=True)
class AITask:
    """One running instance of a model."""

    task_id: str
    model: str
    profile: StaticProfile

    @property
    def expected_latency(self) -> float:
        """τ^e of Eq. 4: lowest isolation latency across resources."""
        _, latency = self.profile.best_resource()
        return latency

    @property
    def affinity(self) -> Resource:
        resource, _ = self.profile.best_resource()
        return resource


class TaskSet:
    """An ordered, immutable collection of AI task instances."""

    def __init__(self, name: str, tasks: Sequence[AITask]) -> None:
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigurationError(f"duplicate task ids: {dupes}")
        self.name = name
        self._tasks: Tuple[AITask, ...] = tuple(tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[AITask]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> AITask:
        return self._tasks[index]

    @property
    def task_ids(self) -> Tuple[str, ...]:
        return tuple(t.task_id for t in self._tasks)

    def by_id(self, task_id: str) -> AITask:
        for task in self._tasks:
            if task.task_id == task_id:
                return task
        raise ConfigurationError(
            f"unknown task id {task_id!r} in taskset {self.name!r}"
        )

    def expected_latencies(self) -> Dict[str, float]:
        """τ^e per task — the denominator of Eq. 4."""
        return {t.task_id: t.expected_latency for t in self._tasks}

    def affinity_allocation(self) -> Dict[str, Resource]:
        """Each task on its isolation-best resource (the SMQ/SML policy)."""
        return {t.task_id: t.affinity for t in self._tasks}


def build_taskset(
    name: str, model_counts: Sequence[Tuple[str, int]], device: str = PIXEL7
) -> TaskSet:
    """Build a taskset from (model, instance_count) pairs.

    Instance ids follow the paper's naming: a single instance keeps the
    model name; multiple instances get ``_1``, ``_2``, ... suffixes
    (e.g. ``model-metadata_1``).
    """
    zoo = ModelZoo(device)
    tasks: List[AITask] = []
    for model, count in model_counts:
        if count < 1:
            raise ConfigurationError(f"{model!r}: count must be >= 1, got {count}")
        profile = zoo.profile(model)
        for i in range(count):
            task_id = profile.model if count == 1 else f"{profile.model}_{i + 1}"
            tasks.append(AITask(task_id=task_id, model=profile.model, profile=profile))
    return TaskSet(name=name, tasks=tasks)


def taskset_cf1(device: str = PIXEL7) -> TaskSet:
    """Taskset CF1 of Table II (6 tasks)."""
    return build_taskset(
        "CF1",
        [
            ("mnist", 1),
            ("mobilenetDetv1", 1),
            ("model-metadata", 2),
            ("mobilenet-v1", 1),
            ("efficientclass-lite0", 1),
        ],
        device=device,
    )


def taskset_cf2(device: str = PIXEL7) -> TaskSet:
    """Taskset CF2 of Table II (3 tasks)."""
    return build_taskset(
        "CF2",
        [
            ("mnist", 1),
            ("mobilenetDetv1", 1),
            ("efficientclass-lite0", 1),
        ],
        device=device,
    )
