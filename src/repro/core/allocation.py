"""Heuristic AI-task allocation (Algorithm 1, Lines 2–22).

BO emits fractional per-resource usage proportions ``c``; this module
translates them into a concrete per-task assignment in two steps:

1. :func:`proportions_to_counts` (Lines 2–12) — round each ``c_i · M``
   down, then hand the ``r`` remaining tasks to resources in
   non-increasing ``c_i`` order (ties broken by resource index, so results
   are deterministic).
2. :func:`allocate_tasks` (Lines 13–22) — drain a priority queue of
   (isolation latency, task, resource) entries profiled offline: the
   globally fastest (task, resource) pair is assigned first; once a task
   is placed its other entries are discarded, and once a resource's count
   is exhausted all entries targeting it are discarded.

Deviation from the pseudo-code, documented: the paper's queue drain
assumes every task can land on whatever counts remain. With
delegate-incompatible models (Table I "NA" entries) the drain can strand
a task whose compatible resources are exhausted; we finish with a
fallback pass that places stranded tasks on their fastest *compatible*
resource, preferring ones with spare count.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.device.resources import ALL_RESOURCES, Resource
from repro.errors import AllocationError
from repro.models.tasks import TaskSet


def proportions_to_counts(proportions: Sequence[float], n_tasks: int) -> List[int]:
    """Lines 2–12: fractional usages → integer task counts per resource."""
    c = np.asarray(proportions, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise AllocationError(f"proportions must be a non-empty vector, got {c!r}")
    if n_tasks < 0:
        raise AllocationError(f"n_tasks must be >= 0, got {n_tasks}")
    if np.any(c < -1e-9) or abs(float(c.sum()) - 1.0) > 1e-6:
        raise AllocationError(
            f"proportions must be non-negative and sum to 1, got {c.tolist()}"
        )

    counts = [int(np.floor(ci * n_tasks)) for ci in c]
    remaining = n_tasks - sum(counts)
    if remaining > 0:
        # Non-increasing usage order; ties by resource index for determinism.
        order = sorted(range(len(c)), key=lambda i: (-c[i], i))
        for i in order:
            if remaining <= 0:
                break
            counts[i] += 1
            remaining -= 1
    return counts


def proportions_to_counts_batch(
    proportions: np.ndarray, n_tasks: int
) -> np.ndarray:
    """Vectorized Lines 2–12 over an ``(n_rows, n_resources)`` batch.

    Row ``k`` of the result equals ``proportions_to_counts(proportions[k],
    n_tasks)`` exactly: the floor uses the same ``c_i · M`` float product,
    and the leftover tasks go to resources in non-increasing-``c_i`` order
    with ties broken by resource index (a stable argsort on ``-c``).
    """
    c = np.asarray(proportions, dtype=float)
    if c.ndim != 2 or c.shape[1] == 0:
        raise AllocationError(
            f"proportions must be a 2-d batch, got shape {c.shape}"
        )
    if n_tasks < 0:
        raise AllocationError(f"n_tasks must be >= 0, got {n_tasks}")
    sums = np.sum(c, axis=1)
    bad = np.any(c < -1e-9, axis=1) | (np.abs(sums - 1.0) > 1e-6)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise AllocationError(
            "proportions must be non-negative and sum to 1, got "
            f"{c[row].tolist()} (row {row})"
        )

    counts = np.floor(c * n_tasks).astype(np.int64)
    remaining = n_tasks - counts.sum(axis=1)
    order = np.argsort(-c, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(c.shape[1]), c.shape), axis=1
    )
    counts += ranks < remaining[:, np.newaxis]
    return counts


def count_lattice(
    n_tasks: int, n_resources: int, ratios: Sequence[float]
) -> np.ndarray:
    """The exact decision lattice as BO vectors ``[c; x]``, one per row.

    Every integer count vector (``n_resources`` counts summing to
    ``n_tasks``, in lexicographic order) as proportions ``counts /
    n_tasks``, crossed count-major with ``ratios``. ``counts / n_tasks``
    maps back to the same counts through :func:`proportions_to_counts`,
    so the lattice covers every allocation cell once per ratio.
    """
    counts = np.array(
        [
            ks
            for ks in product(range(n_tasks + 1), repeat=n_resources)
            if sum(ks) == n_tasks
        ],
        dtype=float,
    )
    x = np.asarray(ratios, dtype=float)
    return np.column_stack(
        [np.repeat(counts / n_tasks, x.size, axis=0), np.tile(x, len(counts))]
    )


def allocations_for_counts(
    taskset: TaskSet,
    counts: np.ndarray,
    resources: Tuple[Resource, ...] = ALL_RESOURCES,
) -> List[Dict[str, Resource]]:
    """Per-row :func:`allocate_tasks`, memoized on the count vector.

    A frontier grid proposes thousands of configurations but only
    ``O(M²)`` distinct count vectors exist for M tasks over 3 resources,
    so the expensive queue drain runs once per *distinct* row and the
    rest is a dictionary lookup.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != len(resources):
        raise AllocationError(
            f"counts must have shape (n_rows, {len(resources)}), "
            f"got {counts.shape}"
        )
    memo: Dict[Tuple[int, ...], Dict[str, Resource]] = {}
    out: List[Dict[str, Resource]] = []
    for row in counts:
        key = tuple(int(v) for v in row)
        if key not in memo:
            memo[key] = allocate_tasks(taskset, list(key), resources)
        out.append(memo[key])
    return out


def build_priority_queue(
    taskset: TaskSet,
    resources: Tuple[Resource, ...] = ALL_RESOURCES,
) -> List[Tuple[float, str, int, Resource]]:
    """The queue ``P``: one (isolation latency, task id, resource index,
    resource) entry per compatible pair, heap-ordered by latency (profiled
    offline, §IV-C). The resource index breaks exact latency ties — Table I
    contains them (e.g. mobilenetDetv1 at 38 ms on both GPU and CPU on the
    S22) and ``Resource`` enums are not orderable."""
    entries: List[Tuple[float, str, int, Resource]] = []
    for task in taskset:
        for index, resource in enumerate(resources):
            if task.profile.supports(resource):
                entries.append(
                    (task.profile.latency(resource), task.task_id, index, resource)
                )
    heapq.heapify(entries)
    return entries


def allocate_tasks(
    taskset: TaskSet,
    counts: Sequence[int],
    resources: Tuple[Resource, ...] = ALL_RESOURCES,
) -> Dict[str, Resource]:
    """Lines 13–22 (+ compatibility fallback): counts → per-task resources.

    ``counts[i]`` is the number of tasks resource ``resources[i]``
    should receive; the counts must sum to ``len(taskset)``. The default
    resource set is the on-device trio; edge-enabled systems pass
    :data:`~repro.device.resources.EDGE_RESOURCES` (N=4).
    """
    return drain_priority_queue(
        taskset, counts, resources, build_priority_queue(taskset, resources)
    )


def drain_priority_queue(
    taskset: TaskSet,
    counts: Sequence[int],
    resources: Tuple[Resource, ...],
    queue: Sequence[Tuple[float, str, int, Resource]],
) -> Dict[str, Resource]:
    """:func:`allocate_tasks` over ``queue = build_priority_queue(taskset,
    resources)``, drained from a copy so callers can build it once."""
    counts = list(counts)
    if len(counts) != len(resources):
        raise AllocationError(
            f"expected {len(resources)} counts, got {len(counts)}"
        )
    if any(k < 0 for k in counts):
        raise AllocationError(f"counts must be >= 0, got {counts}")
    if sum(counts) != len(taskset):
        raise AllocationError(
            f"counts sum to {sum(counts)} but taskset has {len(taskset)} tasks"
        )

    remaining = {res: counts[i] for i, res in enumerate(resources)}
    queue = list(queue)
    assigned: Dict[str, Resource] = {}
    closed_resources: set = set()

    while queue and len(assigned) < len(taskset):
        _latency, task_id, _index, resource = heapq.heappop(queue)
        if task_id in assigned or resource in closed_resources:
            continue  # lazily-deleted entry (Lines 20/22)
        if remaining[resource] > 0:
            assigned[task_id] = resource
            remaining[resource] -= 1
        else:
            closed_resources.add(resource)

    # Fallback for stranded tasks (compatibility-induced; see module doc).
    for task in taskset:
        if task.task_id in assigned:
            continue
        options = [
            (0 if remaining[res] > 0 else 1, task.profile.latency(res), res)
            for res in resources
            if task.profile.supports(res)
        ]
        if not options:
            raise AllocationError(
                f"task {task.task_id!r} is compatible with no resource"
            )
        _, _, best = min(options)
        assigned[task.task_id] = best
        if remaining[best] > 0:
            remaining[best] -= 1

    return assigned
