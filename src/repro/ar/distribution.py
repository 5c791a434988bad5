"""The TD triangle-distribution heuristic (Algorithm 1, Line 23).

Given the total triangle budget ``x · T^max`` chosen by BO, TD decides the
per-object decimation ratio. Following §IV-D, objects are weighted by the
*sensitivity* of their degradation to triangle variations: the difference
between each object's degradation at a common reference ratio and its
current degradation (Eq. 1 evaluated at the object's own distance). Steep
objects — intricate shapes, objects close to the user — receive more of
the budget, which raises the Eq. 2 average above what a uniform split
achieves.

Capped weighted allocation: an object can never receive more than its own
maximum triangle count, so weights are re-normalized over the uncapped
objects until the budget is exhausted (a water-filling loop that
terminates in ≤ L rounds).

There is one TD body, :func:`distribute_triangles_batch`, which runs a
whole vector of total ratios at once; :func:`distribute_triangles` is its
one-row call. Both are bit-identical to evaluating Eq. 1 object by object
with :meth:`~repro.ar.degradation.DegradationModel.error`.

Two reference allocators are included for the ablation bench:
:func:`uniform_distribution` (every object at ratio x) and
:func:`greedy_optimal_distribution` (marginal-gain chunks, near-optimal
for concave quality curves).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ar.degradation import eq1_columns, eq1_errors
from repro.ar.objects import VirtualObject
from repro.errors import ConfigurationError

#: Never draw an object below this ratio — a 2% mesh is unrecognizable and
#: real pipelines keep a minimum LOD.
MIN_OBJECT_RATIO = 0.05


def _validate_inputs(
    objects: Mapping[str, VirtualObject],
    distances: Mapping[str, float],
    triangle_ratio: float,
) -> None:
    if set(objects) != set(distances):
        raise ConfigurationError(
            "object and distance key sets differ: "
            f"{sorted(set(objects) ^ set(distances))}"
        )
    if not 0.0 < triangle_ratio <= 1.0:
        raise ConfigurationError(
            f"triangle_ratio must be in (0, 1], got {triangle_ratio}"
        )
    for iid, dist in distances.items():
        if not (math.isfinite(dist) and dist > 0):
            raise ConfigurationError(
                f"{iid!r}: distance must be finite and > 0, got {dist}"
            )


def uniform_distribution(
    objects: Mapping[str, VirtualObject],
    distances: Mapping[str, float],
    triangle_ratio: float,
) -> Dict[str, float]:
    """Every object at ratio x — the trivial baseline allocator."""
    _validate_inputs(objects, distances, triangle_ratio)
    return {iid: max(MIN_OBJECT_RATIO, triangle_ratio) for iid in objects}


def distribute_triangles(
    objects: Mapping[str, VirtualObject],
    distances: Mapping[str, float],
    triangle_ratio: float,
    reference_ratio: Optional[float] = None,
) -> Dict[str, float]:
    """The paper's TD heuristic for one total ratio ``x``.

    Returns per-instance decimation ratios whose triangle-weighted total
    matches ``triangle_ratio · T^max`` (up to the MIN_OBJECT_RATIO floor
    and per-object caps). This is the one-row call of
    :func:`distribute_triangles_batch`, so a ratio gets the same bits
    here as in any batch.

    ``reference_ratio`` is the common comparison point of the sensitivity
    weight (§IV-D). By default it sits halfway below the current uniform
    ratio, so the weight measures each object's degradation steepness over
    the stretch of the curve the allocation actually moves on (a reference
    equal to the current ratio would make every sensitivity zero).
    """
    ids, ratios = distribute_triangles_batch(
        objects, distances, np.array([triangle_ratio], dtype=float), reference_ratio
    )
    return dict(zip(ids, ratios[0].tolist()))


def distribute_triangles_batch(
    objects: Mapping[str, VirtualObject],
    distances: Mapping[str, float],
    triangle_ratios: np.ndarray,
    reference_ratio: Optional[float] = None,
) -> Tuple[List[str], np.ndarray]:
    """TD over a batch of total triangle ratios, one row per ratio.

    The sensitivity weights, the floor handling and the ≤ L water-filling
    rounds are evaluated for the whole batch at once. A row whose budget
    is exhausted receives zero grants in later rounds, which leaves its
    allocation exactly as it was. Every operation is elementwise or a
    per-row reduction, so each row is bit-identical to the same ratio
    evaluated alone.

    Returns ``(ids, ratios)`` where ``ids`` is the sorted instance-id
    order and ``ratios[k, j]`` is the decimation ratio of object
    ``ids[j]`` under total ratio ``triangle_ratios[k]``.
    """
    x = np.asarray(triangle_ratios, dtype=float).ravel()
    if x.size == 0:
        raise ConfigurationError("triangle_ratios must be non-empty")
    if not np.all((x > 0.0) & (x <= 1.0)):
        raise ConfigurationError(
            f"triangle_ratio must be in (0, 1], got {x.tolist()}"
        )
    _validate_inputs(objects, distances, float(x[0]))
    if reference_ratio is not None and not 0.0 < reference_ratio <= 1.0:
        raise ConfigurationError(
            f"reference_ratio must be in (0, 1], got {reference_ratio}"
        )
    ids: List[str] = sorted(objects)
    n_rows, n_obj = x.size, len(ids)
    max_tris = np.asarray([objects[i].max_triangles for i in ids], dtype=float)
    total_max = float(max_tris.sum())
    budget = x * total_max  # (n_rows,)

    # Sensitivity at the uniform starting point: how much worse (or
    # better) each object is at the common reference ratio than at the
    # current uniform ratio x — a measure of curve steepness around x,
    # scaled by distance through Eq. 1.
    current = np.maximum(MIN_OBJECT_RATIO, x)  # (n_rows,)
    if reference_ratio is None:
        reference = np.maximum(MIN_OBJECT_RATIO, x / 2.0)
    else:
        reference = np.full(n_rows, float(reference_ratio))
    eq1 = eq1_columns(
        [objects[i].degradation.params for i in ids], [distances[i] for i in ids]
    )
    sensitivities = np.abs(eq1_errors(eq1, current) - eq1_errors(eq1, reference))
    # A flat-curve object still needs *some* weight or it would starve.
    weights = sensitivities + 1e-6
    weights = weights / weights.sum(axis=1, keepdims=True)

    floors = MIN_OBJECT_RATIO * max_tris
    caps = max_tris
    allocation = np.broadcast_to(floors, (n_rows, n_obj)).copy()
    floor_total = allocation.sum(axis=1)
    remaining = budget - floor_total
    below = remaining < 0
    if np.any(below):
        # Budget below the aggregate floor: scale floors down proportionally.
        scale = np.where(below, budget / floor_total, 1.0)
        allocation *= scale[:, np.newaxis]
        remaining = np.maximum(remaining, 0.0)

    active = np.ones((n_rows, n_obj), dtype=bool)
    for _ in range(n_obj):
        live = (remaining > 1e-9) & np.any(active, axis=1)
        if not np.any(live):
            break
        w = weights * active
        w_sum = w.sum(axis=1)
        live &= w_sum > 0
        w = np.divide(
            w, w_sum[:, np.newaxis], out=np.zeros_like(w), where=w_sum[:, np.newaxis] > 0
        )
        grant = np.where(live, remaining, 0.0)[:, np.newaxis] * w
        new_alloc = np.minimum(allocation + grant, caps)
        consumed = (new_alloc - allocation).sum(axis=1)
        allocation = new_alloc
        remaining = remaining - consumed
        active = allocation < caps - 1e-9

    ratios = np.clip(allocation / max_tris, MIN_OBJECT_RATIO, 1.0)
    return ids, ratios


def greedy_optimal_distribution(
    objects: Mapping[str, VirtualObject],
    distances: Mapping[str, float],
    triangle_ratio: float,
    n_chunks: int = 200,
) -> Dict[str, float]:
    """Marginal-gain allocator: near-optimal for concave quality curves.

    Splits the budget above the floor into ``n_chunks`` equal chunks and
    gives each chunk to the object with the best quality gain per
    triangle. Used by the ablation bench as the upper reference for TD.
    """
    _validate_inputs(objects, distances, triangle_ratio)
    if n_chunks < 1:
        raise ConfigurationError(f"n_chunks must be >= 1, got {n_chunks}")
    if not objects:
        return {}

    ids: List[str] = sorted(objects)
    max_tris = {i: float(objects[i].max_triangles) for i in ids}
    total_max = sum(max_tris.values())
    budget = triangle_ratio * total_max
    alloc = {i: MIN_OBJECT_RATIO * max_tris[i] for i in ids}
    remaining = budget - sum(alloc.values())
    if remaining <= 0:
        scale = budget / sum(alloc.values())
        return {
            i: float(np.clip(alloc[i] * scale / max_tris[i], 0.0, 1.0) or MIN_OBJECT_RATIO)
            for i in ids
        }

    chunk = remaining / n_chunks
    budget_left = remaining
    # Pick by marginal quality gain *per triangle*: Eq. 2 weighs objects
    # equally, so a triangle is best spent where it buys the most quality —
    # typically small meshes first (one triangle moves their ratio most),
    # then steep large ones. Chunks that hit an object's cap only consume
    # the accepted amount.
    for _ in range(4 * n_chunks):
        if budget_left <= 1e-9:
            break
        best_id, best_rate, best_accept = None, -np.inf, 0.0
        for i in ids:
            headroom = max_tris[i] - alloc[i]
            if headroom <= 1e-9:
                continue
            accept = min(chunk, headroom, budget_left)
            # Rate with lookahead: near the clamp of Eq. 1 the *local*
            # marginal gain is zero even though investing a larger block
            # pays off, so estimate the rate over a wider stretch of the
            # object's curve than the granted chunk.
            lookahead = min(headroom, max(accept, 0.25 * max_tris[i]))
            r_now = alloc[i] / max_tris[i]
            r_ahead = (alloc[i] + lookahead) / max_tris[i]
            model = objects[i].degradation
            gain = model.quality(r_ahead, distances[i]) - model.quality(
                r_now, distances[i]
            )
            rate = gain / lookahead
            if rate > best_rate:
                best_id, best_rate, best_accept = i, rate, accept
        if best_id is None:
            break
        alloc[best_id] += best_accept
        budget_left -= best_accept

    return {
        i: float(np.clip(alloc[i] / max_tris[i], MIN_OBJECT_RATIO, 1.0)) for i in ids
    }


def achieved_ratio(
    objects: Mapping[str, VirtualObject], ratios: Mapping[str, float]
) -> float:
    """Overall triangle ratio implied by a per-object ratio map."""
    if set(objects) != set(ratios):
        raise ConfigurationError("object/ratio key sets differ")
    if not objects:
        return 1.0
    total_max = sum(o.max_triangles for o in objects.values())
    drawn = sum(objects[i].max_triangles * ratios[i] for i in objects)
    return drawn / total_max
