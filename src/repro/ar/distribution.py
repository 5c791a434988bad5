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

There is one TD body, :func:`distribute_triangles_columns`, over
per-object columns in sorted-id order: one scene's ``(L,)`` columns for a
vector of total ratios, or ``(R, L)`` blocks with one scene per row.
:func:`distribute_triangles_grouped` runs it once per object count for
many scenes (the fleet tick); the mapping :func:`distribute_triangles`
is its one-row call on an id → object scene. Every row is
bit-identical to evaluating Eq. 1 object by object with
:meth:`~repro.ar.degradation.DegradationModel.error`.

Two reference allocators are included for the ablation bench:
:func:`uniform_distribution` (every object at ratio x) and
:func:`greedy_optimal_distribution` (marginal-gain chunks, near-optimal
for concave quality curves).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.ar.degradation import Eq1Columns, eq1_columns, eq1_errors
from repro.ar.objects import VirtualObject
from repro.ar.scene import SceneColumns
from repro.errors import ConfigurationError

#: Never draw an object below this ratio — a 2% mesh is unrecognizable and
#: real pipelines keep a minimum LOD.
MIN_OBJECT_RATIO = 0.05


def _validate_inputs(
    objects: Mapping[str, VirtualObject],
    distances: Mapping[str, float],
    *triangle_ratios: float,
) -> None:
    if set(objects) != set(distances):
        raise ConfigurationError(
            "object and distance key sets differ: "
            f"{sorted(set(objects) ^ set(distances))}"
        )
    for triangle_ratio in triangle_ratios:
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
    :func:`distribute_triangles_columns`, so a ratio gets the same bits
    here as in any batch.

    ``reference_ratio`` is the common comparison point of the sensitivity
    weight (§IV-D). By default it sits halfway below the current uniform
    ratio, so the weight measures each object's degradation steepness over
    the stretch of the curve the allocation actually moves on (a reference
    equal to the current ratio would make every sensitivity zero).
    """
    _validate_inputs(objects, distances)
    ids = sorted(objects)
    max_tris = np.asarray([objects[i].max_triangles for i in ids], dtype=float)
    eq1 = eq1_columns([objects[i].params for i in ids], [distances[i] for i in ids])
    ratios = distribute_triangles_columns(
        max_tris, eq1, np.array([triangle_ratio], dtype=float), reference_ratio
    )
    return dict(zip(ids, ratios[0].tolist()))


def distribute_triangles_columns(
    max_triangles: np.ndarray,
    eq1: Eq1Columns,
    triangle_ratios: np.ndarray,
    reference_ratios: Union[None, float, np.ndarray] = None,
) -> np.ndarray:
    """The TD body: §IV-D over per-object columns in sorted-id order.

    ``max_triangles`` and the ``eq1`` fields are ``(L,)`` columns of one
    scene that every row shares, or ``(R, L)`` blocks whose row ``k`` is
    the scene of total ratio ``triangle_ratios[k]``. ``reference_ratios``
    (the sensitivity weight's comparison point) is ``None`` (halfway
    below each row's x), one ratio, or one per row.

    The sensitivity weights, the floor handling and the ≤ L water-filling
    rounds are evaluated for the whole batch at once. A row whose budget
    is exhausted receives zero grants in later rounds, which leaves its
    allocation exactly as it was. Every operation is elementwise or a
    per-row reduction, so each row is bit-identical to the same ratio
    evaluated alone. Rows of different L must not be padded into one
    call: NumPy sums 8 or more terms pairwise, so padding would change a
    row's reduction order.

    Returns the ``(R, L)`` decimation ratios.
    """
    x = np.asarray(triangle_ratios, dtype=float).ravel()
    if x.size == 0:
        raise ConfigurationError("triangle_ratios must be non-empty")
    if not ((x > 0.0) & (x <= 1.0)).all():
        raise ConfigurationError(
            f"triangle_ratio must be in (0, 1], got {x.tolist()}"
        )
    reference = (
        np.maximum(MIN_OBJECT_RATIO, x / 2.0)
        if reference_ratios is None
        else np.full(x.shape, reference_ratios, dtype=float)
    )
    if not ((reference > 0.0) & (reference <= 1.0)).all():
        raise ConfigurationError(
            f"reference_ratio must be in (0, 1], got {reference.tolist()}"
        )
    n_rows, n_obj = x.size, max_triangles.shape[-1]
    budget = x * max_triangles.sum(axis=-1)  # (n_rows,)

    # Sensitivity at the uniform starting point: how much worse (or
    # better) each object is at the common reference ratio than at the
    # current uniform ratio x — a measure of curve steepness around x,
    # scaled by distance through Eq. 1.
    current = np.maximum(MIN_OBJECT_RATIO, x)  # (n_rows,)
    sensitivities = np.abs(eq1_errors(eq1, current) - eq1_errors(eq1, reference))
    # A flat-curve object still needs *some* weight or it would starve.
    weights = sensitivities + 1e-6
    weights = weights / weights.sum(axis=1, keepdims=True)

    caps = max_triangles
    floors = MIN_OBJECT_RATIO * max_triangles
    allocation = np.zeros((n_rows, n_obj)) + floors  # a (rows, L) copy
    floor_total = allocation.sum(axis=1)
    remaining = budget - floor_total
    below = remaining < 0
    if below.any():
        # Budget below the aggregate floor: scale floors down proportionally.
        scale = np.where(below, budget / floor_total, 1.0)
        allocation *= scale[:, np.newaxis]
        remaining = np.maximum(remaining, 0.0)

    active = np.ones((n_rows, n_obj), dtype=bool)
    below_caps = caps - 1e-9
    for _ in range(n_obj):
        live = (remaining > 1e-9) & active.any(axis=1)
        if not live.any():
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
        active = allocation < below_caps

    # np.clip's bits, without its per-call dispatch cost.
    return np.minimum(np.maximum(allocation / max_triangles, MIN_OBJECT_RATIO), 1.0)


def distribute_triangles_grouped(
    scenes: Sequence[SceneColumns],
    triangle_ratios: Sequence[float],
    reference_ratios: Sequence[float],
) -> List[np.ndarray]:
    """TD for many scenes: entry ``k`` is scene ``k``'s sorted-id ratio
    row under ``triangle_ratios[k]`` and ``reference_ratios[k]``. Scenes
    of equal L share one :func:`distribute_triangles_columns` call on
    stacked ``(R, L)`` blocks; scenes of different L never do."""
    x, reference = np.asarray(triangle_ratios), np.asarray(reference_ratios)
    groups: Dict[int, List[int]] = {}
    for k, cols in enumerate(scenes):
        groups.setdefault(len(cols.ids), []).append(k)
    rows: List[np.ndarray] = [np.empty(0)] * len(scenes)
    for members in groups.values():
        max_tris, eq1 = zip(*(scenes[k].td_columns() for k in members))
        stacked = Eq1Columns(*map(np.stack, zip(*eq1)))
        block = distribute_triangles_columns(
            np.stack(max_tris), stacked, x[members], reference[members]
        )
        for k, row in zip(members, block):
            rows[k] = row
    return rows


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
