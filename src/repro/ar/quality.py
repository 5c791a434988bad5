"""Average on-screen virtual-object quality (the paper's Eq. 2).

    Q_t = (1 / L_t) Σ_i (1 - D_error(t, i))

where the sum runs over the L_t objects currently on screen. Quality is
the AR-side half of HBO's cost function. :func:`eq2_quality` is the one
Eq. 2 body: the scene, :func:`average_quality` and the backend call it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ar.degradation import DegradationModel, Eq1Columns, eq1_columns, eq1_errors
from repro.errors import ConfigurationError


def object_quality(model: DegradationModel, ratio: float, distance: float) -> float:
    """Quality of one object: ``1 - D_error`` (Eq. 1 complement)."""
    return model.quality(ratio, distance)


def eq2_quality(columns: Eq1Columns, ratios: np.ndarray) -> np.ndarray:
    """Eq. 2 of every row of a ``(rows, L)`` block of per-object ratios.

    Returns ``(rows,)``; 1.0 where L = 0 — with no virtual objects there
    is nothing to degrade, which keeps the reward B_t well-defined before
    the first placement. Each row is summed left to right, so it is
    bit-identical to adding ``model.quality`` object by object.
    """
    per_object = 1.0 - eq1_errors(columns, ratios)
    rows, n_objects = per_object.shape
    if n_objects == 0:
        return np.ones(rows, dtype=np.float64)
    return np.cumsum(per_object, axis=1)[:, -1] / n_objects


def average_quality(
    models: Sequence[DegradationModel],
    ratios: Sequence[float],
    distances: Sequence[float],
) -> float:
    """Eq. 2 over parallel sequences of per-object models/ratios/distances."""
    if not (len(models) == len(ratios) == len(distances)):
        raise ConfigurationError(
            f"parallel length mismatch: {len(models)} models, "
            f"{len(ratios)} ratios, {len(distances)} distances"
        )
    if not all(0.0 < r <= 1.0 for r in ratios) or not all(d > 0 for d in distances):
        raise ConfigurationError("ratios must be in (0, 1] and distances > 0")
    columns = eq1_columns([m.params for m in models], distances)
    return float(eq2_quality(columns, np.reshape(ratios, (1, len(models))))[0])
