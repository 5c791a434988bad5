"""The eAR degradation model (Eq. 1) and its offline parameter fitting.

The paper borrows from eAR [11] a user-validated model of how perceived
quality of a virtual object degrades with decimation and distance:

    D_error(t, i) = (a_i R² + b_i R + c_i) / D^{d_i}            (Eq. 1)

where R is the decimation ratio (selected / maximum triangles), D the
user-object distance, and (a, b, c, d) per-object parameters "trained
offline". This module provides:

- :class:`DegradationParams` — a validated parameter set.
- :class:`DegradationModel` — evaluation of Eq. 1 with clamping to [0, 1].
- :func:`eq1_columns` / :func:`eq1_errors` — the same Eq. 1 over
  per-object columns and a vector of ratios (or one ratio per object),
  bit-identical to the scalar model row by row (TD's sensitivity
  weights, the frontier's plan, Eq. 2 over a scene).
- :func:`fit_degradation_params` — the offline training: least-squares fit
  of (a, b, c) and a grid search over d, from (R, D, error) samples. The
  fit enforces the physical anchor error(R=1) ≈ 0 by construction.
- :func:`synthesize_training_samples` — generates the GMSD-style distortion
  measurements for a mesh by actually decimating it across a ratio sweep
  (the stand-in for the paper's image-quality assessment step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.ar.decimation import decimate, decimation_error_proxy
from repro.ar.mesh import TriangleMesh
from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class DegradationParams:
    """Per-object parameters (a, b, c, d) of Eq. 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ConfigurationError(
                f"distance exponent d must be >= 0, got {self.d}"
            )
        # The model must not reward decimation: error at full quality
        # (R=1, D=1) should be ~0 and error must not go negative at R=1.
        at_full = self.a + self.b + self.c
        if at_full < -1e-6:
            raise ConfigurationError(
                f"params give negative error at R=1: a+b+c={at_full:.4f}"
            )

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


class DegradationModel:
    """Evaluates Eq. 1 for one object, clamped to [0, 1]."""

    def __init__(self, params: DegradationParams) -> None:
        self.params = params

    def error(self, ratio: float, distance: float) -> float:
        """Normalized degradation error D_error ∈ [0, 1]."""
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError(f"ratio must be in (0, 1], got {ratio}")
        if distance <= 0:
            raise ConfigurationError(f"distance must be > 0, got {distance}")
        p = self.params
        numerator = p.a * ratio**2 + p.b * ratio + p.c
        return float(np.clip(numerator / distance**p.d, 0.0, 1.0))

    def quality(self, ratio: float, distance: float) -> float:
        """Per-object quality 1 - D_error (the summand of Eq. 2)."""
        return 1.0 - self.error(ratio, distance)


class Eq1Columns(NamedTuple):
    """Eq. 1 parameters of L objects as ``(L,)`` columns, ``D^d`` precomputed
    (``(rows, L)`` blocks when the objects differ per row)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    denom: np.ndarray


def eq1_columns(
    params: Sequence[DegradationParams], distances: Sequence[float]
) -> Eq1Columns:
    """Gather per-object ``(a, b, c, D^d)`` columns for :func:`eq1_errors`.

    ``D^d`` is taken once per object with Python-float ``pow``, exactly as
    :meth:`DegradationModel.error` takes it (NumPy's vectorized ``pow``
    can differ from libm by 1 ulp).
    """
    return Eq1Columns(
        a=np.array([p.a for p in params], dtype=np.float64),
        b=np.array([p.b for p in params], dtype=np.float64),
        c=np.array([p.c for p in params], dtype=np.float64),
        denom=np.array(
            [dist**p.d for p, dist in zip(params, distances)], dtype=np.float64
        ),
    )


def eq1_errors(columns: Eq1Columns, ratios: np.ndarray) -> np.ndarray:
    """Clamped Eq. 1 of every object at every ratio: shape ``(rows, L)``.

    ``ratios`` is either ``(rows,)``, one ratio shared by every object of
    a row (TD's sensitivity weights), or ``(rows, L)``, one ratio per
    object (Eq. 2 over a drawn scene). Entry ``[k, j]`` is bit-identical
    to ``model_j.error(ratio, D_j)``: each ratio is squared with
    Python-float ``pow`` like the scalar path, because NumPy's ``r**2``
    (a plain ``r*r``) differs from libm ``pow`` in the last bit on some
    inputs. Ratios are not range-checked here; callers validate them.
    """
    r = np.asarray(ratios, dtype=np.float64)
    r = r if r.ndim == 2 else r.reshape(-1, 1)
    squared = np.array([v**2 for v in r.ravel().tolist()], dtype=np.float64)
    numerator = columns.a * squared.reshape(r.shape) + columns.b * r + columns.c
    return np.clip(numerator / columns.denom, 0.0, 1.0)


def synthesize_training_samples(
    mesh: TriangleMesh,
    ratios: Sequence[float] = (0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0),
    distances: Sequence[float] = (0.7, 1.0, 1.5, 2.5),
    distance_exponent: float = 1.0,
    noise_sigma: float = 0.01,
    seed: SeedLike = None,
) -> List[Tuple[float, float, float]]:
    """Produce (ratio, distance, measured_error) training triples.

    Decimates ``mesh`` at each ratio, measures the geometric distortion
    proxy, attenuates it by distance (far objects project fewer pixels, so
    measured GMSD distortion drops), and adds measurement noise. This is
    the stand-in for eAR's offline GMSD-based quality assessment.
    """
    if noise_sigma < 0:
        raise ConfigurationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = make_rng(seed)
    samples: List[Tuple[float, float, float]] = []
    for ratio in ratios:
        if ratio >= 0.999:
            base_error = 0.0
        else:
            base_error = decimation_error_proxy(mesh, decimate(mesh, ratio))
        for distance in distances:
            measured = base_error / distance**distance_exponent
            measured += float(rng.normal(0.0, noise_sigma))
            samples.append((float(ratio), float(distance), float(np.clip(measured, 0.0, 1.0))))
    return samples


def fit_degradation_params(
    samples: Sequence[Tuple[float, float, float]],
    d_grid: Sequence[float] = tuple(np.linspace(0.2, 2.0, 19)),
) -> DegradationParams:
    """Offline training of Eq. 1 from (R, D, error) samples.

    For each candidate distance exponent ``d`` on a grid, the quadratic
    (a, b, c) is fit by constrained least squares on
    ``error * D^d = a R² + b R + c`` with the anchor a + b + c = 0
    (zero error at full quality), then the best (d, a, b, c) by residual
    is returned.
    """
    if len(samples) < 4:
        raise ConfigurationError(
            f"need at least 4 samples to fit Eq. 1, got {len(samples)}"
        )
    arr = np.asarray(samples, dtype=float)
    r, dist, err = arr[:, 0], arr[:, 1], arr[:, 2]
    if np.any((r <= 0) | (r > 1)) or np.any(dist <= 0):
        raise ConfigurationError("samples contain out-of-range ratio/distance")

    best: Tuple[float, DegradationParams] = (float("inf"), DegradationParams(0, 0, 0, 1))
    for d in d_grid:
        target = err * dist**d
        # Basis with the anchor folded in: error = a(R²-1) + b(R-1), c = -(a+b).
        basis = np.stack([r**2 - 1.0, r - 1.0], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
        a, b = float(coeffs[0]), float(coeffs[1])
        c = -(a + b)
        residual = float(np.mean((basis @ coeffs - target) ** 2))
        if residual < best[0]:
            best = (residual, DegradationParams(a=a, b=b, c=c, d=float(d)))
    return best[1]
