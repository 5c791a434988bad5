"""Constrained search spaces for the HBO optimizer.

The paper's optimization variables (§IV-C, Constraints 8–10) are:

- ``c = [c_1, ..., c_N]`` — the proportion of AI tasks allocated to each of
  the N resources. Each ``c_i ∈ [0, 1]`` and ``Σ c_i = 1``: a point on the
  (N-1)-dimensional probability simplex.
- ``x`` — the total triangle-count ratio, bounded in ``[R_min, 1]``.

BO operates over the joint vector ``z = [c; x]``. These spaces know how to
sample uniformly, validate membership, project arbitrary vectors back onto
the feasible set, and generate local perturbations (used by the acquisition
maximizer to refine around incumbents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import SearchSpaceError
from repro.rng import SeedLike, make_rng

_TOL = 1e-8


class _RowSpace:
    """Single-vector ops as one-row calls of the row-wise ones.

    A space supplies ``project_rows`` and ``_noise``, the per-column
    factor on a row's perturbation scale.
    """

    _noise: np.ndarray

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project(self, z: np.ndarray) -> np.ndarray:
        """Euclidean projection of ``z`` into the space."""
        return self.project_rows(np.asarray(z, dtype=float).ravel()[None])[0]

    def jitter_rows(
        self, centers: np.ndarray, scales: Sequence[float], rng: SeedLike
    ) -> np.ndarray:
        """Row ``i`` is ``centers[i]`` jittered at ``scales[i]``, unprojected:
        one ``(m, d)`` normal draw with per-row × per-column scales, which
        consumes the generator row-major exactly like ``m`` single-row
        draws in order (the stream contract)."""
        z = np.asarray(centers, dtype=float)
        s = np.asarray(scales, dtype=float).ravel()
        if z.ndim != 2 or z.shape[1] != len(self._noise) or len(s) != len(z):
            raise SearchSpaceError(
                f"expected (m, {len(self._noise)}) centers and m scales, got "
                f"shape {z.shape} and {len(s)} scales"
            )
        if not np.all(np.isfinite(s)) or np.any(s < 0):
            raise SearchSpaceError(f"scales must be finite and >= 0, got {s.tolist()}")
        return z + make_rng(rng).normal(0.0, s[:, None] * self._noise)


class SimplexSpace(_RowSpace):
    """The probability simplex {c ∈ [0,1]^n : Σ c_i = 1}."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise SearchSpaceError(f"simplex needs at least 1 coordinate, got {n}")
        self.n = int(n)
        self._noise = np.ones(self.n)

    @property
    def dim(self) -> int:
        return self.n

    def sample(self, rng: SeedLike, size: int = 1) -> np.ndarray:
        """Uniform samples on the simplex (flat Dirichlet), shape (size, n)."""
        gen = make_rng(rng)
        if size < 1:
            raise SearchSpaceError(f"size must be >= 1, got {size}")
        return gen.dirichlet(np.ones(self.n), size=size)

    def contains(self, c: np.ndarray, tol: float = _TOL) -> bool:
        c = np.asarray(c, dtype=float).ravel()
        if c.shape[0] != self.n:
            return False
        return bool(
            np.all(c >= -tol)
            and np.all(c <= 1.0 + tol)
            and abs(float(np.sum(c)) - 1.0) <= max(tol, 1e-6)
        )

    def project_rows(self, c: np.ndarray) -> np.ndarray:
        """Euclidean projection of each row of a ``(k, n)`` matrix onto
        the simplex.

        Uses the sorting algorithm of Held, Wolfe & Crowder; O(n log n)
        per row. Always returns valid simplex points, even for wildly
        infeasible input.
        """
        v = np.asarray(c, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.n:
            raise SearchSpaceError(
                f"expected (k, {self.n}) rows, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise SearchSpaceError("cannot project non-finite vector")
        u = np.sort(v, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1)
        rho_candidates = u + (1.0 - css) / np.arange(1, self.n + 1)
        # Last strictly-positive candidate per row (always exists: the
        # largest coordinate's candidate is positive).
        rho = (self.n - 1) - np.argmax((rho_candidates > 0)[:, ::-1], axis=1)
        theta = (css[np.arange(v.shape[0]), rho] - 1.0) / (rho + 1)
        w = np.clip(v - theta[:, None], 0.0, None)
        # For large-magnitude input, cancellation in ``css - 1`` can leave
        # the sum off by ~1e-9; renormalize so Σw = 1 to machine precision
        # (the support is already correct, so this is a tiny rescale).
        return w / np.sum(w, axis=1, dtype=float)[:, None]


class BoxSpace(_RowSpace):
    """An axis-aligned box ``[low_i, high_i]`` per coordinate."""

    def __init__(self, bounds: Sequence[Tuple[float, float]]) -> None:
        arr = np.asarray(bounds, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise SearchSpaceError(
                f"bounds must be a sequence of (low, high) pairs, got shape {arr.shape}"
            )
        if np.any(arr[:, 0] > arr[:, 1]):
            bad = arr[arr[:, 0] > arr[:, 1]]
            raise SearchSpaceError(f"low > high in bounds: {bad.tolist()}")
        self.low = arr[:, 0].copy()
        self.high = arr[:, 1].copy()
        self._noise = self.high - self.low

    @property
    def dim(self) -> int:
        return int(self.low.shape[0])

    def sample(self, rng: SeedLike, size: int = 1) -> np.ndarray:
        gen = make_rng(rng)
        if size < 1:
            raise SearchSpaceError(f"size must be >= 1, got {size}")
        return gen.uniform(self.low, self.high, size=(size, self.dim))

    def contains(self, x: np.ndarray, tol: float = _TOL) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            return False
        return bool(np.all(x >= self.low - tol) and np.all(x <= self.high + tol))

    def project_rows(self, x: np.ndarray) -> np.ndarray:
        """Clip each row of a ``(k, dim)`` matrix into the box."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise SearchSpaceError(f"expected (k, {self.dim}) rows, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise SearchSpaceError("cannot project non-finite vector")
        return np.clip(x, self.low, self.high)


@dataclass(frozen=True)
class HBOPoint:
    """A decoded point of the HBO search space."""

    proportions: np.ndarray  # c, on the simplex
    triangle_ratio: float  # x, in [r_min, 1]


class HBOSpace(_RowSpace):
    """Joint space ``z = [c (simplex over N resources); x (triangle ratio)]``.

    Implements Constraints 8–10 of the paper: 0 ≤ c_i ≤ 1, Σ c_i = 1 and
    R_min ≤ x ≤ 1.
    """

    def __init__(self, n_resources: int, r_min: float = 0.1) -> None:
        if not 0.0 <= r_min < 1.0:
            raise SearchSpaceError(f"r_min must be in [0, 1), got {r_min}")
        self.simplex = SimplexSpace(n_resources)
        self.box = BoxSpace([(r_min, 1.0)])
        self.r_min = float(r_min)
        # Simplex coordinates jitter at the row's scale, the triangle
        # ratio at the scale times its span.
        self._noise = np.concatenate([self.simplex._noise, self.box._noise])

    @property
    def n_resources(self) -> int:
        return self.simplex.n

    @property
    def dim(self) -> int:
        return self.simplex.dim + self.box.dim

    def split(self, z: np.ndarray) -> HBOPoint:
        """Decode a joint vector into (proportions, triangle_ratio)."""
        z = np.asarray(z, dtype=float).ravel()
        if z.shape[0] != self.dim:
            raise SearchSpaceError(f"expected {self.dim} coordinates, got {z.shape[0]}")
        return HBOPoint(
            proportions=z[: self.simplex.n].copy(),
            triangle_ratio=float(z[self.simplex.n]),
        )

    def join(self, proportions: np.ndarray, triangle_ratio: float) -> np.ndarray:
        c = np.asarray(proportions, dtype=float).ravel()
        if c.shape[0] != self.simplex.n:
            raise SearchSpaceError(
                f"expected {self.simplex.n} proportions, got {c.shape[0]}"
            )
        return np.concatenate([c, [float(triangle_ratio)]])

    def sample(self, rng: SeedLike, size: int = 1) -> np.ndarray:
        gen = make_rng(rng)
        c = self.simplex.sample(gen, size)
        x = self.box.sample(gen, size)
        return np.hstack([c, x])

    def contains(self, z: np.ndarray, tol: float = _TOL) -> bool:
        z = np.asarray(z, dtype=float).ravel()
        if z.shape[0] != self.dim:
            return False
        return self.simplex.contains(z[: self.simplex.n], tol) and self.box.contains(
            z[self.simplex.n :], tol
        )

    def project_rows(self, z: np.ndarray) -> np.ndarray:
        """Project each row of a ``(k, dim)`` matrix: simplex part, then ratio."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise SearchSpaceError(f"expected (k, {self.dim}) rows, got shape {z.shape}")
        n = self.simplex.n
        return np.hstack(
            [self.simplex.project_rows(z[:, :n]), self.box.project_rows(z[:, n:])]
        )
