"""Covariance kernels for Gaussian-process regression.

The paper (Eq. 7) uses the Matérn kernel with smoothness ν = 5/2 and
length scale l = 1:

    k(z, z') = σ² (1 + √5 r / l + 5 r² / 3 l²) exp(-√5 r / l)

where ``r`` is the Euclidean distance between the two configurations. We
also implement ν ∈ {1/2, 3/2} and the RBF (squared-exponential) kernel so
the ablation bench can compare kernel choices.

All kernels evaluate a full cross-covariance matrix in one vectorized call:
``k(X, Z) -> (n, m)`` for ``X`` of shape ``(n, d)`` and ``Z`` of shape
``(m, d)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError

_SUPPORTED_NU = (0.5, 1.5, 2.5)


def _as_2d(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ConfigurationError(f"kernel inputs must be 2-D, got shape {arr.shape}")
    return arr


def pairwise_distances(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between row sets ``x`` (n,d) and ``z`` (m,d)."""
    x = _as_2d(x)
    z = _as_2d(z)
    if x.shape[1] != z.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: {x.shape[1]} vs {z.shape[1]}"
        )
    # (x - z)^2 = x^2 + z^2 - 2 x.z, clipped to avoid tiny negatives.
    sq = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(z**2, axis=1)[None, :]
        - 2.0 * x @ z.T
    )
    return np.sqrt(np.clip(sq, 0.0, None))


class Kernel(ABC):
    """Base class for stationary covariance kernels."""

    @abstractmethod
    def __call__(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Cross-covariance matrix between row sets ``x`` and ``z``."""

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Variance at each row of ``x`` (the diagonal of ``k(x, x)``)."""
        x = _as_2d(x)
        return np.diag(self(x, x)).copy()


class Matern(Kernel):
    """Matérn kernel with smoothness ν ∈ {1/2, 3/2, 5/2}.

    ``nu=2.5`` with ``length_scale=1.0`` is the paper's configuration.
    """

    def __init__(
        self,
        length_scale: float = 1.0,
        nu: float = 2.5,
        variance: float = 1.0,
    ) -> None:
        if not length_scale > 0:
            raise ConfigurationError(f"length_scale must be > 0, got {length_scale}")
        if variance <= 0:
            raise ConfigurationError(f"variance must be > 0, got {variance}")
        if nu not in _SUPPORTED_NU:
            raise ConfigurationError(
                f"nu must be one of {_SUPPORTED_NU}, got {nu} "
                "(half-integer Matérn only)"
            )
        self.length_scale = float(length_scale)
        self.nu = float(nu)
        self.variance = float(variance)

    def __call__(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        r = pairwise_distances(x, z) / self.length_scale
        if math.isclose(self.nu, 0.5):
            k = np.exp(-r)
        elif math.isclose(self.nu, 1.5):
            s = math.sqrt(3.0) * r
            k = (1.0 + s) * np.exp(-s)
        else:  # nu == 2.5, Eq. 7 of the paper
            s = math.sqrt(5.0) * r
            k = (1.0 + s + s**2 / 3.0) * np.exp(-s)
        return self.variance * k

    def diag(self, x: np.ndarray) -> np.ndarray:
        x = _as_2d(x)
        return np.full(x.shape[0], self.variance)

    def __repr__(self) -> str:
        return (
            f"Matern(length_scale={self.length_scale}, nu={self.nu}, "
            f"variance={self.variance})"
        )


class RBF(Kernel):
    """Squared-exponential kernel (the ν → ∞ limit of Matérn)."""

    def __init__(self, length_scale: float = 1.0, variance: float = 1.0) -> None:
        if not length_scale > 0:
            raise ConfigurationError(f"length_scale must be > 0, got {length_scale}")
        if variance <= 0:
            raise ConfigurationError(f"variance must be > 0, got {variance}")
        self.length_scale = float(length_scale)
        self.variance = float(variance)

    def __call__(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        r = pairwise_distances(x, z) / self.length_scale
        return self.variance * np.exp(-0.5 * r**2)

    def diag(self, x: np.ndarray) -> np.ndarray:
        x = _as_2d(x)
        return np.full(x.shape[0], self.variance)

    def __repr__(self) -> str:
        return f"RBF(length_scale={self.length_scale}, variance={self.variance})"


def make_kernel(name: str, length_scale: float = 1.0, variance: float = 1.0) -> Kernel:
    """Construct a kernel by name: ``matern12 | matern32 | matern52 | rbf``."""
    table = {
        "matern12": lambda: Matern(length_scale, nu=0.5, variance=variance),
        "matern32": lambda: Matern(length_scale, nu=1.5, variance=variance),
        "matern52": lambda: Matern(length_scale, nu=2.5, variance=variance),
        "rbf": lambda: RBF(length_scale, variance=variance),
    }
    key = name.lower()
    if key not in table:
        raise ConfigurationError(
            f"unknown kernel {name!r}; expected one of {sorted(table)}"
        )
    return table[key]()
