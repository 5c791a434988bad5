"""The scalable GP tier: subset-of-data approximation with a budgeted,
deterministically selected support set.

Every :class:`~repro.bo.gp.GaussianProcess` fit factorizes the full
``(n, n)`` covariance — O(n³). One optimizer run stays small, but a
long-lived session (or a warm fleet whose sessions keep accumulating
donor observations) refits on an ever-growing dataset, and the refit
cost eventually dominates the control loop the optimizer is supposed to
keep cheap. :class:`SparseGaussianProcess` caps that cost: the surrogate
conditions on at most ``max_support`` observations, selected by
:func:`select_support` as a pure function of the observation sequence
and an integer seed (all randomness routed through :mod:`repro.rng`).

Tier contract:

- ``n ≤ max_support``: the support set is *all* observations in
  insertion order, so the fit is the exact GP fit — same operations in
  the same order, bit-identical posterior. This is the parity regime
  `tests/test_bo_sparse.py` pins.
- ``n > max_support``: the support set keeps the lowest-cost quarter
  (the incumbent region EI exploits), the most recent quarter (the
  region the optimizer is currently probing), and fills the rest with a
  seeded uniform draw from the remaining history (coverage). Fit cost
  is O(n log n) selection + O(m³) factorization with m fixed, so fit
  time stays flat as n grows — the BENCH_pr8.json curve.

The class exposes the same surface the acquisition functions and the
optimizer need (``fit`` / ``predict`` / ``is_fit`` / ``n_observations``),
so it drops in behind :class:`~repro.bo.optimizer.BayesianOptimizer`
without touching the acquisition code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bo.gp import GaussianProcess, GPPosterior
from repro.bo.kernels import Kernel, _as_2d
from repro.errors import GPFitError
from repro.rng import derive_seed, make_rng


def select_support(
    y: np.ndarray, max_support: int, seed: int = 0
) -> np.ndarray:
    """Deterministic, seeded support-set selection for the sparse tier.

    Returns sorted indices into ``y`` (so the selected observations keep
    their insertion order, which is what makes the ``n ≤ max_support``
    regime bit-identical to the exact GP). Selection is a pure function
    of ``(seed, y)``:

    - all indices when ``n ≤ max_support``;
    - otherwise: the ``⌈m/4⌉`` lowest-cost observations (stable argsort,
      ties resolved by index), the ``⌈m/4⌉`` most recent ones, and a
      uniform without-replacement draw over the rest from
      ``make_rng(derive_seed(seed, "gp-support", n))``.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = int(y.shape[0])
    if max_support < 4:
        raise GPFitError(f"max_support must be >= 4, got {max_support}")
    if n <= max_support:
        return np.arange(n)
    quarter = -(-max_support // 4)  # ceil division
    best = np.argsort(y, kind="stable")[:quarter]
    recent = np.arange(n - quarter, n)
    keep = np.union1d(best, recent)
    remainder = np.setdiff1d(np.arange(n), keep, assume_unique=False)
    n_fill = max_support - keep.shape[0]
    if n_fill > 0 and remainder.shape[0] > 0:
        rng = make_rng(derive_seed(seed, "gp-support", n))
        fill = rng.choice(
            remainder, size=min(n_fill, remainder.shape[0]), replace=False
        )
        keep = np.union1d(keep, fill)
    return np.sort(keep)


class SparseGaussianProcess:
    """Subset-of-data GP: exact regression on a budgeted support set.

    Parameters
    ----------
    kernel / noise / normalize_y:
        Forwarded verbatim to the underlying exact
        :class:`~repro.bo.gp.GaussianProcess`, so the two tiers share
        one implementation of the covariance, jitter-escalation, and
        target-standardization math.
    max_support:
        Support-set budget m (the tier's n*): datasets at or below this
        size are fit exactly; larger ones are subsampled by
        :func:`select_support`.
    seed:
        Integer seed of the support selection (NOT an RNG stream — the
        selection must be a pure function of the observation sequence,
        so replays and the batched fleet path agree).
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise: float = 1e-4,
        normalize_y: bool = True,
        max_support: int = 64,
        seed: int = 0,
    ) -> None:
        if max_support < 4:
            raise GPFitError(f"max_support must be >= 4, got {max_support}")
        self.max_support = int(max_support)
        self.seed = int(seed)
        self._gp = GaussianProcess(
            kernel=kernel, noise=noise, normalize_y=normalize_y
        )
        self._n_total = 0
        self._support: Optional[np.ndarray] = None

    # ------------------------------------------------------------- surface

    @property
    def kernel(self) -> Kernel:
        return self._gp.kernel

    @property
    def noise(self) -> float:
        return self._gp.noise

    @property
    def is_fit(self) -> bool:
        return self._gp.is_fit

    @property
    def n_observations(self) -> int:
        """Size of the *full* dataset handed to the last :meth:`fit`."""
        return self._n_total

    @property
    def n_support(self) -> int:
        """Observations the posterior actually conditions on (≤ budget)."""
        return 0 if self._support is None else int(self._support.shape[0])

    @property
    def support_indices(self) -> np.ndarray:
        """Sorted indices of the support set within the last dataset."""
        if self._support is None:
            raise GPFitError("support_indices read before fit()")
        return self._support.copy()

    # ----------------------------------------------------------------- fit

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SparseGaussianProcess":
        """Select the support set and condition the exact GP on it."""
        x = _as_2d(x)
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise GPFitError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        support = select_support(y, self.max_support, seed=self.seed)
        self._gp.fit(x[support], y[support])
        self._n_total = int(x.shape[0])
        self._support = support
        return self

    def predict(self, x: np.ndarray) -> GPPosterior:
        """Posterior N(μ(x), σ²(x)) of the support-set GP at rows of ``x``."""
        return self._gp.predict(x)
