"""The scalable GP tier: subset-of-data approximation with a budgeted,
deterministically selected support set.

Every :class:`~repro.bo.gp.GaussianProcess` fit factorizes the full
``(n, n)`` covariance — O(n³). One optimizer run stays small, but a
long-lived session (or a warm fleet whose sessions keep accumulating
donor observations) refits on an ever-growing dataset, and the refit
cost eventually dominates the control loop the optimizer is supposed to
keep cheap. The sparse tier caps that cost: the optimizer fits the one
exact GP on at most ``max_support`` observations
(:meth:`~repro.bo.optimizer.BayesianOptimizer.surrogate_dataset`),
selected by :func:`select_support` as a pure function of the
observation sequence and an integer seed (all randomness routed through
:mod:`repro.rng`).

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
"""

from __future__ import annotations

import numpy as np

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
