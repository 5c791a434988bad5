"""Batched GP evaluation for the shared optimizer service.

A fleet tick needs one guided proposal per active session. Doing that
with per-session :class:`~repro.bo.gp.GaussianProcess` objects costs B
separate kernel evaluations, Cholesky factorizations, and acquisition
sweeps — a Python loop whose overhead dominates once the fleet grows.
This module runs the same math as ``gp.py`` across all sessions at once:

- datasets are padded to the largest session's size and stacked into a
  ``(B, n, n)`` covariance tensor; padded rows are *ghost* observations
  (zero cross-covariance, unit diagonal, zero target), which leaves every
  real posterior bit-identical to the per-session computation;
- the linear algebra (factor + solve) runs through numpy's batched
  ``linalg`` kernels, with the same jitter-escalation ladder as
  :class:`~repro.bo.gp.GaussianProcess`;
- Expected Improvement is evaluated on the full ``(B, C)`` posterior in
  one vectorized pass (per-session incumbents as a column).

:class:`SharedOptimizerService` packages this as "give me B optimizers,
get B proposals", which is what :class:`~repro.fleet.scheduler.
FleetScheduler` calls once per tick.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bo.acquisition import expected_improvement
from repro.bo.kernels import RBF, Kernel, Matern
from repro.bo.optimizer import BayesianOptimizer, candidate_pool
from repro.bo.space import HBOSpace
from repro.errors import FleetError, GPFitError
from repro.obs import runtime as obs

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


def _batched_distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distances between row sets, batched: (B,m,d) × (B,n,d)
    → (B,m,n)."""
    sq = (
        np.sum(xa**2, axis=2)[:, :, None]
        + np.sum(xb**2, axis=2)[:, None, :]
        - 2.0 * np.einsum("bmd,bnd->bmn", xa, xb)
    )
    return np.sqrt(np.clip(sq, 0.0, None))


def batched_kernel_matrix(
    kernel: Kernel, xa: np.ndarray, xb: np.ndarray
) -> np.ndarray:
    """Cross-covariance tensor ``(B, m, n)`` for stacked row sets.

    Matérn-1/2 / 3/2 / 5/2 and RBF evaluate fully vectorized; any other
    kernel falls back to one ``kernel(x, z)`` call per batch element
    (correct, just not batched).
    """
    if xa.ndim != 3 or xb.ndim != 3 or xa.shape[0] != xb.shape[0]:
        raise FleetError(
            f"batched kernel expects (B,m,d)/(B,n,d) inputs, got "
            f"{xa.shape} and {xb.shape}"
        )
    if isinstance(kernel, Matern):
        r = _batched_distances(xa, xb) / kernel.length_scale
        if math.isclose(kernel.nu, 0.5):
            k = np.exp(-r)
        elif math.isclose(kernel.nu, 1.5):
            s = math.sqrt(3.0) * r
            k = (1.0 + s) * np.exp(-s)
        else:  # nu == 2.5
            s = math.sqrt(5.0) * r
            k = (1.0 + s + s**2 / 3.0) * np.exp(-s)
        return kernel.variance * k
    if isinstance(kernel, RBF):
        r = _batched_distances(xa, xb) / kernel.length_scale
        return kernel.variance * np.exp(-0.5 * r**2)
    return np.stack([kernel(a, b) for a, b in zip(xa, xb)])


def _kernel_variance(kernel: Kernel) -> float:
    """k(z, z) for a stationary kernel (prior variance at any point)."""
    probe = np.zeros((1, 1))
    return float(kernel.diag(probe)[0])


class BatchedGPService:
    """Fits and queries many sessions' GP surrogates in one pass.

    Mirrors :class:`~repro.bo.gp.GaussianProcess` (target standardization,
    noise on the diagonal, jitter escalation) but over a padded batch.
    """

    def __init__(self, kernel: Optional[Kernel] = None, noise: float = 1e-3) -> None:
        if noise < 0:
            raise GPFitError(f"noise must be >= 0, got {noise}")
        self.kernel = kernel if kernel is not None else Matern(length_scale=1.0, nu=2.5)
        self.noise = float(noise)

    def posterior(
        self,
        train_x: Sequence[np.ndarray],
        train_y: Sequence[np.ndarray],
        query_x: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior (mean, std), each ``(B, C)``, for B sessions at once.

        ``train_x[b]`` is session b's ``(n_b, d)`` dataset, ``train_y[b]``
        its costs, ``query_x`` the stacked ``(B, C, d)`` candidate pools.
        Sessions may have different ``n_b``; padding ghosts keep each
        session's posterior identical to a per-session
        :class:`GaussianProcess` fit.
        """
        n_batch = len(train_x)
        if n_batch == 0:
            raise GPFitError("posterior() needs at least one session")
        if len(train_y) != n_batch or query_x.shape[0] != n_batch:
            raise GPFitError(
                f"batch size mismatch: {n_batch} datasets, {len(train_y)} "
                f"targets, {query_x.shape[0]} query pools"
            )
        dim = query_x.shape[2]
        sizes = np.asarray([x.shape[0] for x in train_x])
        if np.any(sizes == 0):
            raise GPFitError("cannot fit a GP on zero observations")
        n_max = int(sizes.max())

        x_pad = np.zeros((n_batch, n_max, dim))
        y_pad = np.zeros((n_batch, n_max))
        mask = np.zeros((n_batch, n_max))
        for b, (x, y) in enumerate(zip(train_x, train_y)):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float).ravel()
            if x.shape != (sizes[b], dim) or y.shape[0] != sizes[b]:
                raise GPFitError(
                    f"session {b}: dataset shape {x.shape} / targets "
                    f"{y.shape} inconsistent with ({sizes[b]}, {dim})"
                )
            if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
                raise GPFitError("GP training data contains NaN or inf")
            x_pad[b, : sizes[b]] = x
            y_pad[b, : sizes[b]] = y
            mask[b, : sizes[b]] = 1.0

        # Per-session target standardization (as gp.py's normalize_y).
        counts = mask.sum(axis=1)
        y_mean = (y_pad * mask).sum(axis=1) / counts
        centered = (y_pad - y_mean[:, None]) * mask
        y_std = np.sqrt((centered**2).sum(axis=1) / counts)
        y_std = np.where(y_std > 1e-12, y_std, 1.0)
        y_norm = centered / y_std[:, None]

        # Covariance with ghost padding: zero cross-covariance to padded
        # rows, unit diagonal there — the block stays positive definite
        # and real entries are untouched.
        k = batched_kernel_matrix(self.kernel, x_pad, x_pad)
        pair_mask = mask[:, :, None] * mask[:, None, :]
        k = k * pair_mask
        diag = np.arange(n_max)
        k[:, diag, diag] = np.where(
            mask > 0.5, k[:, diag, diag] + self.noise, 1.0
        )

        eye = np.eye(n_max)[None, :, :]
        solved: Optional[Tuple[np.ndarray, np.ndarray]] = None
        last_error: Optional[Exception] = None
        k_star = batched_kernel_matrix(self.kernel, query_x, x_pad)  # (B,C,n)
        k_star = k_star * mask[:, None, :]
        for jitter in _JITTERS:
            try:
                k_j = k + jitter * eye
                np.linalg.cholesky(k_j)  # PD check, matches gp.py semantics
                alpha = np.linalg.solve(k_j, y_norm[:, :, None])[:, :, 0]
                v = np.linalg.solve(k_j, k_star.transpose(0, 2, 1))  # (B,n,C)
                solved = (alpha, v)
                break
            except np.linalg.LinAlgError as exc:
                last_error = exc
        if solved is None:
            raise GPFitError(
                f"batched covariance not positive definite after jitter "
                f"escalation up to {_JITTERS[-1]}: {last_error}"
            )
        alpha, v = solved
        mean_n = np.einsum("bcn,bn->bc", k_star, alpha)
        prior_var = _kernel_variance(self.kernel)
        var_n = prior_var - np.einsum("bcn,bnc->bc", k_star, v)
        var_n = np.clip(var_n, 1e-12, None)
        mean = mean_n * y_std[:, None] + y_mean[:, None]
        std = np.sqrt(var_n) * y_std[:, None]
        return mean, std


class SharedOptimizerService:
    """One-tick proposal engine: B guided optimizers in, B proposals out.

    Pools come from :func:`~repro.bo.optimizer.candidate_pool` around each
    session's best observation, without anchors, so all pools have one
    size and the whole fleet scores as one tensor.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise: float = 1e-3,
        xi: float = 0.01,
        n_candidates: int = 256,
        n_local: int = 32,
    ) -> None:
        if n_candidates < 1:
            raise FleetError(f"n_candidates must be >= 1, got {n_candidates}")
        if n_local < 0:
            raise FleetError(f"n_local must be >= 0, got {n_local}")
        self.gp = BatchedGPService(kernel=kernel, noise=noise)
        self.xi = float(xi)
        self.n_candidates = int(n_candidates)
        self.n_local = int(n_local)
        #: Batched GP passes executed (telemetry).
        self.batches = 0
        #: Session-proposals served through those passes.
        self.proposals_served = 0

    def _candidates(
        self, optimizer: BayesianOptimizer, rng: np.random.Generator
    ) -> np.ndarray:
        space = optimizer.space
        if not isinstance(space, HBOSpace):
            raise FleetError(
                "batched proposals need HBOSpace optimizers, got "
                f"{type(space).__name__}"
            )
        incumbent = optimizer.best().z[None]
        return candidate_pool(
            space, rng, self.n_candidates, None, incumbent, self.n_local
        )

    def propose(
        self,
        optimizers: Sequence[BayesianOptimizer],
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        """Guided proposals for every optimizer, via one batched GP pass.

        All optimizers must search an :class:`~repro.bo.space.HBOSpace`
        of one shared dimension and have at least one observation. Falls back to uniform exploration (matching
        the single-session optimizer's degenerate-fit behavior) if the
        batched fit is impossible or a session's scores are all
        non-finite.
        """
        if not optimizers:
            return []
        if len(rngs) != len(optimizers):
            raise FleetError(
                f"{len(optimizers)} optimizers but {len(rngs)} rng streams"
            )
        dims = {opt.space.dim for opt in optimizers}
        if len(dims) != 1:
            raise FleetError(
                f"cannot batch optimizers over mixed space dimensions: {sorted(dims)}"
            )
        candidates = np.stack(
            [self._candidates(opt, rng) for opt, rng in zip(optimizers, rngs)]
        )  # (B, C, d)
        # surrogate_dataset() is every observation on the exact tier and
        # the deterministic support subset on the sparse tier, so sparse
        # sessions are priced here exactly as a per-session fit would —
        # and they cap the padded batch width at their support budget.
        datasets = [opt.surrogate_dataset() for opt in optimizers]
        train_x = [x for x, _ in datasets]
        train_y = [y for _, y in datasets]
        best_y = np.asarray([opt.best().cost for opt in optimizers])
        with obs.span(
            "fleet.batched_gp", category="fleet", n_sessions=len(optimizers)
        ) as span:
            try:
                mean, std = self.gp.posterior(train_x, train_y, candidates)
                scores = expected_improvement(mean, std, best_y[:, None], self.xi)
            except GPFitError:
                scores = None
                span.set(degenerate_fit=True)
        self.batches += 1
        self.proposals_served += len(optimizers)
        obs.counter("fleet_gp_batches").inc()
        obs.histogram("fleet_gp_batch_size", edges=(1, 2, 4, 8, 16, 32, 64)).observe(
            len(optimizers)
        )

        proposals: List[np.ndarray] = []
        for b, (opt, rng) in enumerate(zip(optimizers, rngs)):
            if scores is None or not np.any(np.isfinite(scores[b])):
                z = opt.space.sample(rng, size=1)[0]
            else:
                z = candidates[b, int(np.nanargmax(scores[b]))]
            proposals.append(opt.space.project(z))
        return proposals
