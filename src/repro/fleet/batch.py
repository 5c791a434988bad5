"""Guided proposals for a fleet tick, priced with the one exact GP.

:class:`SharedOptimizerService` turns the B guided optimizers of one
space into B proposals, once per fleet tick and space dimension. Only
each session's fit and predict (its own :class:`~repro.bo.gp.
GaussianProcess` on :meth:`~repro.bo.optimizer.BayesianOptimizer.
surrogate_dataset`) run per session; the rest are column passes. One
:func:`~repro.bo.optimizer.candidate_pool` call draws the ``(B, C, d)``
pools around each session's best observation from each session's own
stream, in session order, and projects all jittered rows at once; one
:func:`~repro.bo.acquisition.expected_improvement` call scores the
``(B, C)`` means and stds (NaN rows for degenerate fits); a per-row
``nanargmax`` picks (a fitted row with no finite score takes its first
pool row, a degenerate fit draws a uniform fallback from its own
stream); one ``project_rows`` call projects the picks.
Every pass is row-wise, so each proposal is bitwise the one the session
would get alone. At n ≤ 30, one small Cholesky per session is as fast
as a padded batch.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.bo.acquisition import expected_improvement
from repro.bo.gp import GaussianProcess
from repro.bo.optimizer import BayesianOptimizer, candidate_pool
from repro.bo.space import HBOSpace
from repro.errors import FleetError, GPFitError
from repro.obs import runtime as obs


class SharedOptimizerService:
    """One-tick proposal engine: B guided optimizers in, B proposals out."""

    def __init__(
        self,
        xi: float = 0.01,
        n_candidates: int = 256,
        n_local: int = 32,
    ) -> None:
        if not (np.isfinite(xi) and xi >= 0):
            raise FleetError(f"xi must be finite and >= 0, got {xi}")
        if n_candidates < 1:
            raise FleetError(f"n_candidates must be >= 1, got {n_candidates}")
        if n_local < 0:
            raise FleetError(f"n_local must be >= 0, got {n_local}")
        self.xi = float(xi)
        self.n_candidates = int(n_candidates)
        self.n_local = int(n_local)

    def propose(
        self,
        optimizers: Sequence[BayesianOptimizer],
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        """Guided proposals for every optimizer, one exact GP fit each.

        All optimizers must search an :class:`~repro.bo.space.HBOSpace`
        of one shared dimension and ``r_min``, and have at least one
        observation. As in the single-session optimizer, a session whose
        fit is degenerate falls back to uniform exploration on its own
        stream, and one whose scores are all non-finite takes its first
        candidate; the other sessions keep their guided pick.
        """
        if not optimizers:
            return []
        if len(rngs) != len(optimizers):
            raise FleetError(
                f"{len(optimizers)} optimizers but {len(rngs)} rng streams"
            )
        space = optimizers[0].space
        shapes = {(opt.space.dim, getattr(opt.space, "r_min", None)) for opt in optimizers}
        if len(shapes) != 1 or not isinstance(space, HBOSpace):
            raise FleetError(
                "batched proposals need HBOSpace optimizers of one (dim, r_min), "
                f"got {type(space).__name__} and {sorted(shapes, key=str)}"
            )
        best = [opt.best() for opt in optimizers]
        incumbents = np.stack([b.z for b in best])[:, None]
        pools = candidate_pool(space, rngs, self.n_candidates, None, incumbents, self.n_local)
        mean, std = np.full((2,) + pools.shape[:2], np.nan)
        fitted = np.zeros(len(optimizers), dtype=bool)
        with obs.span(
            "fleet.batched_gp", category="fleet", n_sessions=len(optimizers)
        ) as span:
            for row, opt in enumerate(optimizers):
                try:
                    # surrogate_dataset() is the support subset on the
                    # sparse tier, so sparse sessions are priced as their
                    # own per-session fit would price them.
                    gp = GaussianProcess(kernel=opt.kernel, noise=opt.noise)
                    post = gp.fit(*opt.surrogate_dataset()).predict(pools[row])
                except GPFitError:
                    span.set(degenerate_fit=True)
                else:
                    mean[row], std[row] = post.mean, post.std
                    fitted[row] = True
            scores = expected_improvement(mean, std, np.array([[b.cost] for b in best]), self.xi)
            # A row with no finite score picks its first pool row.
            guided = np.isfinite(scores).any(axis=1)
            picks = np.nanargmax(np.where(guided[:, None], scores, 0.0), axis=1)
            z = pools[np.arange(len(pools)), picks]
            for row in np.flatnonzero(~fitted):
                z[row] = space.sample(rngs[row], size=1)[0]
            proposals = list(space.project_rows(z))
        obs.counter("fleet_gp_batches").inc()
        obs.histogram("fleet_gp_batch_size", edges=(1, 2, 4, 8, 16, 32, 64)).observe(
            len(optimizers)
        )
        return proposals
