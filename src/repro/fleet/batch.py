"""Guided proposals for a fleet tick, priced with the one exact GP.

A fleet tick needs one guided proposal per active session.
:class:`SharedOptimizerService` packages this as "give me B optimizers,
get B proposals", which is what :class:`~repro.fleet.scheduler.
FleetScheduler` calls once per tick. Each session is priced exactly as
the paper's single-device loop prices it:

- its pool comes from :func:`~repro.bo.optimizer.candidate_pool` around
  its best observation, drawn from its own stream (every pool is drawn
  first, in session order);
- a :class:`~repro.bo.gp.GaussianProcess` with the session's own kernel
  and noise is fit on :meth:`~repro.bo.optimizer.BayesianOptimizer.
  surrogate_dataset` and queried on that pool;
- :func:`~repro.bo.acquisition.expected_improvement` scores the pool and
  the best row, projected into the space, is the proposal.

A fleet tick averages a handful of guided sessions with n ≤ 30
observations each, where one small Cholesky per session is as fast as any
padded batch, so the fleet keeps no second copy of the GP math.
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
    """One-tick proposal engine: B guided optimizers in, B proposals out.

    Pools come from :func:`~repro.bo.optimizer.candidate_pool` around each
    session's best observation, without anchors.
    """

    def __init__(
        self,
        xi: float = 0.01,
        n_candidates: int = 256,
        n_local: int = 32,
    ) -> None:
        if n_candidates < 1:
            raise FleetError(f"n_candidates must be >= 1, got {n_candidates}")
        if n_local < 0:
            raise FleetError(f"n_local must be >= 0, got {n_local}")
        self.xi = float(xi)
        self.n_candidates = int(n_candidates)
        self.n_local = int(n_local)

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
        """Guided proposals for every optimizer, one exact GP fit each.

        All optimizers must search an :class:`~repro.bo.space.HBOSpace`
        of one shared dimension and have at least one observation. A
        session whose fit is degenerate, or whose scores are all
        non-finite, falls back to uniform exploration on its own stream
        (as the single-session optimizer does); the other sessions keep
        their guided pick.
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
        pools = [self._candidates(opt, rng) for opt, rng in zip(optimizers, rngs)]
        proposals: List[np.ndarray] = []
        with obs.span(
            "fleet.batched_gp", category="fleet", n_sessions=len(optimizers)
        ) as span:
            for opt, rng, pool in zip(optimizers, rngs, pools):
                try:
                    # surrogate_dataset() is the support subset on the
                    # sparse tier, so sparse sessions are priced as their
                    # own per-session fit would price them.
                    gp = GaussianProcess(kernel=opt.kernel, noise=opt.noise)
                    post = gp.fit(*opt.surrogate_dataset()).predict(pool)
                except GPFitError:
                    span.set(degenerate_fit=True)
                    scores = None
                else:
                    scores = expected_improvement(
                        post.mean, post.std, opt.best().cost, self.xi
                    )
                if scores is None or not np.any(np.isfinite(scores)):
                    z = opt.space.sample(rng, size=1)[0]
                else:
                    z = pool[int(np.nanargmax(scores))]
                proposals.append(opt.space.project(z))
        obs.counter("fleet_gp_batches").inc()
        obs.histogram("fleet_gp_batch_size", edges=(1, 2, 4, 8, 16, 32, 64)).observe(
            len(optimizers)
        )
        return proposals
