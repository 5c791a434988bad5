"""Guided proposals for a fleet tick, priced with the one exact GP.

:class:`SharedOptimizerService` turns the B guided optimizers of one
space into B proposals, once per fleet tick and space dimension. Each
session fits its own :class:`~repro.bo.gp.GaussianProcess` on
:meth:`~repro.bo.optimizer.BayesianOptimizer.surrogate_dataset`; the
rest is the paper loop's own guided step,
:func:`~repro.bo.optimizer.guided_picks`, called once with B rows around
each session's best observations, and one ``project_rows`` call over the
picks. Every pass is row-wise, so each proposal is bitwise the one the
session would get alone. At n ≤ 30, one small Cholesky per session is
as fast as a padded batch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bo.gp import GaussianProcess
from repro.bo.optimizer import BayesianOptimizer, guided_picks
from repro.bo.space import HBOSpace
from repro.errors import FleetError, GPFitError
from repro.obs import runtime as obs


class SharedOptimizerService:
    """One-tick proposal engine: B guided optimizers in, B proposals out."""

    def propose(
        self,
        optimizers: Sequence[BayesianOptimizer],
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        """Guided proposals for every optimizer, one exact GP fit each.

        All optimizers must search an :class:`~repro.bo.space.HBOSpace`
        of one shared dimension and ``r_min``, share their pool settings,
        and have at least one observation. As in the single-session
        optimizer, a session whose fit is degenerate falls back to
        uniform exploration on its own stream, and one whose scores are
        all non-finite takes its first candidate; the other sessions keep
        their guided pick.
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
        with obs.span(
            "fleet.batched_gp", category="fleet", n_sessions=len(optimizers)
        ) as span:
            surrogates: List[Optional[GaussianProcess]] = []
            for opt in optimizers:
                try:
                    gp = GaussianProcess(kernel=opt.kernel, noise=opt.noise)
                    surrogates.append(gp.fit(*opt.surrogate_dataset()))
                except GPFitError:
                    span.set(degenerate_fit=True)
                    surrogates.append(None)
            z = guided_picks(optimizers, surrogates, rngs)
            proposals = list(space.project_rows(z))
        obs.counter("fleet_gp_batches").inc()
        obs.histogram("fleet_gp_batch_size", edges=(1, 2, 4, 8, 16, 32, 64)).observe(
            len(optimizers)
        )
        return proposals
