"""The ask/tell Bayesian optimization loop used by HBO (Alg. 1, Line 1).

Each HBO activation runs a fresh optimizer: the dataset D is seeded with a
handful of random configurations (5 in the paper's experiments), then each
iteration (a) fits the GP posterior on D, (b) maximizes the acquisition
function over a candidate pool, and (c) returns the chosen configuration to
the caller, which evaluates it on the live system for one control period and
reports the measured cost back via :meth:`BayesianOptimizer.tell`.

The acquisition maximizer is derivative-free: it scores a pool of uniform
samples from the constrained space plus local perturbations of the best
incumbents, which respects the simplex constraint by construction (gradient
steps would leave it). :func:`guided_picks` is that step for B optimizers
at once; a guided :meth:`BayesianOptimizer.ask` is its one-row call and
the fleet's :class:`~repro.fleet.batch.SharedOptimizerService` its
B-row call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bo.acquisition import AcquisitionFunction, ExpectedImprovement
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import Kernel, Matern
from repro.bo.space import BoxSpace, HBOSpace
from repro.bo.sparse import select_support
from repro.errors import ConfigurationError, GPFitError
from repro.obs import runtime as obs
from repro.rng import SeedLike, make_rng

SpaceLike = Union[HBOSpace, BoxSpace]

GP_TIERS = ("exact", "sparse")


def candidate_pool(
    space: SpaceLike,
    rngs: Union[np.random.Generator, Sequence[np.random.Generator]],
    n_uniform: int,
    anchors: Optional[np.ndarray],
    incumbents: np.ndarray,
    n_local: int,
) -> np.ndarray:
    """``(B, C, d)`` pools ``[uniform; anchors; local]`` for B streams and
    ``(B, m, d)`` incumbents; one generator and ``(m, d)`` incumbents give
    that one session's ``(C, d)`` pool. Local rows: ``k = max(1, n_local
    // (2m))`` jitters per incumbent and scale, scale outer. Each session
    draws its uniform rows, then its jitter normals, from its own stream,
    in session order; one row-wise ``project_rows`` call projects them all.
    """
    if isinstance(rngs, np.random.Generator):
        return candidate_pool(space, [rngs], n_uniform, anchors, incumbents[None], n_local)[0]
    if len(rngs) != len(incumbents) or not len(rngs):
        raise ConfigurationError(f"{len(incumbents)} sessions, {len(rngs)} streams")
    m = incumbents.shape[1]
    k = max(1, n_local // (2 * m)) if n_local > 0 and m > 0 else 0
    centers = np.tile(np.repeat(incumbents, k, axis=1), (1, 2, 1))
    scales = np.repeat((0.05, 0.15), m * k)
    n_fixed = n_uniform + (0 if anchors is None else len(anchors))
    pools = np.empty((len(rngs), n_fixed + centers.shape[1], space.dim))
    jitter = []
    for pool, rng, rows in zip(pools, rngs, centers):
        pool[:n_uniform] = space.sample(rng, size=n_uniform)
        jitter.append(space.jitter_rows(rows, scales, rng))
    if anchors is not None:
        pools[:, n_uniform:n_fixed] = anchors
    pools[:, n_fixed:] = space.project_rows(np.vstack(jitter)).reshape(centers.shape)
    return pools


@dataclass(frozen=True)
class Observation:
    """One evaluated configuration and its measured cost."""

    z: np.ndarray
    cost: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.z)):
            raise ConfigurationError(f"observation point has non-finite entries: {self.z}")
        if not np.isfinite(self.cost):
            raise ConfigurationError(f"observation cost is not finite: {self.cost}")


@dataclass
class OptimizerState:
    """Introspectable record of an optimizer run (used by the Fig. 6 bench)."""

    observations: List[Observation] = field(default_factory=list)
    proposals: List[np.ndarray] = field(default_factory=list)

    def best(self) -> Observation:
        if not self.observations:
            raise ConfigurationError("no observations recorded yet")
        return min(self.observations, key=lambda o: o.cost)

    def best_cost_trajectory(self) -> np.ndarray:
        """Running minimum of the observed cost, one entry per observation."""
        if not self.observations:
            return np.empty(0)
        return np.minimum.accumulate([o.cost for o in self.observations])

    def consecutive_distances(self) -> np.ndarray:
        """Euclidean distance between consecutive proposals (Fig. 6a)."""
        if len(self.proposals) < 2:
            return np.empty(0)
        pts = np.asarray(self.proposals)
        return np.linalg.norm(np.diff(pts, axis=0), axis=1)


class BayesianOptimizer:
    """Sample-efficient minimizer of a noisy black-box cost over a
    constrained space.

    Parameters
    ----------
    space:
        Search space providing ``sample`` / ``project[_rows]`` /
        ``jitter_rows`` / ``contains`` (e.g. :class:`~repro.bo.space.HBOSpace`).
    n_initial:
        Number of random configurations used to seed the dataset before
        the GP-guided phase starts (the paper uses 5).
    kernel / acquisition:
        Default to the paper's choices: Matérn-5/2 with length scale 1, and
        Expected Improvement.
    n_candidates:
        Size of the uniform candidate pool per ask.
    n_local:
        Number of perturbed candidates generated around the incumbents.
    n_incumbents:
        How many of the best observations the local candidates surround.
    noise:
        GP observation-noise variance; HBO cost observations are runtime
        measurements and genuinely noisy.
    gp_tier:
        ``"exact"`` (default) refits the full O(n³) GP every guided ask;
        ``"sparse"`` fits the same GP on a budgeted support subset
        (:meth:`surrogate_dataset`) once the dataset outgrows
        ``sparse_threshold``. Below the threshold the two tiers run the
        identical exact code path, so small-n behavior — and every
        tier-off run — is bit-for-bit unchanged.
    sparse_threshold:
        The auto-switch point n* and the sparse tier's support budget:
        fits at n ≤ n* are exact, larger ones condition on an n*-point
        support set chosen by :func:`~repro.bo.sparse.select_support`.
    """

    def __init__(
        self,
        space: SpaceLike,
        n_initial: int = 5,
        kernel: Optional[Kernel] = None,
        acquisition: Optional[AcquisitionFunction] = None,
        n_candidates: int = 512,
        n_local: int = 64,
        n_incumbents: int = 3,
        noise: float = 1e-3,
        anchors: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        gp_tier: str = "exact",
        sparse_threshold: int = 64,
    ) -> None:
        if n_initial < 1:
            raise ConfigurationError(f"n_initial must be >= 1, got {n_initial}")
        if n_candidates < 1:
            raise ConfigurationError(f"n_candidates must be >= 1, got {n_candidates}")
        if n_local < 0:
            raise ConfigurationError(f"n_local must be >= 0, got {n_local}")
        if n_incumbents < 1:
            raise ConfigurationError(f"n_incumbents must be >= 1, got {n_incumbents}")
        if not (np.isfinite(noise) and noise >= 0):
            raise ConfigurationError(f"noise must be finite and >= 0, got {noise}")
        if gp_tier not in GP_TIERS:
            raise ConfigurationError(
                f"gp_tier must be one of {GP_TIERS}, got {gp_tier!r}"
            )
        if sparse_threshold < 4:
            raise ConfigurationError(
                f"sparse_threshold must be >= 4, got {sparse_threshold}"
            )
        self.gp_tier = gp_tier
        self.sparse_threshold = int(sparse_threshold)
        self.space = space
        self.n_initial = int(n_initial)
        self.kernel = kernel if kernel is not None else Matern(length_scale=1.0, nu=2.5)
        self.acquisition = acquisition if acquisition is not None else ExpectedImprovement()
        self.n_candidates = int(n_candidates)
        self.n_local = int(n_local)
        self.n_incumbents = int(n_incumbents)
        self.noise = float(noise)
        if anchors is not None:
            anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
            # Domain-informed cells (e.g. the count-lattice cells the HBO
            # heuristic rounds to) that every pool scores, so a cell that is
            # a narrow sliver of the simplex is never missed. Zero rows
            # means no anchors; a wrong width raises here.
            anchors = space.project_rows(anchors) if len(anchors) else None
        self.anchors = anchors
        self._rng = make_rng(seed)
        self.state = OptimizerState()
        self._pending: Optional[np.ndarray] = None
        #: Number of observations injected by :meth:`warm_start` (they sit
        #: at the front of ``state.observations``).
        self.n_warm = 0

    # ------------------------------------------------------------------ API

    @property
    def n_observations(self) -> int:
        return len(self.state.observations)

    @property
    def in_initial_phase(self) -> bool:
        """True while the optimizer is still collecting random seed points."""
        return self.n_observations < self.n_initial

    @property
    def warm_started(self) -> bool:
        """True when the dataset was seeded by :meth:`warm_start`."""
        return self.n_warm > 0

    def warm_start(self, observations: Sequence[Observation]) -> int:
        """Seed the dataset with observations transferred from a donor run.

        Cross-session warm starting: a new optimizer facing an environment
        similar to one already solved can start from the donor's (z, cost)
        pairs instead of cold random initialization. Injected observations
        count toward ``n_initial``, so a warm start with at least
        ``n_initial`` points skips the random phase entirely and the first
        ``ask`` is already GP-guided.

        Must be called before the first ``ask``/``tell``; donor points are
        projected into this optimizer's space. Returns the number of
        observations injected.
        """
        if self.state.observations or self._pending is not None:
            raise ConfigurationError(
                "warm_start() must be called before the first ask()/tell()"
            )
        for donor in observations:
            z = np.asarray(donor.z, dtype=float).ravel()
            if not self.space.contains(z, tol=1e-6):
                z = self.space.project(z)
            self.state.observations.append(Observation(z=z, cost=float(donor.cost)))
        self.n_warm = len(self.state.observations)
        obs.counter("bo_warm_observations").inc(self.n_warm)
        return self.n_warm

    def ask(self) -> np.ndarray:
        """Propose the next configuration to evaluate."""
        if self._pending is not None:
            raise ConfigurationError(
                "ask() called twice without an intervening tell(); "
                "report the cost of the previous proposal first"
            )
        if self.in_initial_phase:
            obs.counter("bo_asks", phase="initial").inc()
            z = self.space.sample(self._rng, size=1)[0]
        else:
            obs.counter("bo_asks", phase="guided").inc()
            with obs.span("bo.propose", category="bo", n_obs=self.n_observations):
                gp: Optional[GaussianProcess]
                try:
                    gp = self._fit_surrogate()
                except GPFitError:
                    # Degenerate dataset (e.g. identical costs everywhere):
                    # the guided step falls back to a uniform row.
                    gp = None
                z = guided_picks([self], [gp], [self._rng])[0]
        self._pending = z
        self.state.proposals.append(z.copy())
        return z.copy()

    def tell(self, z: np.ndarray, cost: float) -> None:
        """Record the measured ``cost`` of configuration ``z``."""
        z = np.asarray(z, dtype=float).ravel()
        if not self.space.contains(z, tol=1e-6):
            z = self.space.project(z)
        self.state.observations.append(Observation(z=z, cost=float(cost)))
        self._pending = None

    def best(self) -> Observation:
        """Lowest-cost observation so far."""
        return self.state.best()

    @property
    def sparse_active(self) -> bool:
        """True when the next surrogate fit will run on the sparse tier."""
        return (
            self.gp_tier == "sparse"
            and self.n_observations > self.sparse_threshold
        )

    def surrogate_dataset(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (x, y) dataset the surrogate conditions on *right now*.

        Exact tier (or sparse tier below n*): every observation. Sparse
        tier above n*: the deterministic support subset
        (:func:`~repro.bo.sparse.select_support`). Both the optimizer's
        own fit and the fleet's
        :class:`~repro.fleet.batch.SharedOptimizerService` fit the exact
        GP on it.
        """
        x = np.asarray([o.z for o in self.state.observations])
        y = np.asarray([o.cost for o in self.state.observations])
        if self.sparse_active:
            support = select_support(y, self.sparse_threshold, seed=0)
            return x[support], y[support]
        return x, y

    # ------------------------------------------------------------ internals

    def _fit_surrogate(self) -> GaussianProcess:
        """The exact GP on :meth:`surrogate_dataset`.

        The sparse-tier probes fire only past the n* switch, so tier-off
        runs (and sparse runs still below n*) emit byte-identical traces
        and snapshots.
        """
        sparse = {"tier": "sparse"} if self.sparse_active else {}
        with obs.span("bo.gp_fit", category="bo", n_obs=self.n_observations, **sparse):
            x, y = self.surrogate_dataset()
            fitted = GaussianProcess(kernel=self.kernel, noise=self.noise).fit(x, y)
        obs.counter("bo_gp_fits").inc()
        if sparse:
            obs.counter("bo_gp_sparse_fits").inc()
            obs.histogram("bo_sparse_support_size").observe(float(len(y)))
        return fitted


def _pool_settings(optimizer: BayesianOptimizer) -> Tuple[object, ...]:
    anchors = optimizer.anchors
    return (
        optimizer.n_candidates,
        optimizer.n_local,
        optimizer.n_incumbents,
        None if anchors is None else (anchors.shape, anchors.tobytes()),
        optimizer.acquisition,
    )


def guided_picks(
    optimizers: Sequence[BayesianOptimizer],
    surrogates: Sequence[Optional[GaussianProcess]],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """The guided step (Alg. 1, Line 1) for B optimizers of one space:
    ``(B, d)`` unprojected picks.

    Each optimizer's :func:`candidate_pool` is drawn from its own stream
    around its ``n_incumbents`` best observations; each fitted surrogate
    predicts its own pool into ``(B, C)`` moments, one acquisition call
    scores them all, and each row takes its ``nanargmax`` (its first pool
    row when no score is finite). A ``None`` surrogate — a degenerate
    fit — then draws one uniform row from its stream instead. Every pass
    is row-wise, so each pick is bitwise the one its optimizer gets
    alone. The pool size, local rows, incumbent count, anchors and
    acquisition come from the optimizers and must agree across rows, and
    so must the number of incumbents each row has (``n_incumbents`` or
    its observation count, whichever is smaller).
    """
    first = optimizers[0]
    if any(_pool_settings(opt) != _pool_settings(first) for opt in optimizers[1:]):
        raise ConfigurationError(
            "guided picks need one n_candidates, n_local, n_incumbents, "
            "anchors and acquisition across the batch"
        )
    n = first.n_incumbents
    if n > 1 and len({min(n, opt.n_observations) for opt in optimizers}) > 1:
        raise ConfigurationError(
            "guided picks need one incumbent count across the batch, got "
            f"{[min(n, opt.n_observations) for opt in optimizers]} "
            f"(n_incumbents={n})"
        )
    space = first.space
    best_y = np.array([[opt.best().cost] for opt in optimizers])
    incumbents = [
        [o.z for o in sorted(opt.state.observations, key=lambda o: o.cost)[:n]]
        for opt in optimizers
    ]
    pools = candidate_pool(
        space, rngs, first.n_candidates, first.anchors, np.array(incumbents), first.n_local
    )
    mean, std = np.full((2,) + pools.shape[:2], np.nan)
    for row, gp in enumerate(surrogates):
        if gp is not None:
            post = gp.predict(pools[row])
            mean[row], std[row] = post.mean, post.std
    scores = first.acquisition.score(mean, std, best_y)
    guided = np.isfinite(scores).any(axis=1)
    picks = np.nanargmax(np.where(guided[:, None], scores, 0.0), axis=1)
    z = pools[np.arange(len(pools)), picks]
    for row, gp in enumerate(surrogates):
        if gp is None:
            z[row] = space.sample(rngs[row], size=1)[0]
    return z
