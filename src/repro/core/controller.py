"""The HBO controller: per-activation optimization runs.

An *activation* (triggered by the event-based policy or explicitly) runs
Algorithm 1 for a fixed number of iterations — the paper seeds the BO
dataset D with 5 random configurations and then executes 15 guided
iterations "to ensure convergence" (§V-B) — and finally re-applies the
configuration with the lowest observed cost, which stays in force until
the next activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.edge.link import NetworkLink

import numpy as np

from repro.bo.acquisition import AcquisitionFunction
from repro.bo.kernels import Kernel, Matern
from repro.bo.optimizer import BayesianOptimizer
from repro.bo.space import HBOSpace
from repro.core.algorithm import HBOIteration, IterationResult, PendingEvaluation
from repro.core.allocation import count_lattice
from repro.core.system import MARSystem, Measurement
from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class HBOConfig:
    """Hyperparameters of an HBO deployment (paper defaults)."""

    w: float = 2.5  # Eq. 3 latency/quality weight (§V-B)
    n_initial: int = 5  # random configurations seeding D (§V-B)
    n_iterations: int = 15  # guided BO iterations per activation (§V-B)
    r_min: float = 0.1  # Constraint 10 lower bound on x
    kernel_length_scale: float = 1.0  # Eq. 7's l
    noise: float = 1e-3  # GP observation-noise variance
    latency_only: bool = False  # BNT's simplified cost
    #: An activation evaluates the configuration already running as its
    #: first dataset entry (the paper seeds D with random configs only;
    #: the incumbent guarantees an activation never settles on something
    #: worse than the status quo). Not a field: perfbench/workloads.py
    #: reads this name to size its budget.
    seed_incumbent: ClassVar[bool] = True
    #: Energy extension (off by default, beyond the paper): price the
    #: system's relative power draw into the BO cost with this weight —
    #: see :func:`repro.device.power.energy_aware_cost`.
    w_power: float = 0.0
    #: Surrogate tier: ``"exact"`` (paper behavior, full O(n³) refits) or
    #: ``"sparse"`` (auto-switch to a budgeted subset-of-data GP once the
    #: dataset outgrows ``gp_sparse_threshold`` — see ``docs/optimizer.md``).
    gp_tier: str = "exact"
    #: The sparse tier's switch point n* and support budget.
    gp_sparse_threshold: int = 64

    def __post_init__(self) -> None:
        for name in ("w", "w_power", "noise"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        length = self.kernel_length_scale
        if not (np.isfinite(length) and length > 0):
            raise ConfigurationError(f"kernel_length_scale must be finite and > 0, got {length}")
        if self.n_initial < 1:
            raise ConfigurationError(f"n_initial must be >= 1, got {self.n_initial}")
        if self.n_iterations < 0:
            raise ConfigurationError(
                f"n_iterations must be >= 0, got {self.n_iterations}"
            )
        if not 0.0 <= self.r_min < 1.0:
            raise ConfigurationError(f"r_min must be in [0, 1), got {self.r_min}")
        if self.gp_tier not in ("exact", "sparse"):
            raise ConfigurationError(
                f"gp_tier must be 'exact' or 'sparse', got {self.gp_tier!r}"
            )
        if self.gp_sparse_threshold < 4:
            raise ConfigurationError(
                f"gp_sparse_threshold must be >= 4, got {self.gp_sparse_threshold}"
            )

    @property
    def total_evaluations(self) -> int:
        """Evaluated configurations per activation (random + guided)."""
        return self.n_initial + self.n_iterations


@dataclass(frozen=True)
class PoolSettings:
    """Where a loop's guided step looks for its next point: uniform rows,
    local rows around the ``n_incumbents`` best observations, and — for a
    taskset with at most ``max_anchor_cells`` integer task-count splits —
    count-lattice anchors (docs/optimizer.md, "Candidate pools")."""

    n_candidates: int
    n_local: int
    n_incumbents: int
    max_anchor_cells: int


#: :class:`HBOController`'s pool: one activation at a time.
PAPER_POOL = PoolSettings(n_candidates=512, n_local=64, n_incumbents=3, max_anchor_cells=128)
#: The fleet's pool: B sessions per tick through one batched guided step.
FLEET_POOL = PoolSettings(n_candidates=256, n_local=32, n_incumbents=1, max_anchor_cells=0)


def build_iteration(
    system: MARSystem,
    config: HBOConfig,
    rng: np.random.Generator,
    pool: PoolSettings,
    kernel: Optional[Kernel] = None,
    acquisition: Optional[AcquisitionFunction] = None,
) -> HBOIteration:
    """One activation's Algorithm 1: a cold optimizer over the system's
    space that continues ``rng``, inside the :class:`HBOIteration` that
    prices its evaluations. Every :class:`HBOConfig` field lands here;
    ``kernel`` / ``acquisition`` replace Matérn-5/2 at
    ``kernel_length_scale`` and EI (the ablation benches). The anchors
    are the centers of the heuristic's rounding cells, which for small
    tasksets can be slivers that uniform rows miss.
    """
    space = HBOSpace(system.n_resources, r_min=config.r_min)
    m, n = len(system.taskset), space.n_resources
    anchors = None
    if m > 0 and math.comb(m + n - 1, n - 1) <= pool.max_anchor_cells:
        anchors = count_lattice(m, n, np.linspace(config.r_min, 1.0, 5))
    if kernel is None:
        kernel = Matern(length_scale=config.kernel_length_scale, nu=2.5)
    optimizer = BayesianOptimizer(
        space=space,
        n_initial=config.n_initial,
        kernel=kernel,
        acquisition=acquisition,
        n_candidates=pool.n_candidates,
        n_local=pool.n_local,
        n_incumbents=pool.n_incumbents,
        noise=config.noise,
        anchors=anchors,
        seed=rng,
        gp_tier=config.gp_tier,
        sparse_threshold=config.gp_sparse_threshold,
    )
    return HBOIteration(
        system, optimizer, w=config.w, latency_only=config.latency_only, w_power=config.w_power
    )


@dataclass
class HBORunResult:
    """The outcome of one activation."""

    iterations: List[IterationResult] = field(default_factory=list)
    final_measurement: Optional[Measurement] = None

    @property
    def best_index(self) -> int:
        if not self.iterations:
            raise ConfigurationError("activation produced no iterations")
        costs = [it.cost for it in self.iterations]
        return int(np.argmin(costs))

    @property
    def best(self) -> IterationResult:
        return self.iterations[self.best_index]

    def best_cost_trajectory(self) -> np.ndarray:
        """Running minimum cost per iteration (Fig. 4c / Fig. 7 series)."""
        return np.minimum.accumulate([it.cost for it in self.iterations])

    def consecutive_distances(self) -> np.ndarray:
        """Euclidean distance between consecutive BO points (Fig. 6a)."""
        pts = np.asarray([it.z for it in self.iterations])
        if pts.shape[0] < 2:
            return np.empty(0)
        return np.linalg.norm(np.diff(pts, axis=0), axis=1)


class HBOController:
    """Runs activations against a :class:`~repro.core.system.MARSystem`."""

    def __init__(
        self,
        system: MARSystem,
        config: Optional[HBOConfig] = None,
        kernel: Optional[Kernel] = None,
        acquisition: Optional[AcquisitionFunction] = None,
        offload_link: Optional["NetworkLink"] = None,
        seed: SeedLike = None,
    ) -> None:
        self.system = system
        self.config = config if config is not None else HBOConfig()
        self._kernel = kernel
        self._acquisition = acquisition
        self._offload_link = offload_link
        self._rng = make_rng(seed)
        self.activations: List[HBORunResult] = []
        #: Network accounting of the last offloaded activation (None when
        #: BO runs on-device, the default).
        self.last_offload_stats = None

    def _incumbent(self, space: HBOSpace) -> PendingEvaluation:
        """The running configuration as an evaluation that is already
        applied (see ``HBOConfig.seed_incumbent``): its counts as ``c``,
        the scene's triangle ratio clipped into the space as ``x``."""
        allocation = self.system.device.allocation
        counts = np.zeros(self.system.n_resources)
        resources = self.system.resources
        for resource in allocation.values():
            counts[resources.index(resource)] += 1
        proportions = counts / max(1, len(allocation))
        ratio = float(np.clip(self.system.scene.triangle_ratio, space.r_min, 1.0))
        z = space.project(space.join(proportions, ratio))
        return PendingEvaluation(
            z, proportions, ratio, allocation, self.system.scene.ratios()
        )

    def activate(self) -> HBORunResult:
        """One full activation: explore, then lock in the best config.

        The optimizer is fresh per activation (the paper re-initializes D
        with random configurations on each activation, §V-D).
        """
        cfg = self.config
        step = build_iteration(
            self.system, cfg, self._rng, PAPER_POOL, self._kernel, self._acquisition
        )
        if self._offload_link is not None:
            # §VI: run BO on an edge server; ask/tell cross the network.
            from repro.core.remote import RemoteOptimizerProxy

            step.optimizer = RemoteOptimizerProxy(  # type: ignore[assignment]
                step.optimizer, link=self._offload_link, seed=self._rng
            )
        result = HBORunResult()
        with obs.span(
            "hbo.activation",
            category="core",
            n_evaluations=cfg.total_evaluations,
            offloaded=self._offload_link is not None,
        ):
            if len(self.system.scene) > 0:
                incumbent = self._incumbent(step.optimizer.space)  # type: ignore[arg-type]
                result.iterations.append(step.finish(incumbent))
            for _ in range(cfg.total_evaluations):
                result.iterations.append(step.run_once())
        obs.counter("hbo_activations").inc()

        # Re-apply the lowest-cost configuration found (post-loop, §IV-D).
        best = result.best
        if cfg.latency_only:
            self.system.apply_uniform_ratio(best.allocation, 1.0)
        else:
            self.system.apply(best.allocation, best.triangle_ratio)
        result.final_measurement = self.system.measure()
        self.activations.append(result)
        if self._offload_link is not None:
            self.last_offload_stats = step.optimizer.stats  # type: ignore[attr-defined]
        return result
