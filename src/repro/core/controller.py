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
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.edge.link import NetworkLink

import numpy as np

from repro.bo.acquisition import AcquisitionFunction, ExpectedImprovement
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
    #: Evaluate the configuration already running as the first dataset
    #: entry of each activation. The paper seeds D with random configs
    #: only; including the incumbent guarantees an activation never
    #: settles on something worse than the status quo.
    seed_incumbent: bool = True
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

    def _count_lattice_anchors(self, space: HBOSpace) -> Optional[np.ndarray]:
        """Candidate anchors at the centers of the heuristic's rounding
        cells: one proportion vector per integer task-count split, crossed
        with a coarse triangle-ratio grid. For small tasksets some count
        cells are narrow slivers of the simplex that uniform sampling can
        miss entirely; anchoring guarantees the acquisition scores them.
        """
        m = len(self.system.taskset)
        n = space.n_resources
        if m == 0 or math.comb(m + n - 1, n - 1) > 128:
            return None  # large tasksets: sampling covers the cells
        return count_lattice(m, n, np.linspace(self.config.r_min, 1.0, 5))

    def _build_optimizer(self) -> BayesianOptimizer:
        cfg = self.config
        space = HBOSpace(self.system.n_resources, r_min=cfg.r_min)
        return BayesianOptimizer(
            space=space,
            n_initial=cfg.n_initial,
            kernel=self._kernel
            if self._kernel is not None
            else Matern(length_scale=cfg.kernel_length_scale, nu=2.5),
            acquisition=self._acquisition
            if self._acquisition is not None
            else ExpectedImprovement(),
            noise=cfg.noise,
            anchors=self._count_lattice_anchors(space),
            seed=self._rng,
            gp_tier=cfg.gp_tier,
            sparse_threshold=cfg.gp_sparse_threshold,
        )

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
        optimizer = self._build_optimizer()
        if self._offload_link is not None:
            # §VI: run BO on an edge server; ask/tell cross the network.
            from repro.core.remote import RemoteOptimizerProxy

            optimizer = RemoteOptimizerProxy(
                optimizer, link=self._offload_link, seed=self._rng
            )
        step = HBOIteration(
            self.system,
            optimizer,
            w=cfg.w,
            latency_only=cfg.latency_only,
            w_power=cfg.w_power,
        )
        result = HBORunResult()
        with obs.span(
            "hbo.activation",
            category="core",
            n_evaluations=cfg.total_evaluations,
            offloaded=self._offload_link is not None,
        ):
            if cfg.seed_incumbent and len(self.system.scene) > 0:
                incumbent = self._incumbent(optimizer.space)  # type: ignore[arg-type]
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
            self.last_offload_stats = optimizer.stats
        return result
