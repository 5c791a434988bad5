"""Acquisition functions for minimization-flavoured Bayesian optimization.

The paper selects Expected Improvement (EI) after comparing it against
Probability of Improvement ("too conservative during exploration") and
Lower Confidence Bound ("requires tuning a dedicated exploration/
exploitation parameter") — §IV-C. All three are implemented so the
ablation bench can reproduce that comparison.

Conventions: the surrogate models a *cost* φ to be **minimized**; each
acquisition returns a score to be **maximized** over candidates. Every
acquisition scores posterior moments elementwise (:meth:`AcquisitionFunction.score`),
so a ``(B, C)`` batch of pools takes one call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

import numpy as np
from scipy.special import ndtr

from repro.bo.gp import GaussianProcess
from repro.errors import ConfigurationError


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best_y: Union[float, np.ndarray], xi: float
) -> np.ndarray:
    """Closed-form EI (see :class:`ExpectedImprovement`), elementwise.

    ``best_y`` is a scalar incumbent, or a ``(B, 1)`` column of per-session
    incumbents for a ``(B, C)`` batch of pools.
    """
    improvement = best_y - mean - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        u = improvement / std
        # ndtr(u) and exp(-u²/2)/√(2π) are exactly scipy.stats.norm's cdf
        # and pdf, without its per-call argument handling.
        ei = improvement * ndtr(u) + std * (np.exp(-u**2 / 2.0) / 2.5066282746310002)
    ei = np.where(std > 1e-12, ei, np.maximum(improvement, 0.0))
    return np.clip(ei, 0.0, None)


class AcquisitionFunction(ABC):
    """Scores candidate points from their posterior moments.

    Two acquisitions are equal when they are the same kind with the same
    parameters (``xi`` / ``kappa``), so optimizers built apart can share
    one batched :func:`~repro.bo.optimizer.guided_picks` call.
    """

    name: str = "base"

    @abstractmethod
    def score(
        self, mean: np.ndarray, std: np.ndarray, best_y: Union[float, np.ndarray]
    ) -> np.ndarray:
        """Score each posterior ``(mean, std)`` elementwise; larger is better.

        ``best_y`` is the incumbent (lowest observed cost so far), or a
        ``(B, 1)`` column of incumbents for ``(B, C)`` moments.
        """

    def __call__(
        self, gp: GaussianProcess, x: np.ndarray, best_y: float
    ) -> np.ndarray:
        """Score each row of ``x`` under the fitted ``gp``."""
        post = gp.predict(x)
        return self.score(post.mean, post.std, best_y)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)


class ExpectedImprovement(AcquisitionFunction):
    """EI(z) = E[max(0, best_y - φ(z))], with an exploration margin ξ.

    The closed form under a Gaussian posterior N(μ, σ²):

        EI = (best - μ - ξ) Φ(u) + σ ϕ(u),   u = (best - μ - ξ) / σ
    """

    name = "ei"

    def __init__(self, xi: float = 0.01) -> None:
        if not (np.isfinite(xi) and xi >= 0):
            raise ConfigurationError(f"xi must be finite and >= 0, got {xi}")
        self.xi = float(xi)

    def score(
        self, mean: np.ndarray, std: np.ndarray, best_y: Union[float, np.ndarray]
    ) -> np.ndarray:
        return expected_improvement(mean, std, best_y, self.xi)


class ProbabilityOfImprovement(AcquisitionFunction):
    """PI(z) = P[φ(z) < best_y - ξ]; exploitation-heavy baseline."""

    name = "pi"

    def __init__(self, xi: float = 0.01) -> None:
        if not (np.isfinite(xi) and xi >= 0):
            raise ConfigurationError(f"xi must be finite and >= 0, got {xi}")
        self.xi = float(xi)

    def score(
        self, mean: np.ndarray, std: np.ndarray, best_y: Union[float, np.ndarray]
    ) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (best_y - mean - self.xi) / std
        pi = ndtr(u)
        return np.where(std > 1e-12, pi, (mean < best_y - self.xi) * 1.0)


class LowerConfidenceBound(AcquisitionFunction):
    """LCB(z) = -(μ - κ σ); minimizing the optimistic bound of the cost.

    κ is the exploration/exploitation knob the paper calls out as a tuning
    burden.
    """

    name = "lcb"

    def __init__(self, kappa: float = 2.0) -> None:
        if not (np.isfinite(kappa) and kappa >= 0):
            raise ConfigurationError(f"kappa must be finite and >= 0, got {kappa}")
        self.kappa = float(kappa)

    def score(
        self, mean: np.ndarray, std: np.ndarray, best_y: Union[float, np.ndarray]
    ) -> np.ndarray:
        return -(mean - self.kappa * std)


def make_acquisition(
    name: str, xi: float = 0.01, kappa: float = 2.0
) -> AcquisitionFunction:
    """Construct an acquisition function by name: ``ei | pi | lcb``."""
    key = name.lower()
    if key == "ei":
        return ExpectedImprovement(xi=xi)
    if key == "pi":
        return ProbabilityOfImprovement(xi=xi)
    if key == "lcb":
        return LowerConfidenceBound(kappa=kappa)
    raise ConfigurationError(
        f"unknown acquisition {name!r}; expected 'ei', 'pi', or 'lcb'"
    )
