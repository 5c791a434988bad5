"""Bayesian optimization engine (from scratch, numpy/scipy only).

This package implements the optimizer the paper builds HBO on (§IV-C):

- :mod:`repro.bo.kernels` — stationary covariance kernels, including the
  Matérn-5/2 kernel of Eq. 7.
- :mod:`repro.bo.gp` — Gaussian-process regression with exact Cholesky
  posterior and jitter escalation.
- :mod:`repro.bo.acquisition` — Expected Improvement (the paper's choice),
  plus Probability of Improvement and Lower Confidence Bound for the
  ablation study.
- :mod:`repro.bo.space` — the HBO search space: a probability simplex for
  the per-resource task proportions joined with a box for the triangle
  ratio (Constraints 8–10).
- :mod:`repro.bo.optimizer` — the ask/tell optimization loop with a random
  initialization phase, and the one guided proposal step it shares with
  the fleet.
- :mod:`repro.bo.sparse` — the scalable GP tier's deterministic, seeded
  support selection (``docs/optimizer.md``).
"""

from repro.bo.acquisition import (
    AcquisitionFunction,
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
    make_acquisition,
)
from repro.bo.gp import GaussianProcess, GPPosterior
from repro.bo.kernels import RBF, Kernel, Matern
from repro.bo.optimizer import BayesianOptimizer, Observation
from repro.bo.space import BoxSpace, HBOSpace, SimplexSpace
from repro.bo.sparse import select_support

__all__ = [
    "AcquisitionFunction",
    "BayesianOptimizer",
    "BoxSpace",
    "ExpectedImprovement",
    "GaussianProcess",
    "GPPosterior",
    "HBOSpace",
    "Kernel",
    "LowerConfidenceBound",
    "Matern",
    "Observation",
    "ProbabilityOfImprovement",
    "RBF",
    "SimplexSpace",
    "make_acquisition",
    "select_support",
]
