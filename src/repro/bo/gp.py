"""Exact Gaussian-process regression with a Cholesky posterior.

The surrogate model behind HBO's Bayesian optimization (Eq. 6): after
observing a dataset D_t = {(z_τ, φ_τ)}, the GP defines for every candidate
configuration z a Gaussian posterior N(μ_t(z), σ_t²(z)) computed from the
kernel matrix. We standardize targets internally (zero mean, unit variance)
so kernel amplitude hyperparameters stay in a sane range regardless of the
cost scale, and escalate diagonal jitter when the covariance matrix is
numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.bo.kernels import Kernel, Matern, _as_2d
from repro.errors import GPFitError

_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


def _cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``K⁻¹ b`` from the lower Cholesky factor of ``K``: LAPACK ``dpotrs``
    called directly (``scipy.linalg.cho_solve`` gives the same bits but
    costs more per call than the solve itself at these sizes)."""
    solution, info = dpotrs(factor, b, lower=1)
    if info != 0:
        raise GPFitError(f"dpotrs rejected argument {-info}")
    return solution


@dataclass(frozen=True)
class GPPosterior:
    """Posterior mean and standard deviation at a batch of query points."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape:
            raise GPFitError(
                f"mean/std shape mismatch: {self.mean.shape} vs {self.std.shape}"
            )


class GaussianProcess:
    """Exact GP regression: fit on (X, y), predict N(μ, σ²) pointwise.

    Every :meth:`fit` factorizes the full (n, n) covariance in O(n³). The
    optimizer's sparse tier fits this same class on a budgeted support
    subset (:func:`~repro.bo.sparse.select_support`), which keeps fit
    cost flat in n; `docs/optimizer.md` documents the trade-off.

    Parameters
    ----------
    kernel:
        Covariance kernel; defaults to the paper's Matérn-5/2 with l = 1.
    noise:
        Observation noise variance added to the covariance diagonal.
        HBO's cost observations are genuinely noisy (they are runtime
        measurements), so a non-trivial default is used.
    normalize_y:
        Standardize the targets before fitting and undo on prediction.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise: float = 1e-4,
        normalize_y: bool = True,
    ) -> None:
        if not noise >= 0:
            raise GPFitError(f"noise must be >= 0, got {noise}")
        self.kernel = kernel if kernel is not None else Matern(length_scale=1.0, nu=2.5)
        self.noise = float(noise)
        self.normalize_y = bool(normalize_y)
        self._x_train: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: Optional[np.ndarray] = None
        #: Lower Cholesky factor of the covariance (upper triangle unused).
        self._cho: Optional[np.ndarray] = None

    @property
    def is_fit(self) -> bool:
        return self._x_train is not None

    @property
    def n_observations(self) -> int:
        return 0 if self._x_train is None else int(self._x_train.shape[0])

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations ``x`` (n, d) and ``y`` (n,)."""
        x = _as_2d(x)
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise GPFitError(
                f"X has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] == 0:
            raise GPFitError("cannot fit a GP on zero observations")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise GPFitError("GP training data contains NaN or inf")

        if self.normalize_y:
            self._y_mean = float(np.mean(y))
            spread = float(np.std(y))
            self._y_std = spread if spread > 1e-12 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        y_n = (y - self._y_mean) / self._y_std

        k = self.kernel(x, x)
        k[np.diag_indices_from(k)] += self.noise
        for jitter in _JITTERS:
            # dpotrf: info > 0 is a leading minor that is not positive
            # definite (try the next jitter), info < 0 a bad argument.
            factor, info = dpotrf(k + jitter * np.eye(k.shape[0]), lower=1, clean=0)
            if info < 0:
                raise GPFitError(f"dpotrf rejected argument {-info}")
            if info == 0:
                break
        else:
            raise GPFitError(
                f"covariance matrix not positive definite after jitter "
                f"escalation up to {_JITTERS[-1]}: {info}-th leading minor"
            )
        self._cho = factor
        self._alpha = _cho_solve(factor, y_n)
        self._y_train_normalized = y_n
        self._x_train = x
        self._y_raw = y.copy()
        return self

    def predict(self, x: np.ndarray) -> GPPosterior:
        """Posterior N(μ(x), σ²(x)) at each row of ``x``."""
        if not self.is_fit:
            raise GPFitError("predict() called before fit()")
        x = _as_2d(x)
        k_star = self.kernel(x, self._x_train)  # (m, n)
        mean_n = k_star @ self._alpha
        # var = k(x,x) - k* K^{-1} k*^T, diagonal only.
        v = _cho_solve(self._cho, k_star.T)  # (n, m)
        var_n = self.kernel.diag(x) - np.sum(k_star.T * v, axis=0)
        var_n = np.clip(var_n, 1e-12, None)
        mean = mean_n * self._y_std + self._y_mean
        std = np.sqrt(var_n) * self._y_std
        return GPPosterior(mean=mean, std=std)

    def log_marginal_likelihood(self) -> float:
        """Log p(y | X) of the fitted model (standardized targets)."""
        if not self.is_fit:
            raise GPFitError("log_marginal_likelihood() called before fit()")
        n = self.n_observations
        l_mat = self._cho
        data_fit = float(self._y_train_normalized @ self._alpha)
        log_det = 2.0 * float(np.sum(np.log(np.diag(l_mat))))
        return -0.5 * data_fit - 0.5 * log_det - 0.5 * n * np.log(2.0 * np.pi)

    def optimized_over_length_scales(
        self,
        x: np.ndarray,
        y: np.ndarray,
        length_scales: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    ) -> "GaussianProcess":
        """Model selection: refit over a length-scale grid, keep the fit
        with the highest log marginal likelihood.

        The paper fixes l = 1 (Eq. 7); this utility exists for deployments
        whose cost surface is rougher or smoother than the paper's. Only
        Matérn/RBF kernels (anything exposing ``length_scale``, ``nu``/
        ``variance``) are supported.
        """
        if not length_scales:
            raise GPFitError("length_scales grid must be non-empty")
        base = self.kernel
        best_gp: Optional[GaussianProcess] = None
        best_lml = -np.inf
        for length_scale in length_scales:
            if length_scale <= 0:
                raise GPFitError(f"length scales must be > 0, got {length_scale}")
            if isinstance(base, Matern):
                kernel: Kernel = Matern(
                    length_scale=length_scale, nu=base.nu, variance=base.variance
                )
            elif hasattr(base, "variance"):
                kernel = type(base)(
                    length_scale=length_scale, variance=base.variance  # type: ignore[call-arg]
                )
            else:
                raise GPFitError(
                    f"cannot vary length scale of kernel {type(base).__name__}"
                )
            candidate = GaussianProcess(
                kernel=kernel, noise=self.noise, normalize_y=self.normalize_y
            ).fit(x, y)
            lml = candidate.log_marginal_likelihood()
            if lml > best_lml:
                best_gp, best_lml = candidate, lml
        assert best_gp is not None
        return best_gp

    def sample_posterior(
        self, x: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw joint posterior function samples at rows of ``x``.

        Returns an array of shape ``(n_samples, len(x))``. Used by tests to
        check posterior consistency, and available for Thompson-sampling
        style extensions.
        """
        if not self.is_fit:
            raise GPFitError("sample_posterior() called before fit()")
        x = _as_2d(x)
        k_star = self.kernel(x, self._x_train)
        mean_n = k_star @ self._alpha
        v = _cho_solve(self._cho, k_star.T)
        cov_n = self.kernel(x, x) - k_star @ v
        cov_n += 1e-10 * np.eye(cov_n.shape[0])
        draws = rng.multivariate_normal(mean_n, cov_n, size=n_samples, method="cholesky")
        return draws * self._y_std + self._y_mean
