"""Unit tests for repro.bo.acquisition."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from repro.bo.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
    expected_improvement,
    make_acquisition,
)
from repro.bo.gp import GaussianProcess, GPPosterior
from repro.bo.kernels import Matern
from repro.errors import ConfigurationError
from repro.rng import make_rng

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fitted_gp(rng):
    x = np.linspace(0, 1, 12)[:, None]
    y = (x[:, 0] - 0.6) ** 2  # minimum at 0.6
    return GaussianProcess(kernel=Matern(length_scale=0.3), noise=1e-6).fit(x, y)


class TestExpectedImprovement:
    def test_non_negative_everywhere(self, fitted_gp, rng):
        ei = ExpectedImprovement()
        scores = ei(fitted_gp, rng.uniform(-1, 2, size=(50, 1)), best_y=0.05)
        assert np.all(scores >= 0)

    def test_prefers_region_near_minimum(self, fitted_gp):
        ei = ExpectedImprovement(xi=0.0)
        candidates = np.array([[0.6], [0.05]])
        scores = ei(fitted_gp, candidates, best_y=0.1)
        assert scores[0] > scores[1]

    def test_zero_when_no_improvement_possible(self, fitted_gp):
        """With an incumbent far below anything achievable, EI ≈ 0."""
        ei = ExpectedImprovement()
        scores = ei(fitted_gp, np.array([[0.6]]), best_y=-10.0)
        assert scores[0] == pytest.approx(0.0, abs=1e-6)

    def test_higher_uncertainty_raises_ei_at_equal_mean(self, rng):
        x = np.array([[0.0], [1.0]])
        gp = GaussianProcess(kernel=Matern(length_scale=0.2), noise=1e-6)
        gp.fit(x, np.array([1.0, 1.0]))
        ei = ExpectedImprovement(xi=0.0)
        # Midpoint has the same posterior mean but larger std than a
        # training point.
        scores = ei(gp, np.array([[0.5], [0.0]]), best_y=1.0)
        assert scores[0] > scores[1]

    def test_negative_xi_raises(self):
        with pytest.raises(ConfigurationError):
            ExpectedImprovement(xi=-0.1)

    @pytest.mark.parametrize("cls", [ExpectedImprovement, ProbabilityOfImprovement])
    @pytest.mark.parametrize("xi", [np.nan, np.inf])
    def test_non_finite_xi_raises(self, cls, xi):
        with pytest.raises(ConfigurationError):
            cls(xi=xi)


class TestProbabilityOfImprovement:
    def test_bounded_in_unit_interval(self, fitted_gp, rng):
        pi = ProbabilityOfImprovement()
        scores = pi(fitted_gp, rng.uniform(-1, 2, size=(40, 1)), best_y=0.1)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_more_conservative_than_ei_on_exploration(self, fitted_gp):
        """PI under-scores a high-variance, slightly-worse-mean point
        relative to EI — the paper's reason to discard it (§IV-C)."""
        pi = ProbabilityOfImprovement(xi=0.0)
        ei = ExpectedImprovement(xi=0.0)
        explore, exploit = np.array([[3.0]]), np.array([[0.6]])
        pi_ratio = pi(fitted_gp, explore, 0.02)[0] / max(
            pi(fitted_gp, exploit, 0.02)[0], 1e-12
        )
        ei_ratio = ei(fitted_gp, explore, 0.02)[0] / max(
            ei(fitted_gp, exploit, 0.02)[0], 1e-12
        )
        assert pi_ratio <= ei_ratio


class TestLowerConfidenceBound:
    def test_kappa_zero_is_negated_mean(self, fitted_gp, rng):
        lcb = LowerConfidenceBound(kappa=0.0)
        x = rng.uniform(0, 1, size=(10, 1))
        assert np.allclose(lcb(fitted_gp, x, 0.0), -fitted_gp.predict(x).mean)

    def test_larger_kappa_favors_uncertain_points(self, fitted_gp):
        far = np.array([[5.0]])  # high variance
        near = np.array([[0.6]])  # low variance, good mean
        tame = LowerConfidenceBound(kappa=0.1)
        bold = LowerConfidenceBound(kappa=10.0)
        assert tame(fitted_gp, near, 0)[0] > tame(fitted_gp, far, 0)[0]
        assert bold(fitted_gp, far, 0)[0] > bold(fitted_gp, near, 0)[0]

    def test_negative_kappa_raises(self):
        with pytest.raises(ConfigurationError):
            LowerConfidenceBound(kappa=-1.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_non_finite_kappa_raises(self, kappa):
        with pytest.raises(ConfigurationError):
            LowerConfidenceBound(kappa=kappa)


class TestMakeAcquisition:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ei", ExpectedImprovement),
            ("pi", ProbabilityOfImprovement),
            ("lcb", LowerConfidenceBound),
            ("EI", ExpectedImprovement),
        ],
    )
    def test_factory(self, name, cls):
        assert isinstance(make_acquisition(name), cls)

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="unknown acquisition"):
            make_acquisition("ucb")


class TestScoreMoments:
    @pytest.mark.parametrize("name", ["ei", "pi", "lcb"])
    def test_batched_score_is_row_by_row_call(self, fitted_gp, name):
        """One ``(B, C)`` score call equals B predict-then-score calls."""
        acquisition = make_acquisition(name)
        pools = make_rng(3).uniform(-1, 2, size=(3, 16, 1))
        best = np.array([[0.05], [0.2], [0.0]])
        posts = [fitted_gp.predict(pool) for pool in pools]
        batched = acquisition.score(
            np.stack([p.mean for p in posts]), np.stack([p.std for p in posts]), best
        )
        for row, pool in enumerate(pools):
            alone = acquisition(fitted_gp, pool, float(best[row, 0]))
            assert batched[row].tobytes() == alone.tobytes()

    def test_equal_by_kind_and_parameters(self):
        assert ExpectedImprovement() == ExpectedImprovement(xi=0.01)
        assert ExpectedImprovement() != ExpectedImprovement(xi=0.1)
        assert ExpectedImprovement() != ProbabilityOfImprovement()
        assert LowerConfidenceBound(kappa=2.0) == make_acquisition("lcb")


class _FixedPosterior:
    """A surrogate stub whose posterior is given directly."""

    def __init__(self, mean, std):
        self.post = GPPosterior(mean=mean, std=std)

    def predict(self, x):
        return self.post


def _posterior_grid():
    """A (B, C) grid with zero std, u = ±inf and NaN rows."""
    rng = make_rng(21)
    mean = rng.normal(size=(6, 7))
    std = rng.uniform(0.0, 2.0, size=(6, 7))
    std[1] = [0.0, 0.0, 1e-13, 1e-300, 5e-324, 0.0, 1e-12]
    mean[1] = [0.5, 1.5, 0.2, -3.0, 3.0, 0.99, 0.5]
    mean[2] = [-np.inf, np.inf, -1e308, 1e308, 0.0, 1.0, -1.0]
    std[3] = [np.inf, 1e-320, 1e300, 0.0, 1e-200, 1e200, 3.0]
    mean[4] = np.nan
    std[5] = np.nan
    best_y = np.array([[0.0], [1.0], [0.5], [-0.2], [0.3], [2.0]])
    return mean, std, best_y


def _scipy_ei(mean, std, best_y, xi):
    improvement = best_y - mean - xi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = improvement / std
        ei = improvement * norm.cdf(u) + std * norm.pdf(u)
    ei = np.where(std > 1e-12, ei, np.maximum(improvement, 0.0))
    return np.clip(ei, 0.0, None)


def _assert_bitwise(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    finite = ~np.isnan(expected)
    np.testing.assert_array_equal(np.signbit(actual[finite]), np.signbit(expected[finite]))


class TestNormalWithoutScipyStats:
    """EI and PI use ``ndtr`` and an inline density; both must equal the
    ``scipy.stats.norm`` formulas bit for bit, edge cases included."""

    @pytest.mark.parametrize("xi", [0.0, 0.01])
    def test_batched_ei_matches_scipy_stats(self, xi):
        mean, std, best_y = _posterior_grid()
        with np.errstate(over="ignore"):
            actual = expected_improvement(mean, std, best_y, xi)
        _assert_bitwise(actual, _scipy_ei(mean, std, best_y, xi))

    def test_scalar_ei_matches_scipy_stats_row_by_row(self):
        mean, std, best_y = _posterior_grid()
        for b in range(mean.shape[0]):
            gp = _FixedPosterior(mean[b], std[b])
            with np.errstate(over="ignore"):
                actual = ExpectedImprovement(xi=0.01)(gp, None, float(best_y[b, 0]))
            _assert_bitwise(actual, _scipy_ei(mean[b], std[b], best_y[b, 0], 0.01))

    def test_pi_matches_scipy_stats(self):
        mean, std, best_y = _posterior_grid()
        for b in range(mean.shape[0]):
            gp = _FixedPosterior(mean[b], std[b])
            y = float(best_y[b, 0])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                u = (y - mean[b] - 0.01) / std[b]
                actual = ProbabilityOfImprovement(xi=0.01)(gp, None, y)
            expected = np.where(std[b] > 1e-12, norm.cdf(u), (mean[b] < y - 0.01) * 1.0)
            _assert_bitwise(actual, expected)

    def test_package_import_leaves_out_scipy_stats(self):
        code = (
            "import repro, repro.cli, repro.fleet, repro.scenarios, "
            "repro.experiments; import sys; print('scipy.stats' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == "False"
