"""Unit tests for repro.bo.gp (Gaussian-process regression)."""

import numpy as np
import pytest

from repro.bo.gp import GaussianProcess, GPPosterior
from repro.bo.kernels import Matern, RBF
from repro.errors import GPFitError


def _toy_function(x):
    return np.sin(3 * x[:, 0]) + 0.5 * x[:, 0]


class TestFit:
    def test_fit_returns_self_and_sets_state(self, rng):
        x = rng.uniform(0, 1, size=(10, 2))
        y = x[:, 0] + x[:, 1]
        gp = GaussianProcess()
        assert not gp.is_fit
        assert gp.fit(x, y) is gp
        assert gp.is_fit
        assert gp.n_observations == 10

    def test_fit_zero_points_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess().fit(np.empty((0, 2)), np.empty(0))

    def test_fit_shape_mismatch_raises(self, rng):
        with pytest.raises(GPFitError, match="rows"):
            GaussianProcess().fit(rng.normal(size=(5, 2)), rng.normal(size=4))

    def test_fit_nan_raises(self, rng):
        x = rng.normal(size=(5, 2))
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(GPFitError, match="NaN"):
            GaussianProcess().fit(x, y)

    def test_duplicate_points_survive_via_jitter(self):
        """Identical rows make K singular without jitter escalation."""
        x = np.tile([[0.5, 0.5]], (6, 1))
        y = np.full(6, 2.0)
        gp = GaussianProcess(noise=0.0)
        gp.fit(x, y)  # must not raise
        assert gp.predict(x).mean == pytest.approx(np.full(6, 2.0), abs=1e-3)

    def test_repeated_row_fits_via_jitter(self, rng):
        """One row of a random dataset repeated: the noise-free covariance
        is singular, and fit's jitter escalation must still succeed."""
        x = rng.uniform(0, 1, size=(5, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = GaussianProcess(noise=0.0).fit(
            np.vstack([x, x[:1]]), np.append(y, y[0])
        )
        assert gp.n_observations == 6
        post = gp.predict(x)
        assert np.all(np.isfinite(post.mean))
        assert np.all(post.std > 0)

    def test_negative_noise_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess(noise=-1.0)

    def test_nan_noise_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess(noise=float("nan"))


class TestPredict:
    def test_predict_before_fit_raises(self):
        with pytest.raises(GPFitError, match="before fit"):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_interpolates_training_points(self, rng):
        x = rng.uniform(0, 2, size=(15, 1))
        y = _toy_function(x)
        gp = GaussianProcess(kernel=Matern(length_scale=0.5), noise=1e-8)
        gp.fit(x, y)
        post = gp.predict(x)
        assert np.allclose(post.mean, y, atol=1e-3)
        assert np.all(post.std < 0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        x = rng.uniform(0, 1, size=(12, 1))
        gp = GaussianProcess(kernel=Matern(length_scale=0.3)).fit(x, _toy_function(x))
        near = gp.predict(np.array([[0.5]])).std[0]
        far = gp.predict(np.array([[4.0]])).std[0]
        assert far > near

    def test_far_field_reverts_to_prior_mean(self, rng):
        x = rng.uniform(0, 1, size=(10, 1))
        y = _toy_function(x)
        gp = GaussianProcess(kernel=Matern(length_scale=0.3)).fit(x, y)
        far_mean = gp.predict(np.array([[50.0]])).mean[0]
        assert far_mean == pytest.approx(float(np.mean(y)), abs=0.1)

    def test_generalizes_smooth_function(self, rng):
        x = np.linspace(0, 2, 25)[:, None]
        gp = GaussianProcess(kernel=RBF(length_scale=0.5), noise=1e-6)
        gp.fit(x, _toy_function(x))
        x_test = np.linspace(0.1, 1.9, 10)[:, None]
        post = gp.predict(x_test)
        assert np.allclose(post.mean, _toy_function(x_test), atol=0.05)

    def test_posterior_shapes(self, rng):
        x = rng.normal(size=(8, 3))
        gp = GaussianProcess().fit(x, rng.normal(size=8))
        post = gp.predict(rng.normal(size=(5, 3)))
        assert post.mean.shape == (5,)
        assert post.std.shape == (5,)
        assert np.all(post.std > 0)

    def test_y_normalization_invariance(self, rng):
        """Scaling targets by 1000 scales predictions by 1000."""
        x = rng.uniform(0, 1, size=(12, 2))
        y = rng.normal(size=12)
        base = GaussianProcess().fit(x, y).predict(x[:4])
        scaled = GaussianProcess().fit(x, 1000 * y).predict(x[:4])
        assert np.allclose(scaled.mean, 1000 * base.mean, rtol=1e-6)
        assert np.allclose(scaled.std, 1000 * base.std, rtol=1e-6)

    def test_constant_targets_handled(self, rng):
        """Zero-variance targets must not divide by zero."""
        x = rng.normal(size=(6, 2))
        gp = GaussianProcess().fit(x, np.full(6, 3.0))
        post = gp.predict(x)
        assert np.allclose(post.mean, 3.0, atol=1e-6)


class TestGPPosterior:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(GPFitError):
            GPPosterior(mean=np.zeros(3), std=np.zeros(4))


class TestLogMarginalLikelihood:
    def test_prefers_correct_length_scale(self, rng):
        """LML is higher for a kernel whose scale matches the data."""
        x = np.linspace(0, 3, 30)[:, None]
        y = np.sin(4 * x[:, 0])  # wiggly: short length scale fits
        lml_short = (
            GaussianProcess(kernel=Matern(length_scale=0.3)).fit(x, y)
        ).log_marginal_likelihood()
        lml_long = (
            GaussianProcess(kernel=Matern(length_scale=5.0)).fit(x, y)
        ).log_marginal_likelihood()
        assert lml_short > lml_long

    def test_before_fit_raises(self):
        with pytest.raises(GPFitError):
            GaussianProcess().log_marginal_likelihood()


class TestSamplePosterior:
    def test_samples_match_posterior_moments(self, rng):
        x = rng.uniform(0, 1, size=(10, 1))
        gp = GaussianProcess(kernel=Matern(length_scale=0.5)).fit(
            x, _toy_function(x)
        )
        x_test = np.array([[0.2], [0.9]])
        draws = gp.sample_posterior(x_test, n_samples=4000, rng=rng)
        post = gp.predict(x_test)
        assert draws.shape == (4000, 2)
        assert np.allclose(draws.mean(axis=0), post.mean, atol=0.05)

    def test_before_fit_raises(self, rng):
        with pytest.raises(GPFitError):
            GaussianProcess().sample_posterior(np.zeros((1, 1)), 10, rng)
