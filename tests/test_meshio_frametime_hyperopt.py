"""Tests for GP model selection over a length-scale grid."""

import numpy as np
import pytest

from repro.bo.gp import GaussianProcess
from repro.bo.kernels import Matern, RBF
from repro.errors import GPFitError


class TestLengthScaleSelection:
    def test_selects_matching_scale_for_wiggly_data(self, rng):
        x = np.linspace(0, 3, 40)[:, None]
        y = np.sin(6 * x[:, 0])  # short correlation length
        gp = GaussianProcess(kernel=Matern(length_scale=1.0), noise=1e-6)
        tuned = gp.optimized_over_length_scales(x, y, (0.25, 1.0, 4.0))
        assert tuned.kernel.length_scale == 0.25

    def test_selects_long_scale_for_smooth_data(self, rng):
        x = np.linspace(0, 3, 25)[:, None]
        y = 0.5 * x[:, 0]  # very smooth
        gp = GaussianProcess(kernel=RBF(length_scale=1.0), noise=1e-6)
        tuned = gp.optimized_over_length_scales(x, y, (0.25, 4.0))
        assert tuned.kernel.length_scale == 4.0

    def test_tuned_model_predicts_better(self, rng):
        x = rng.uniform(0, 3, size=(35, 1))
        y = np.sin(6 * x[:, 0])
        x_test = rng.uniform(0.2, 2.8, size=(20, 1))
        y_test = np.sin(6 * x_test[:, 0])
        wide = GaussianProcess(kernel=Matern(length_scale=4.0), noise=1e-6).fit(x, y)
        tuned = GaussianProcess(
            kernel=Matern(length_scale=4.0), noise=1e-6
        ).optimized_over_length_scales(x, y, (0.25, 0.5, 4.0))
        err_wide = np.mean((wide.predict(x_test).mean - y_test) ** 2)
        err_tuned = np.mean((tuned.predict(x_test).mean - y_test) ** 2)
        assert err_tuned <= err_wide

    def test_invalid_grid_rejected(self, rng):
        x = rng.uniform(0, 1, size=(5, 1))
        y = x[:, 0]
        gp = GaussianProcess()
        with pytest.raises(GPFitError):
            gp.optimized_over_length_scales(x, y, ())
        with pytest.raises(GPFitError):
            gp.optimized_over_length_scales(x, y, (0.0,))

    def test_unsupported_kernel_rejected(self, rng):
        x = rng.uniform(0, 1, size=(5, 1))
        gp = GaussianProcess(kernel=Matern() + RBF())
        with pytest.raises(GPFitError, match="cannot vary"):
            gp.optimized_over_length_scales(x, x[:, 0], (1.0,))
