"""Unit tests for repro.bo.kernels."""

import math

import numpy as np
import pytest

from repro.bo.kernels import (
    RBF,
    Matern,
    Sum,
    make_kernel,
    pairwise_distances,
)
from repro.errors import ConfigurationError


class TestPairwiseDistances:
    def test_matches_norm(self, rng):
        x = rng.normal(size=(7, 3))
        z = rng.normal(size=(5, 3))
        d = pairwise_distances(x, z)
        assert d.shape == (7, 5)
        for i in range(7):
            for j in range(5):
                assert d[i, j] == pytest.approx(np.linalg.norm(x[i] - z[j]))

    def test_zero_on_identical_rows(self, rng):
        x = rng.normal(size=(4, 2))
        d = pairwise_distances(x, x)
        assert np.allclose(np.diag(d), 0.0)

    def test_accepts_1d_input(self):
        d = pairwise_distances(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(0.0)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ConfigurationError):
            pairwise_distances(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))

    def test_never_negative_under_cancellation(self):
        # Large-magnitude nearly-identical points stress the x²+z²-2xz form.
        x = np.full((2, 3), 1e8)
        x[1] += 1e-4
        d = pairwise_distances(x, x)
        assert np.all(d >= 0)


class TestMatern:
    def test_paper_kernel_formula_matches_eq7(self, rng):
        """Eq. 7: k = σ²(1 + √5r/l + 5r²/3l²)exp(−√5r/l)."""
        kernel = Matern(length_scale=1.0, nu=2.5, variance=1.0)
        x = rng.normal(size=(4, 4))
        z = rng.normal(size=(3, 4))
        k = kernel(x, z)
        r = pairwise_distances(x, z)
        expected = (1 + math.sqrt(5) * r + 5 * r**2 / 3) * np.exp(-math.sqrt(5) * r)
        assert np.allclose(k, expected)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_unit_variance_at_zero_distance(self, nu):
        kernel = Matern(nu=nu)
        x = np.array([[0.3, 0.7]])
        assert kernel(x, x)[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_monotone_decreasing_in_distance(self, nu):
        kernel = Matern(nu=nu)
        origin = np.zeros((1, 1))
        points = np.linspace(0.1, 5.0, 30)[:, None]
        values = kernel(points, origin).ravel()
        assert np.all(np.diff(values) < 0)

    def test_length_scale_widens_kernel(self):
        x, z = np.zeros((1, 2)), np.ones((1, 2))
        narrow = Matern(length_scale=0.5)(x, z)[0, 0]
        wide = Matern(length_scale=2.0)(x, z)[0, 0]
        assert wide > narrow

    def test_smoother_nu_higher_at_moderate_distance(self):
        x, z = np.zeros((1, 1)), np.array([[0.5]])
        v12 = Matern(nu=0.5)(x, z)[0, 0]
        v52 = Matern(nu=2.5)(x, z)[0, 0]
        assert v52 > v12

    def test_diag_is_variance(self, rng):
        kernel = Matern(variance=2.5)
        x = rng.normal(size=(6, 3))
        assert np.allclose(kernel.diag(x), 2.5)

    def test_gram_matrix_positive_semidefinite(self, rng):
        kernel = Matern()
        x = rng.normal(size=(15, 3))
        eigenvalues = np.linalg.eigvalsh(kernel(x, x))
        assert eigenvalues.min() > -1e-9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length_scale": 0.0},
            {"length_scale": -1.0},
            {"length_scale": float("nan")},
            {"variance": 0.0},
            {"nu": 2.0},
            {"nu": 3.5},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            Matern(**kwargs)


class TestRBF:
    def test_formula(self, rng):
        kernel = RBF(length_scale=1.5, variance=2.0)
        x = rng.normal(size=(3, 2))
        z = rng.normal(size=(4, 2))
        r = pairwise_distances(x, z) / 1.5
        assert np.allclose(kernel(x, z), 2.0 * np.exp(-0.5 * r**2))

    def test_rbf_upper_bounds_matern(self, rng):
        """RBF is the ν→∞ Matérn limit; at moderate r it sits above ν=2.5."""
        x, z = np.zeros((1, 1)), np.array([[0.8]])
        assert RBF()(x, z)[0, 0] > Matern(nu=2.5)(x, z)[0, 0]

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            RBF(length_scale=-0.1)
        with pytest.raises(ConfigurationError):
            RBF(length_scale=float("nan"))


class TestSum:
    def test_sum_adds_pointwise(self, rng):
        x = rng.normal(size=(4, 2))
        z = rng.normal(size=(3, 2))
        combined = Matern() + RBF(variance=0.1)
        assert isinstance(combined, Sum)
        assert np.allclose(
            combined(x, z), Matern()(x, z) + RBF(variance=0.1)(x, z)
        )
        assert np.allclose(combined.diag(x), Matern().diag(x) + 0.1)


class TestMakeKernel:
    @pytest.mark.parametrize(
        "name,expected_type,expected_nu",
        [
            ("matern12", Matern, 0.5),
            ("matern32", Matern, 1.5),
            ("matern52", Matern, 2.5),
            ("MATERN52", Matern, 2.5),
        ],
    )
    def test_matern_names(self, name, expected_type, expected_nu):
        kernel = make_kernel(name)
        assert isinstance(kernel, expected_type)
        assert kernel.nu == expected_nu

    def test_rbf_name(self):
        assert isinstance(make_kernel("rbf"), RBF)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            make_kernel("laplacian")
