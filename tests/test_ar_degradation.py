"""Unit tests for repro.ar.degradation and repro.ar.quality (Eq. 1 / Eq. 2)."""

import numpy as np
import pytest

from repro.ar.degradation import (
    DegradationModel,
    DegradationParams,
    eq1_columns,
    eq1_errors,
    fit_degradation_params,
    synthesize_training_samples,
)
from repro.ar.mesh import make_procedural
from repro.ar.quality import average_quality, object_quality
from repro.errors import ConfigurationError


def _typical_params():
    return DegradationParams(a=1.25, b=-2.90, c=1.65, d=1.0)


class TestDegradationParams:
    def test_negative_error_at_full_quality_rejected(self):
        with pytest.raises(ConfigurationError, match="negative error"):
            DegradationParams(a=0.5, b=-2.0, c=1.0, d=1.0)  # a+b+c = -0.5

    def test_negative_distance_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            DegradationParams(a=0.5, b=-1.0, c=0.5, d=-0.1)

    def test_as_tuple(self):
        params = _typical_params()
        assert params.as_tuple() == (1.25, -2.90, 1.65, 1.0)


class TestDegradationModel:
    def test_zero_error_at_full_quality(self):
        model = DegradationModel(_typical_params())
        assert model.error(1.0, 1.5) == pytest.approx(0.0, abs=1e-9)
        assert model.quality(1.0, 1.5) == pytest.approx(1.0)

    def test_error_decreases_with_ratio(self):
        model = DegradationModel(_typical_params())
        errors = [model.error(r, 1.0) for r in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_error_decreases_with_distance(self):
        """Eq. 1: far objects show less perceptible degradation."""
        model = DegradationModel(_typical_params())
        near = model.error(0.5, 0.5)
        far = model.error(0.5, 3.0)
        assert far < near

    def test_error_clamped_to_unit_interval(self):
        model = DegradationModel(DegradationParams(a=2.0, b=-6.0, c=4.0, d=1.0))
        assert model.error(0.1, 0.4) == 1.0  # would exceed 1 unclamped
        assert 0.0 <= model.error(0.9, 10.0) <= 1.0

    def test_batch_matches_scalar(self, rng):
        """The column form of Eq. 1 is bit-identical to the scalar model
        for every (ratio row, object column) pair."""
        params = [
            _typical_params(),
            DegradationParams(a=0.9, b=-2.1, c=1.2, d=0.7),
            DegradationParams(a=2.0, b=-6.0, c=4.0, d=1.3),
        ] * 7
        models = [DegradationModel(p) for p in params]
        distances = rng.uniform(0.3, 3.0, len(params)).tolist()
        # Include ratios whose libm square differs from r*r.
        draws = rng.uniform(0.05, 1.0, 20_000)
        ratios = np.concatenate(
            [draws[:30], [v for v in draws.tolist() if v**2 != v * v]]
        )
        batch = eq1_errors(eq1_columns(params, distances), ratios)
        scalar = [
            [m.error(r, dist) for m, dist in zip(models, distances)]
            for r in ratios.tolist()
        ]
        assert batch.tolist() == scalar

    def test_invalid_inputs_rejected(self):
        model = DegradationModel(_typical_params())
        with pytest.raises(ConfigurationError):
            model.error(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            model.error(1.2, 1.0)
        with pytest.raises(ConfigurationError):
            model.error(0.5, 0.0)


class TestOfflineFitting:
    def test_fit_recovers_known_parameters(self, rng):
        """Generate samples from a known Eq. 1 and refit."""
        true = DegradationParams(a=0.9, b=-2.1, c=1.2, d=1.0)
        model = DegradationModel(true)
        samples = []
        for r in np.linspace(0.1, 1.0, 12):
            for dist in (0.6, 1.0, 1.8, 3.0):
                numerator = true.a * r**2 + true.b * r + true.c
                samples.append((float(r), float(dist), numerator / dist**true.d))
        fitted = fit_degradation_params(samples)
        assert fitted.a == pytest.approx(true.a, abs=0.1)
        assert fitted.b == pytest.approx(true.b, abs=0.15)
        assert fitted.d == pytest.approx(true.d, abs=0.15)

    def test_fit_enforces_anchor(self):
        samples = [(r, d, (1 - r) * 0.8 / d) for r in (0.2, 0.5, 0.8, 1.0) for d in (1.0, 2.0)]
        fitted = fit_degradation_params(samples)
        assert fitted.a + fitted.b + fitted.c == pytest.approx(0.0, abs=1e-9)

    def test_fit_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_degradation_params([(0.5, 1.0, 0.2)])

    def test_fit_out_of_range_samples_rejected(self):
        bad = [(1.5, 1.0, 0.1)] * 5
        with pytest.raises(ConfigurationError):
            fit_degradation_params(bad)

    def test_end_to_end_pipeline_on_real_mesh(self):
        """Mesh → synthetic GMSD sweep → fit: errors must decrease in R."""
        mesh = make_procedural("plane", 1_500)
        samples = synthesize_training_samples(
            mesh, ratios=(0.15, 0.4, 0.7, 1.0), distances=(0.8, 1.5), seed=3
        )
        fitted = fit_degradation_params(samples)
        model = DegradationModel(fitted)
        assert model.error(0.15, 1.0) > model.error(0.7, 1.0)

    def test_synthesize_noise_validation(self):
        mesh = make_procedural("andy", 500)
        with pytest.raises(ConfigurationError):
            synthesize_training_samples(mesh, noise_sigma=-0.1)


class TestAverageQuality:
    def test_eq2_is_mean_of_complements(self):
        models = [DegradationModel(_typical_params()) for _ in range(3)]
        ratios = [1.0, 0.5, 0.3]
        distances = [1.0, 1.0, 2.0]
        expected = np.mean(
            [1 - m.error(r, d) for m, r, d in zip(models, ratios, distances)]
        )
        assert average_quality(models, ratios, distances) == pytest.approx(expected)

    def test_empty_scene_is_perfect(self):
        assert average_quality([], [], []) == 1.0

    def test_length_mismatch_rejected(self):
        model = DegradationModel(_typical_params())
        with pytest.raises(ConfigurationError):
            average_quality([model], [0.5, 0.6], [1.0])

    def test_object_quality_complement(self):
        model = DegradationModel(_typical_params())
        assert object_quality(model, 0.5, 1.0) == pytest.approx(
            1.0 - model.error(0.5, 1.0)
        )
