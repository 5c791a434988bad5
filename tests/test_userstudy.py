"""Unit tests for repro.userstudy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.userstudy import PerceptionModel, RaterPanel
from repro.userstudy.panel import StudyResult


class TestPerceptionModel:
    def test_monotone_in_quality(self):
        model = PerceptionModel()
        scores = [model.mean_opinion_score(q) for q in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_bounded_1_to_5(self):
        model = PerceptionModel()
        assert model.mean_opinion_score(0.0) >= 1.0
        assert model.mean_opinion_score(1.0) <= 5.0

    def test_paper_anchor_points(self):
        """HBO at Q≈0.87 rates ≈4.9; heavy degradation (Q≈0.5) rates ≈3."""
        model = PerceptionModel()
        assert model.mean_opinion_score(0.87) > 4.5
        assert model.mean_opinion_score(0.5) == pytest.approx(3.0, abs=0.3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PerceptionModel(steepness=0)
        with pytest.raises(ConfigurationError):
            PerceptionModel(midpoint=1.0)
        with pytest.raises(ConfigurationError):
            PerceptionModel().mean_opinion_score(1.5)


class TestRaterPanel:
    def test_ratings_are_integers_in_range(self):
        panel = RaterPanel(n_raters=7, seed=1)
        result = panel.rate("cond", 0.7)
        assert result.n_raters == 7
        assert all(isinstance(r, int) and 1 <= r <= 5 for r in result.ratings)

    def test_high_quality_beats_low_quality(self):
        panel = RaterPanel(n_raters=7, seed=2)
        high = panel.rate("high", 0.95).mean_score
        low = panel.rate("low", 0.3).mean_score
        assert high > low

    def test_same_panel_is_consistent_across_conditions(self):
        """Rater biases are fixed: two panels with the same seed produce
        identical ratings for the same sequence of conditions."""
        a = RaterPanel(seed=3).rate("x", 0.6).ratings
        b = RaterPanel(seed=3).rate("x", 0.6).ratings
        assert a == b

    def test_noise_free_panel_matches_perception_curve(self):
        panel = RaterPanel(n_raters=200, bias_sigma=0.0, noise_sigma=0.0, seed=0)
        expected = panel.perception.mean_opinion_score(0.8)
        assert panel.rate("c", 0.8).mean_score == pytest.approx(expected, abs=0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RaterPanel(n_raters=0)
        with pytest.raises(ConfigurationError):
            RaterPanel(bias_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            StudyResult("empty", []).mean_score
