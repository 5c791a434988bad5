"""Unit tests for repro.bo.optimizer (the ask/tell loop)."""

import copy

import numpy as np
import pytest

from repro.bo.acquisition import AcquisitionFunction, LowerConfidenceBound
from repro.bo.gp import GaussianProcess
from repro.bo.optimizer import (
    BayesianOptimizer,
    Observation,
    OptimizerState,
    candidate_pool,
    guided_picks,
)
from repro.bo.space import BoxSpace, HBOSpace
from repro.errors import ConfigurationError, GPFitError, SearchSpaceError


def _quadratic(space):
    """Cost with the minimum at c=[0.6,0.1,0.3], x=0.8."""

    def fn(z):
        point = space.split(z)
        target = np.array([0.6, 0.1, 0.3])
        return float(
            np.sum((point.proportions - target) ** 2)
            + (point.triangle_ratio - 0.8) ** 2
        )

    return fn


def _run(opt, fn, n_iterations):
    """``n_iterations`` ask/evaluate/tell rounds; the best observation."""
    for _ in range(n_iterations):
        z = opt.ask()
        opt.tell(z, float(fn(z)))
    return opt.best()


class TestObservation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            Observation(z=np.array([np.nan, 1.0]), cost=0.0)
        with pytest.raises(ConfigurationError):
            Observation(z=np.array([0.0, 1.0]), cost=float("inf"))


class TestNoiseValidation:
    @pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
    def test_bad_noise_rejected_at_construction(self, noise):
        with pytest.raises(ConfigurationError, match="noise"):
            BayesianOptimizer(HBOSpace(3), noise=noise)


class TestOptimizerState:
    def test_best_and_trajectory(self):
        state = OptimizerState()
        for i, cost in enumerate([3.0, 1.0, 2.0]):
            state.observations.append(Observation(z=np.array([float(i)]), cost=cost))
        assert state.best().cost == 1.0
        assert np.allclose(state.best_cost_trajectory(), [3.0, 1.0, 1.0])

    def test_best_empty_raises(self):
        with pytest.raises(ConfigurationError):
            OptimizerState().best()

    def test_consecutive_distances(self):
        state = OptimizerState()
        state.proposals = [np.array([0.0, 0.0]), np.array([3.0, 4.0])]
        assert np.allclose(state.consecutive_distances(), [5.0])


class TestAskTell:
    def test_initial_phase_length(self, rng):
        space = HBOSpace(3)
        opt = BayesianOptimizer(space, n_initial=5, seed=0)
        for i in range(5):
            assert opt.in_initial_phase
            z = opt.ask()
            opt.tell(z, 1.0 - 0.1 * i)
        assert not opt.in_initial_phase

    def test_double_ask_raises(self):
        opt = BayesianOptimizer(HBOSpace(3), seed=0)
        opt.ask()
        with pytest.raises(ConfigurationError, match="ask"):
            opt.ask()

    def test_proposals_always_feasible(self):
        space = HBOSpace(3, r_min=0.2)
        opt = BayesianOptimizer(space, n_initial=3, n_candidates=64, seed=1)
        fn = _quadratic(space)
        for _ in range(12):
            z = opt.ask()
            assert space.contains(z, tol=1e-6)
            opt.tell(z, fn(z))

    def test_tell_projects_slightly_infeasible_points(self):
        space = HBOSpace(3)
        opt = BayesianOptimizer(space, seed=0)
        opt.ask()
        z_bad = np.array([0.5, 0.5, 0.1, 0.5])  # sums to 1.1
        opt.tell(z_bad, 1.0)
        assert space.contains(opt.state.observations[-1].z, tol=1e-6)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            BayesianOptimizer(HBOSpace(3), n_initial=0)
        with pytest.raises(ConfigurationError):
            BayesianOptimizer(HBOSpace(3), n_candidates=0)
        with pytest.raises(ConfigurationError):
            BayesianOptimizer(HBOSpace(3), n_local=-1)
        with pytest.raises(ConfigurationError):
            BayesianOptimizer(HBOSpace(3), n_incumbents=0)


class TestAnchors:
    def test_empty_anchors_mean_no_anchors(self):
        space = HBOSpace(3)
        opt = BayesianOptimizer(space, n_initial=2, anchors=np.zeros((0, 4)), seed=5)
        assert opt.anchors is None
        plain = BayesianOptimizer(space, n_initial=2, seed=5)
        fn = _quadratic(space)
        for _ in range(4):
            z = opt.ask()
            np.testing.assert_array_equal(z, plain.ask())
            opt.tell(z, fn(z))
            plain.tell(z, fn(z))

    def test_wrong_width_anchors_raise_at_construction(self):
        with pytest.raises(SearchSpaceError):
            BayesianOptimizer(HBOSpace(3), anchors=np.full((2, 3), 1.0 / 3.0))

    def test_anchors_are_projected_into_the_space(self):
        space = HBOSpace(3, r_min=0.2)
        raw = np.array([[2.0, -1.0, 0.5, 7.0], [0.2, 0.3, 0.5, 0.0]])
        opt = BayesianOptimizer(space, anchors=raw)
        expected = np.array([[1.0, 0.0, 0.0, 1.0], [0.2, 0.3, 0.5, 0.2]])
        np.testing.assert_array_equal(opt.anchors, expected)
        # A single 1-D anchor is one row.
        assert BayesianOptimizer(space, anchors=raw[0]).anchors.shape == (1, 4)


class TestMinimize:
    def test_beats_random_search_on_quadratic(self):
        space = HBOSpace(3, r_min=0.1)
        fn = _quadratic(space)
        opt = BayesianOptimizer(space, n_initial=5, seed=42)
        best = _run(opt, fn, 30)
        # Pure random baseline with the same budget.
        random_best = min(
            fn(z) for z in space.sample(np.random.default_rng(42), 30)
        )
        assert best.cost <= random_best

    def test_converges_near_optimum(self):
        space = HBOSpace(3, r_min=0.1)
        opt = BayesianOptimizer(space, n_initial=5, seed=7)
        best = _run(opt, _quadratic(space), 40)
        assert best.cost < 0.02

    def test_trajectory_monotone_nonincreasing(self):
        space = HBOSpace(2)
        opt = BayesianOptimizer(space, seed=3)
        _run(opt, _quadratic_2d(space), 15)
        trajectory = opt.state.best_cost_trajectory()
        assert np.all(np.diff(trajectory) <= 1e-12)

    def test_noisy_objective_still_improves(self):
        space = HBOSpace(3, r_min=0.1)
        fn = _quadratic(space)
        gen = np.random.default_rng(0)
        opt = BayesianOptimizer(space, n_initial=5, noise=1e-2, seed=11)
        best = _run(opt, lambda z: fn(z) + gen.normal(0, 0.02), 30)
        assert best.cost < 0.3

    def test_works_with_plain_box_space(self):
        space = BoxSpace([(-2.0, 2.0), (-2.0, 2.0)])
        opt = BayesianOptimizer(space, n_initial=4, seed=5)
        best = _run(opt, lambda z: float(np.sum(z**2)), 25)
        assert best.cost < 0.1

    def test_alternative_acquisition(self):
        space = HBOSpace(3)
        opt = BayesianOptimizer(
            space, acquisition=LowerConfidenceBound(kappa=2.0), seed=9
        )
        best = _run(opt, _quadratic(space), 25)
        assert best.cost < 0.1

    def test_constant_objective_does_not_crash(self):
        """Degenerate (zero-information) costs must fall back gracefully."""
        space = HBOSpace(3)
        opt = BayesianOptimizer(space, n_initial=3, seed=2)
        best = _run(opt, lambda z: 1.0, 12)
        assert best.cost == 1.0

    def test_seeded_runs_reproducible(self):
        space = HBOSpace(3)
        fn = _quadratic(space)
        runs = [
            _run(BayesianOptimizer(space, seed=123), fn, 15).cost
            for _ in range(2)
        ]
        assert runs[0] == pytest.approx(runs[1])


def _quadratic_2d(space):
    def fn(z):
        point = space.split(z)
        return float((point.proportions[0] - 0.5) ** 2 + point.triangle_ratio**2)

    return fn


class _AllNaNAcquisition(AcquisitionFunction):
    """Pathological acquisition: every candidate scores NaN."""

    def score(self, mean, std, best_y):
        return np.full_like(mean, np.nan)


class TestDegenerateAcquisition:
    """Regression: all-NaN acquisition scores used to crash ask() with
    np.nanargmax's "All-NaN slice encountered"."""

    def _seeded(self):
        space = HBOSpace(3)
        opt = BayesianOptimizer(
            space, n_initial=2, acquisition=_AllNaNAcquisition(), seed=11
        )
        for _ in range(2):
            opt.tell(opt.ask(), 1.0)
        return space, opt

    def test_all_nan_scores_do_not_crash(self):
        space, opt = self._seeded()
        z = opt.ask()  # guided phase
        assert space.contains(z)

    def test_all_nan_fallback_is_deterministic(self):
        proposals = []
        for _ in range(2):
            _, opt = self._seeded()
            proposals.append(opt.ask())
        assert np.array_equal(proposals[0], proposals[1])

    def test_fallback_returns_first_candidate(self):
        # The pool's first row is the first of its uniform draws.
        _, opt = self._seeded()
        stream = copy.deepcopy(opt._rng)
        first = opt.space.sample(stream, size=opt.n_candidates)[0]
        assert np.array_equal(opt.ask(), first)


class TestDegenerateFit:
    def test_draws_its_pool_then_one_uniform_row(self, monkeypatch):
        """A degenerate fit takes the fleet's rule: the pool is drawn from
        the optimizer's own stream, then one uniform row is the pick."""
        space = HBOSpace(3)
        opt = BayesianOptimizer(space, n_initial=2, seed=4)
        for z, cost in zip(space.sample(np.random.default_rng(1), size=4), [0.4, 0.1, 0.9, 0.3]):
            opt.tell(z, cost)
        stream = copy.deepcopy(opt._rng)
        best = sorted(opt.state.observations, key=lambda o: o.cost)[:3]
        candidate_pool(
            space, stream, opt.n_candidates, opt.anchors,
            np.asarray([o.z for o in best]), opt.n_local,
        )
        expected = space.sample(stream, size=1)[0]

        def fit(gp, x, y):
            raise GPFitError("forced degenerate fit")

        monkeypatch.setattr(GaussianProcess, "fit", fit)
        assert np.array_equal(opt.ask(), expected)
        assert opt._rng.bit_generator.state == stream.bit_generator.state


class TestIncrementalSurrogate:
    """_fit_surrogate fits the exact GP on every observation told so far;
    the posterior must match a fresh full fit on the same dataset."""

    def test_cached_surrogate_matches_fresh_fit(self):
        space = HBOSpace(3)
        opt = BayesianOptimizer(space, n_initial=3, seed=5)
        _run(opt, _quadratic(space), 10)
        gp = opt._fit_surrogate()
        assert gp.n_observations == opt.n_observations

        x = np.asarray([o.z for o in opt.state.observations])
        y = np.asarray([o.cost for o in opt.state.observations])
        fresh = GaussianProcess(kernel=opt.kernel, noise=opt.noise).fit(x, y)
        grid = space.sample(np.random.default_rng(0), size=32)
        np.testing.assert_allclose(
            gp.predict(grid).mean, fresh.predict(grid).mean, atol=1e-8
        )
        np.testing.assert_allclose(
            gp.predict(grid).std, fresh.predict(grid).std, atol=1e-8
        )


class TestGuidedPicks:
    """The batched guided step needs one incumbent count per batch."""

    def _optimizer(self, seed, n_observations):
        space = HBOSpace(3)
        opt = BayesianOptimizer(space, n_initial=1, seed=seed)
        fn = _quadratic(space)
        for z in space.sample(np.random.default_rng(seed), size=n_observations):
            opt.tell(z, fn(z))
        return opt

    def test_unequal_incumbent_counts_raise(self):
        opts = [self._optimizer(1, 2), self._optimizer(2, 4)]
        surrogates = [opt._fit_surrogate() for opt in opts]
        rngs = [opt._rng for opt in opts]
        with pytest.raises(ConfigurationError, match=r"incumbent count.*\[2, 3\]"):
            guided_picks(opts, surrogates, rngs)

    def test_equal_counts_pick_as_each_optimizer_alone(self):
        opts = [self._optimizer(1, 2), self._optimizer(2, 2)]
        alone = [copy.deepcopy(opt).ask() for opt in opts]
        surrogates = [opt._fit_surrogate() for opt in opts]
        picks = guided_picks(opts, surrogates, [opt._rng for opt in opts])
        np.testing.assert_array_equal(picks, np.array(alone))
