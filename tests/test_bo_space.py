"""Unit tests for repro.bo.space (Constraints 8-10 of the paper)."""

import numpy as np
import pytest

from repro.bo.gp import GaussianProcess
from repro.bo.optimizer import BayesianOptimizer, candidate_pool
from repro.bo.space import BoxSpace, HBOSpace, SimplexSpace
from repro.errors import ConfigurationError, SearchSpaceError
from repro.rng import make_rng


class TestSimplexSpace:
    def test_samples_live_on_simplex(self, rng):
        space = SimplexSpace(4)
        samples = space.sample(rng, size=200)
        assert samples.shape == (200, 4)
        assert np.allclose(samples.sum(axis=1), 1.0)
        assert np.all(samples >= 0)

    def test_contains(self):
        space = SimplexSpace(3)
        assert space.contains(np.array([0.2, 0.3, 0.5]))
        assert not space.contains(np.array([0.5, 0.5, 0.5]))  # sums to 1.5
        assert not space.contains(np.array([1.2, -0.2, 0.0]))
        assert not space.contains(np.array([0.5, 0.5]))  # wrong dim

    def test_projection_is_identity_on_feasible_points(self):
        space = SimplexSpace(3)
        c = np.array([0.1, 0.6, 0.3])
        assert np.allclose(space.project(c), c)

    def test_projection_produces_feasible_point(self, rng):
        space = SimplexSpace(5)
        for _ in range(50):
            raw = rng.normal(scale=3.0, size=5)
            projected = space.project(raw)
            assert space.contains(projected)

    def test_projection_is_euclidean_nearest(self, rng):
        """The projection must beat random feasible points in distance."""
        space = SimplexSpace(3)
        raw = np.array([0.9, 0.9, -0.5])
        projected = space.project(raw)
        others = space.sample(rng, 500)
        proj_dist = np.linalg.norm(raw - projected)
        other_dists = np.linalg.norm(others - raw, axis=1)
        assert proj_dist <= other_dists.min() + 1e-9

    def test_project_nonfinite_raises(self):
        with pytest.raises(SearchSpaceError):
            SimplexSpace(2).project(np.array([np.inf, 0.0]))

    def test_perturb_stays_on_simplex(self, rng):
        space = SimplexSpace(4)
        c = np.array([0.25, 0.25, 0.25, 0.25])
        for scale in (0.01, 0.5, 5.0):
            assert space.contains(space.perturb(c, scale, rng))

    def test_single_coordinate_simplex(self, rng):
        space = SimplexSpace(1)
        assert np.allclose(space.sample(rng, 3), 1.0)
        assert np.allclose(space.project(np.array([42.0])), 1.0)

    def test_invalid_size_raises(self):
        with pytest.raises(SearchSpaceError):
            SimplexSpace(0)


class TestBoxSpace:
    def test_samples_in_bounds(self, rng):
        space = BoxSpace([(0.1, 1.0), (-2.0, 2.0)])
        samples = space.sample(rng, 100)
        assert np.all(samples[:, 0] >= 0.1) and np.all(samples[:, 0] <= 1.0)
        assert np.all(samples[:, 1] >= -2.0) and np.all(samples[:, 1] <= 2.0)

    def test_project_clips(self):
        space = BoxSpace([(0.0, 1.0)])
        assert space.project(np.array([1.7]))[0] == pytest.approx(1.0)
        assert space.project(np.array([-0.4]))[0] == pytest.approx(0.0)

    def test_inverted_bounds_raise(self):
        with pytest.raises(SearchSpaceError):
            BoxSpace([(1.0, 0.0)])

    def test_perturb_stays_inside(self, rng):
        space = BoxSpace([(0.2, 0.8)])
        for _ in range(20):
            assert space.contains(space.perturb(np.array([0.5]), 2.0, rng))


class TestHBOSpace:
    def test_dim_and_split_join_roundtrip(self):
        space = HBOSpace(3, r_min=0.1)
        assert space.dim == 4
        z = np.array([0.2, 0.3, 0.5, 0.7])
        point = space.split(z)
        assert np.allclose(point.proportions, [0.2, 0.3, 0.5])
        assert point.triangle_ratio == pytest.approx(0.7)
        assert np.allclose(space.join(point.proportions, point.triangle_ratio), z)
        assert np.allclose(np.append(point.proportions, point.triangle_ratio), z)

    def test_samples_satisfy_constraints_8_to_10(self, rng):
        space = HBOSpace(3, r_min=0.25)
        samples = space.sample(rng, 300)
        c, x = samples[:, :3], samples[:, 3]
        assert np.allclose(c.sum(axis=1), 1.0)  # Constraint 9
        assert np.all((c >= 0) & (c <= 1))  # Constraint 8
        assert np.all((x >= 0.25) & (x <= 1.0))  # Constraint 10

    def test_project_fixes_both_parts(self):
        space = HBOSpace(3, r_min=0.1)
        z = space.project(np.array([2.0, -1.0, 0.5, 7.0]))
        assert space.contains(z)
        assert z[3] == pytest.approx(1.0)

    def test_contains_rejects_bad_ratio(self):
        space = HBOSpace(2, r_min=0.3)
        assert not space.contains(np.array([0.5, 0.5, 0.1]))
        assert space.contains(np.array([0.5, 0.5, 0.3]))

    def test_perturb_feasible(self, rng):
        space = HBOSpace(3, r_min=0.1)
        z = space.sample(rng)[0]
        for scale in (0.05, 1.0):
            assert space.contains(space.perturb(z, scale, rng))

    def test_invalid_r_min_raises(self):
        with pytest.raises(SearchSpaceError):
            HBOSpace(3, r_min=1.0)
        with pytest.raises(SearchSpaceError):
            HBOSpace(3, r_min=-0.1)

    def test_split_wrong_length_raises(self):
        with pytest.raises(SearchSpaceError):
            HBOSpace(3).split(np.zeros(3))

    def test_join_wrong_length_raises(self):
        with pytest.raises(SearchSpaceError):
            HBOSpace(3).join(np.array([0.5, 0.5]), 0.5)


def simplex_project_one(v):
    """Held-Wolfe-Crowder simplex projection of one vector, written as a
    scalar loop body: the oracle the row-wise projection must match bit
    for bit."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_candidates = u + (1.0 - css) / np.arange(1, len(v) + 1)
    rho = int(np.nonzero(rho_candidates > 0)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1)
    w = np.clip(v - theta, 0.0, None)
    return w / float(np.sum(w))


def _scalar_project(space, z):
    """Project one vector: scalar simplex projection, clip for boxes."""
    if isinstance(space, HBOSpace):
        n = space.simplex.n
        return np.concatenate(
            [simplex_project_one(z[:n]), np.clip(z[n:], space.box.low, space.box.high)]
        )
    if isinstance(space, BoxSpace):
        return np.clip(z, space.low, space.high)
    return simplex_project_one(z)


def _scalar_perturb(space, z, scale, gen):
    """The scalar perturbation formulas, one row at a time: the oracle
    every batched draw must reproduce bit for bit."""
    if isinstance(space, HBOSpace):
        n = space.simplex.n
        c = simplex_project_one(z[:n] + gen.normal(0.0, scale, n))
        span = space.box.high - space.box.low
        x = np.clip(z[n:] + gen.normal(0.0, scale * span), space.box.low, space.box.high)
        return np.concatenate([c, x])
    if isinstance(space, BoxSpace):
        span = space.high - space.low
        return np.clip(z + gen.normal(0.0, scale * span), space.low, space.high)
    return simplex_project_one(z + gen.normal(0.0, scale, space.n))


def _scalar_pool(space, gen, n_uniform, anchors, incumbents, n_local):
    """The candidate pool built one perturbation at a time."""
    pools = [space.sample(gen, size=n_uniform)]
    if anchors is not None:
        pools.append(anchors)
    if n_local > 0 and len(incumbents):
        k = max(1, n_local // (2 * len(incumbents)))
        for scale in (0.05, 0.15):
            for inc in incumbents:
                pools.append(
                    np.asarray([_scalar_perturb(space, inc, scale, gen) for _ in range(k)])
                )
    return np.vstack(pools)


SPACES = [
    pytest.param(HBOSpace(3, r_min=0.1), id="hbo3"),
    pytest.param(HBOSpace(5, r_min=0.25), id="hbo5"),
    pytest.param(BoxSpace([(0.1, 1.0), (-2.0, 2.0), (0.0, 0.5)]), id="box"),
    pytest.param(SimplexSpace(4), id="simplex"),
]


class TestStreamContract:
    """One batched draw consumes the generator exactly like the scalar
    per-row formulas and returns bit-identical rows."""

    @pytest.mark.parametrize("space", SPACES)
    def test_perturb_rows_matches_scalar_formulas(self, space):
        centers = np.vstack([space.sample(make_rng(3), size=3)] * 2)
        scales = [0.05, 0.05, 0.05, 0.15, 0.0, 2.0]
        a, b = make_rng(99), make_rng(99)
        rows = space.perturb_rows(centers, scales, a)
        expected = np.stack(
            [_scalar_perturb(space, z, s, b) for z, s in zip(centers, scales)]
        )
        np.testing.assert_array_equal(rows, expected)
        assert a.uniform() == b.uniform()

    @pytest.mark.parametrize("space", SPACES)
    def test_scalar_perturb_is_one_row(self, space):
        z = space.sample(make_rng(4))[0]
        a, b = make_rng(7), make_rng(7)
        np.testing.assert_array_equal(
            space.perturb(z, 0.1, a), _scalar_perturb(space, z, 0.1, b)
        )
        assert a.uniform() == b.uniform()

    @pytest.mark.parametrize(
        "space",
        [pytest.param(HBOSpace(3), id="hbo3"), pytest.param(BoxSpace([(0.1, 1.0)] * 4), id="box")],
    )
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("with_anchors", [False, True], ids=["no-anchors", "anchors"])
    def test_candidate_pool_matches_scalar_pool(self, space, m, with_anchors):
        incumbents = space.sample(make_rng(5), size=m)
        anchors = space.sample(make_rng(6), size=4) if with_anchors else None
        a, b = make_rng(11), make_rng(11)
        pool = candidate_pool(space, a, 32, anchors, incumbents, 64)
        expected = _scalar_pool(space, b, 32, anchors, incumbents, 64)
        np.testing.assert_array_equal(pool, expected)
        assert a.uniform() == b.uniform()

    def test_candidate_pool_without_local_rows(self):
        space = HBOSpace(3)
        a, b = make_rng(1), make_rng(1)
        no_incumbents = candidate_pool(space, a, 8, None, np.empty((0, 4)), 64)
        no_local = candidate_pool(space, b, 8, None, space.sample(make_rng(2)), 0)
        np.testing.assert_array_equal(no_incumbents, space.sample(make_rng(1), size=8))
        np.testing.assert_array_equal(no_local, no_incumbents)

    def test_optimizer_scores_the_scalar_pool(self, monkeypatch):
        """A guided ask scores the pool around the three best observations,
        with the projected anchors, drawn from the optimizer's stream."""
        space = HBOSpace(3)
        scored = []
        real_predict = GaussianProcess.predict

        def predict(gp, x):
            scored.append(x.copy())
            return real_predict(gp, x)

        monkeypatch.setattr(GaussianProcess, "predict", predict)
        anchors = space.sample(make_rng(8), 5) * 1.5
        opt = BayesianOptimizer(space, n_initial=2, anchors=anchors, seed=3)
        zs = space.sample(make_rng(9), size=5)
        for z, cost in zip(zs, [0.4, 0.1, 0.9, 0.3, 0.2]):
            opt.tell(z, cost)
        opt.ask()
        expected = _scalar_pool(
            space, make_rng(3), opt.n_candidates,
            np.stack([_scalar_project(space, a) for a in anchors]),
            zs[[1, 4, 3]], opt.n_local,
        )
        np.testing.assert_array_equal(scored[0], expected)

    @pytest.mark.parametrize("space", SPACES)
    def test_projections_match_scalar_formulas(self, space):
        raw = make_rng(12).normal(scale=3.0, size=(9, space.dim))
        raw[0] *= 1e9  # cancellation in the renormalization
        raw[1] = 1.0 / space.dim  # ties, on or near the feasible set
        expected = np.stack([_scalar_project(space, r) for r in raw])
        np.testing.assert_array_equal(space.project_rows(raw), expected)
        np.testing.assert_array_equal(np.stack([space.project(r) for r in raw]), expected)

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("scale", [-0.1, np.nan, np.inf])
    def test_bad_scale_raises_search_space_error(self, space, scale):
        z = space.sample(make_rng(0))[0]
        with pytest.raises(SearchSpaceError):
            space.perturb(z, scale, make_rng(0))
        with pytest.raises(SearchSpaceError):
            space.perturb_rows(np.stack([z, z]), [0.1, scale], make_rng(0))

    def test_perturb_rows_shape_errors(self):
        space = HBOSpace(3)
        with pytest.raises(SearchSpaceError):
            space.perturb_rows(np.zeros((2, 3)), [0.1, 0.1], make_rng(0))
        with pytest.raises(SearchSpaceError):
            space.perturb_rows(np.zeros((2, 4)), [0.1], make_rng(0))


class TestStackedCandidatePool:
    """One B-session ``candidate_pool`` call equals B one-session calls,
    bit for bit, and leaves every stream where its own call leaves it."""

    @pytest.mark.parametrize(
        "space",
        [pytest.param(HBOSpace(3), id="hbo3"), pytest.param(BoxSpace([(0.1, 1.0)] * 4), id="box")],
    )
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n_local", [0, 64])
    @pytest.mark.parametrize("with_anchors", [False, True], ids=["no-anchors", "anchors"])
    def test_matches_one_session_calls(self, space, m, n_local, with_anchors):
        incumbents = space.sample(make_rng(5), size=4 * m).reshape(4, m, space.dim)
        anchors = space.sample(make_rng(6), size=4) if with_anchors else None
        rngs = [make_rng(seed) for seed in (11, 12, 13, 14)]
        alone = [make_rng(seed) for seed in (11, 12, 13, 14)]
        pools = candidate_pool(space, rngs, 32, anchors, incumbents, n_local)
        assert pools.shape[0] == 4
        for pool, inc, rng, own in zip(pools, incumbents, rngs, alone):
            expected = candidate_pool(space, own, 32, anchors, inc, n_local)
            assert pool.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == own.bit_generator.state

    def test_one_stream_per_session_and_at_least_one(self):
        space = HBOSpace(3)
        incumbents = space.sample(make_rng(5), size=2)[:, None]
        with pytest.raises(ConfigurationError):
            candidate_pool(space, [make_rng(1)], 8, None, incumbents, 4)
        with pytest.raises(ConfigurationError):
            candidate_pool(space, [], 8, None, incumbents[:0], 4)

    @pytest.mark.parametrize("space", SPACES)
    def test_perturb_rows_projects_jitter_rows(self, space):
        centers = space.sample(make_rng(3), size=4)
        a, b = make_rng(21), make_rng(21)
        jittered = space.jitter_rows(centers, [0.05, 0.15, 0.0, 1.0], a)
        projected = space.perturb_rows(centers, [0.05, 0.15, 0.0, 1.0], b)
        np.testing.assert_array_equal(space.project_rows(jittered), projected)
        assert a.bit_generator.state == b.bit_generator.state
