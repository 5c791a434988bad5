"""Tests for the scalable GP tier (docs/optimizer.md).

Covers the tier contract in three layers:

- :func:`~repro.bo.sparse.select_support` — a deterministic, seeded pure
  function of the observation sequence;
- the sparse-tier fit (the exact GP on
  :meth:`~repro.bo.optimizer.BayesianOptimizer.surrogate_dataset`) —
  bitwise parity with the exact GP at n ≤ budget, bounded support above
  it;
- the optimizer/fleet integration — sparse-tier proposals reproduce from
  (seed, observation sequence) alone, and tier-off runs stay
  byte-identical at the CLI level.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bo import BayesianOptimizer, GaussianProcess, select_support
from repro.bo.space import BoxSpace, HBOSpace
from repro.bo.optimizer import Observation
from repro.cli import main
from repro.errors import ConfigurationError, FleetError, GPFitError
from repro.fleet.batch import SharedOptimizerService
from repro.rng import make_rng, spawn_rngs


def _data(n, d=3, seed=0):
    rng = make_rng(seed)
    x = rng.uniform(size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.3 * rng.normal(size=n)
    return x, y


class TestSelectSupport:
    def test_small_n_keeps_everything_in_order(self):
        _, y = _data(10)
        assert np.array_equal(select_support(y, 16), np.arange(10))
        assert np.array_equal(select_support(y, 10), np.arange(10))

    def test_pure_function_of_seed_and_sequence(self):
        _, y = _data(100)
        a = select_support(y, 16, seed=5)
        b = select_support(y, 16, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, select_support(y, 16, seed=6))

    def test_keeps_the_incumbent_and_the_most_recent(self):
        _, y = _data(100)
        idx = select_support(y, 16, seed=0)
        assert idx.shape[0] == 16
        assert int(np.argmin(y)) in idx  # incumbent survives
        assert 99 in idx  # newest observation survives
        assert np.array_equal(idx, np.sort(idx))  # insertion order preserved

    def test_budget_respected_exactly(self):
        _, y = _data(500)
        assert select_support(y, 32, seed=1).shape[0] == 32

    def test_rejects_tiny_budget(self):
        _, y = _data(10)
        with pytest.raises(GPFitError):
            select_support(y, 3)


def _told_optimizer(x, y, threshold):
    """A sparse-tier optimizer told ``(x, y)``, with support budget n*."""
    opt = BayesianOptimizer(
        BoxSpace([(0.0, 1.0)] * x.shape[1]),
        gp_tier="sparse",
        sparse_threshold=threshold,
    )
    for z, cost in zip(x, y):
        opt.tell(z, cost)
    return opt


class TestSparseGaussianProcess:
    def test_bitwise_parity_with_exact_at_small_n(self):
        # n ≤ budget runs the identical exact fit: same ops, same order.
        for n in (2, 8, 32):
            x, y = _data(n, seed=n)
            q, _ = _data(9, seed=99)
            exact = GaussianProcess(noise=1e-3).fit(x, y).predict(q)
            sparse = _told_optimizer(x, y, 32)._fit_surrogate().predict(q)
            assert np.array_equal(exact.mean, sparse.mean)
            assert np.array_equal(exact.std, sparse.std)

    def test_large_n_conditions_on_the_budget_only(self):
        x, y = _data(300)
        opt = _told_optimizer(x, y, 24)
        assert opt._fit_surrogate().n_observations == 24
        assert opt.n_observations == 300
        assert opt.surrogate_dataset()[0].shape == (24, 3)

    def test_refit_is_deterministic(self):
        x, y = _data(200)
        q, _ = _data(5, seed=7)
        a = _told_optimizer(x, y, 16)._fit_surrogate().predict(q)
        b = _told_optimizer(x, y, 16)._fit_surrogate().predict(q)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)

    def test_shape_mismatch_rejected(self):
        # The support rows must be paired with the support costs.
        x, y = _data(200)
        support = select_support(y, 16)
        with pytest.raises(GPFitError):
            GaussianProcess().fit(x[support], y)


def _seeded_optimizer(seed, tier="sparse", threshold=8, n_initial=3):
    space = BoxSpace([(0.0, 1.0), (0.0, 1.0)])
    return BayesianOptimizer(
        space,
        n_initial=n_initial,
        seed=seed,
        gp_tier=tier,
        sparse_threshold=threshold,
    )


class TestOptimizerSparseTier:
    def test_tier_validation(self):
        space = BoxSpace([(0.0, 1.0)])
        with pytest.raises(ConfigurationError):
            BayesianOptimizer(space, gp_tier="dense")
        with pytest.raises(ConfigurationError):
            BayesianOptimizer(space, gp_tier="sparse", sparse_threshold=2)

    def test_auto_switch_at_threshold(self):
        opt = _seeded_optimizer(seed=4, threshold=6)
        cost = lambda z: float(np.sum(z**2))  # noqa: E731
        while opt.n_observations <= 6:
            assert not opt.sparse_active
            z = opt.ask()
            opt.tell(z, cost(z))
        assert opt.sparse_active
        opt.tell(opt.ask(), 0.1)  # sparse-tier ask still works

    def test_exact_and_sparse_identical_below_threshold(self):
        # The parity regime: with n never exceeding n*, every sparse-tier
        # draw and fit is the exact tier's, so trajectories are bitwise
        # equal — this is what keeps tier-off behavior unchanged.
        cost = lambda z: float(np.sum((z - 0.4) ** 2))  # noqa: E731
        a = _seeded_optimizer(seed=11, tier="exact")
        b = _seeded_optimizer(seed=11, tier="sparse", threshold=32)
        for _ in range(20):
            za, zb = a.ask(), b.ask()
            assert np.array_equal(za, zb)
            a.tell(za, cost(za))
            b.tell(zb, cost(zb))

    def test_surrogate_dataset_matches_select_support(self):
        opt = _seeded_optimizer(seed=2, threshold=6)
        cost = lambda z: float(np.sum(z))  # noqa: E731
        for _ in range(12):
            z = opt.ask()
            opt.tell(z, cost(z))
        assert opt.sparse_active
        xs, ys = opt.surrogate_dataset()
        y_all = np.asarray([o.cost for o in opt.state.observations])
        idx = select_support(y_all, 6, seed=0)
        assert xs.shape[0] == 6
        assert np.array_equal(ys, y_all[idx])

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        costs=st.lists(
            st.floats(
                min_value=-10.0,
                max_value=10.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=10,
            max_size=24,
        ),
    )
    def test_sparse_proposal_is_pure_function_of_seed_and_sequence(
        self, seed, costs
    ):
        # Replaying the same (seed, observation sequence) into a fresh
        # optimizer must reproduce the sparse-tier proposal bit-for-bit:
        # no hidden state, no extra RNG draws in the support selection.
        rng = make_rng(seed)
        zs = rng.uniform(size=(len(costs), 2))
        donors = [
            Observation(z=z, cost=c) for z, c in zip(zs, costs)
        ]
        proposals = []
        for _ in range(2):
            opt = _seeded_optimizer(seed=seed, threshold=8, n_initial=3)
            opt.warm_start(donors)
            assert opt.sparse_active
            proposals.append(opt.ask())
        assert np.array_equal(proposals[0], proposals[1])


class TestBatchedServiceSparse:
    def test_propose_prices_sparse_sessions_from_their_support_set(self):
        cost = lambda z: float(np.sum((z - 0.3) ** 2))  # noqa: E731
        opts = [
            BayesianOptimizer(
                HBOSpace(3, r_min=0.1),
                n_initial=3,
                seed=s,
                gp_tier="sparse",
                sparse_threshold=6,
            )
            for s in (1, 2)
        ]
        for opt in opts:
            for _ in range(12):
                z = opt.ask()
                opt.tell(z, cost(z))
            assert opt.sparse_active
        service = SharedOptimizerService()
        first = service.propose(opts, spawn_rngs(9, len(opts)))
        # Identical sessions + fresh identical streams → identical batch.
        second = SharedOptimizerService().propose(
            opts, spawn_rngs(9, len(opts))
        )
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        # Sparse sessions are priced on their support set alone.
        widths = {x.shape[0] for x, _ in (o.surrogate_dataset() for o in opts)}
        assert widths == {6}

    def test_propose_rejects_non_simplex_spaces(self):
        opt = _seeded_optimizer(seed=1)
        z = opt.ask()
        opt.tell(z, 1.0)
        with pytest.raises(FleetError, match="HBOSpace"):
            SharedOptimizerService().propose([opt], spawn_rngs(9, 1))


class TestTierOffByteIdentity:
    def test_fleet_cli_default_equals_explicit_exact_at_seed_2024(
        self, capsys
    ):
        args = ["fleet", "--sessions", "4", "--seed", "2024",
                "--initial", "2", "--iterations", "3"]
        assert main(args) == 0
        default_out = capsys.readouterr().out
        assert main(args + ["--gp-tier", "exact"]) == 0
        exact_out = capsys.readouterr().out
        assert default_out == exact_out

    def test_sparse_below_threshold_is_byte_identical_to_exact(self, capsys):
        # 2 + 3 = 5 observations per session never reaches n* = 999, so
        # the sparse tier must leave the run untouched down to the byte.
        args = ["fleet", "--sessions", "4", "--seed", "2024",
                "--initial", "2", "--iterations", "3"]
        assert main(args) == 0
        default_out = capsys.readouterr().out
        assert main(args + ["--gp-tier", "sparse",
                            "--gp-threshold", "999"]) == 0
        sparse_out = capsys.readouterr().out
        assert default_out == sparse_out
