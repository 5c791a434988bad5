"""Tests for the fleet serving layer: batched GP service, sessions,
scheduler determinism, and cross-session warm starting."""

import dataclasses
import json

import numpy as np
import pytest

from repro.bo.acquisition import ExpectedImprovement, expected_improvement
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import RBF, Matern
from repro.bo.optimizer import BayesianOptimizer
from repro.bo.space import HBOSpace
from repro.core.controller import HBOConfig
from repro.device.profiles import GALAXY_S22, PIXEL7
from repro.errors import FleetError, GPFitError
from repro.fleet import (
    BatchedGPService,
    FleetConfig,
    FleetScheduler,
    SessionPhase,
    SessionSpec,
    SharedConfigStore,
    SharedOptimizerService,
    batched_kernel_matrix,
    run_fleet,
)
from repro.fleet.session import FleetSession
from repro.fleet.telemetry import (
    FleetSessionReport,
    convergence_histogram,
    cost_trajectories,
    fleet_aggregates,
    iterations_to_converge,
)
from repro.rng import make_rng, spawn_rngs
from repro.fleet.export import fleet_result_to_dict

FAST = HBOConfig(n_initial=2, n_iterations=2)


def _fleet_specs(arrivals=(0.0, 0.0)):
    """A tiny two-cohort fleet (same device so warm starts can fire)."""
    return [
        SessionSpec(
            session_id=f"s{i}",
            device=PIXEL7,
            scenario="SC1",
            taskset="CF1",
            arrival_s=arrival_s,
            placement_seed=7,
        )
        for i, arrival_s in enumerate(arrivals)
    ]


def _datasets(rng, sizes, dim=4):
    xs = [rng.uniform(0.1, 1.0, size=(n, dim)) for n in sizes]
    ys = [rng.normal(0.0, 1.0, size=n) for n in sizes]
    return xs, ys


class TestBatchedKernel:
    @pytest.mark.parametrize(
        "kernel",
        [Matern(0.8, 2.5), Matern(0.8, 1.5), Matern(0.8, 0.5), RBF(0.8)],
        ids=["matern25", "matern15", "matern05", "rbf"],
    )
    def test_matches_reference_kernel(self, rng, kernel):
        xa = rng.uniform(0.0, 1.0, size=(3, 5, 4))
        xb = rng.uniform(0.0, 1.0, size=(3, 6, 4))
        batched = batched_kernel_matrix(kernel, xa, xb)
        for b in range(3):
            np.testing.assert_allclose(
                batched[b], kernel(xa[b], xb[b]), atol=1e-12
            )

    def test_rejects_bad_shapes(self, rng):
        good = rng.uniform(size=(2, 3, 4))
        with pytest.raises(FleetError):
            batched_kernel_matrix(Matern(1.0, 2.5), good, rng.uniform(size=(3, 3, 4)))
        with pytest.raises(FleetError):
            batched_kernel_matrix(Matern(1.0, 2.5), good[0], good)


class TestBatchedGPService:
    def test_ragged_batch_matches_per_session_gp(self, rng):
        """Padded ghost rows must leave every posterior bit-comparable to
        a per-session GaussianProcess fit."""
        kernel = Matern(length_scale=1.0, nu=2.5)
        xs, ys = _datasets(rng, sizes=(3, 7, 5))
        queries = rng.uniform(0.1, 1.0, size=(3, 9, 4))
        service = BatchedGPService(kernel=kernel, noise=1e-3)
        mean, std = service.posterior(xs, ys, queries)
        assert mean.shape == (3, 9) and std.shape == (3, 9)
        for b in range(3):
            reference = GaussianProcess(kernel=kernel, noise=1e-3).fit(xs[b], ys[b])
            post = reference.predict(queries[b])
            np.testing.assert_allclose(mean[b], post.mean, atol=1e-8)
            np.testing.assert_allclose(std[b], post.std, atol=1e-8)

    def test_batched_ei_matches_reference(self, rng):
        kernel = Matern(length_scale=1.0, nu=2.5)
        xs, ys = _datasets(rng, sizes=(4, 6))
        queries = rng.uniform(0.1, 1.0, size=(2, 12, 4))
        service = BatchedGPService(kernel=kernel, noise=1e-3)
        mean, std = service.posterior(xs, ys, queries)
        best_y = np.asarray([y.min() for y in ys])
        scores = expected_improvement(mean, std, best_y[:, None], xi=0.01)
        acquisition = ExpectedImprovement(xi=0.01)
        for b in range(2):
            reference = GaussianProcess(kernel=kernel, noise=1e-3).fit(xs[b], ys[b])
            np.testing.assert_allclose(
                scores[b],
                acquisition(reference, queries[b], float(best_y[b])),
                atol=1e-8,
            )

    def test_degenerate_std_falls_back_to_improvement(self):
        mean = np.array([[0.5, 1.5]])
        std = np.array([[0.0, 0.0]])
        scores = expected_improvement(mean, std, np.array([[1.0]]), xi=0.0)
        np.testing.assert_allclose(scores, [[0.5, 0.0]])

    def test_validation_errors(self, rng):
        service = BatchedGPService()
        with pytest.raises(GPFitError):
            service.posterior([], [], np.zeros((0, 3, 4)))
        xs, ys = _datasets(rng, sizes=(3, 3))
        with pytest.raises(GPFitError):
            service.posterior(xs, ys[:1], rng.uniform(size=(2, 5, 4)))
        with pytest.raises(GPFitError):
            service.posterior([np.zeros((0, 4))], [np.zeros(0)],
                              rng.uniform(size=(1, 5, 4)))
        bad_y = [ys[0], np.array([np.nan, 0.0, 0.0])]
        with pytest.raises(GPFitError):
            service.posterior(xs, bad_y, rng.uniform(size=(2, 5, 4)))
        with pytest.raises(GPFitError):
            BatchedGPService(noise=-1.0)


class TestSharedOptimizerService:
    def _seeded_optimizer(self, seed, n_obs=4, dim_resources=3):
        space = HBOSpace(dim_resources, r_min=0.1)
        optimizer = BayesianOptimizer(space=space, n_initial=2, seed=seed)
        rng = make_rng(seed + 1)
        for z in space.sample(rng, size=n_obs):
            optimizer.tell(z, float(rng.normal()))
        return optimizer

    def test_proposals_stay_in_space(self):
        optimizers = [self._seeded_optimizer(seed) for seed in (1, 2, 3)]
        service = SharedOptimizerService(n_candidates=32, n_local=4)
        proposals = service.propose(optimizers, spawn_rngs(9, 3))
        assert len(proposals) == 3
        for optimizer, z in zip(optimizers, proposals):
            assert optimizer.space.contains(z)
        assert service.batches == 1
        assert service.proposals_served == 3

    def test_empty_batch_is_noop(self):
        service = SharedOptimizerService()
        assert service.propose([], []) == []
        assert service.batches == 0

    def test_rng_count_mismatch(self):
        service = SharedOptimizerService()
        with pytest.raises(FleetError):
            service.propose([self._seeded_optimizer(1)], spawn_rngs(9, 2))

    def test_mixed_dimensions_rejected(self):
        service = SharedOptimizerService()
        optimizers = [
            self._seeded_optimizer(1, dim_resources=3),
            self._seeded_optimizer(2, dim_resources=5),
        ]
        with pytest.raises(FleetError):
            service.propose(optimizers, spawn_rngs(9, 2))

    def test_constructor_validation(self):
        with pytest.raises(FleetError):
            SharedOptimizerService(n_candidates=0)
        with pytest.raises(FleetError):
            SharedOptimizerService(n_local=-1)


class TestSessionSpecValidation:
    def test_empty_id(self):
        with pytest.raises(FleetError):
            SessionSpec(session_id="")

    def test_negative_arrival(self):
        with pytest.raises(FleetError):
            SessionSpec(session_id="s", arrival_s=-1.0)

    def test_bad_budget(self):
        with pytest.raises(FleetError):
            SessionSpec(session_id="s", n_evaluations=0)


class TestSessionLifecycle:
    def test_step_before_admit(self):
        session = FleetSession(_fleet_specs()[0], FAST, make_rng(1))
        with pytest.raises(FleetError):
            session.step_initial()
        with pytest.raises(FleetError):
            session.finish(0)
        with pytest.raises(FleetError):
            session.best_cost()

    def test_double_admission(self):
        session = FleetSession(_fleet_specs()[0], FAST, make_rng(1))
        session.admit(0, ("device",))
        with pytest.raises(FleetError):
            session.admit(1, ("device",))

    def test_phases_progress(self):
        session = FleetSession(_fleet_specs()[0], FAST, make_rng(1))
        assert session.phase is SessionPhase.WAITING
        session.admit(0, ("device",))
        assert session.active and not session.warm_started
        while not session.budget_exhausted:
            if session.needs_guided_proposal:
                z = session.optimizer.space.sample(session.rng, size=1)[0]
                session.step_guided(z)
            else:
                session.step_initial()
        session.finish(len(session.results))
        assert session.done
        assert len(session.costs()) == FAST.total_evaluations
        assert session.best_cost() == min(session.costs())


class TestFleetScheduler:
    def test_empty_specs_rejected(self):
        with pytest.raises(FleetError):
            FleetScheduler([])

    def test_duplicate_ids_rejected(self):
        specs = [SessionSpec(session_id="dup"), SessionSpec(session_id="dup")]
        with pytest.raises(FleetError):
            FleetScheduler(specs)

    def test_tick_validation(self):
        with pytest.raises(FleetError):
            FleetConfig(tick_s=0.0)

    def test_warm_start_transfers_from_donor(self):
        """The donor runs cold at t = 0; the follower arrives after the
        donor finished and warm-starts from its donated observations."""
        late = float(FAST.total_evaluations + 1)
        result = run_fleet(
            _fleet_specs(arrivals=(0.0, late)),
            seed=11,
            config=FleetConfig(hbo=FAST),
        )
        donor = result.report_for("s0")
        follower = result.report_for("s1")
        assert not donor.warm_started and donor.n_warm == 0
        assert follower.warm_started
        assert follower.warm_source == "s0"
        assert follower.n_warm > 0
        assert result.store_stats["donations"] == 2
        assert result.store_stats["transfers"] == 1

    def test_cold_fleet_ignores_store(self):
        late = float(FAST.total_evaluations + 1)
        result = run_fleet(
            _fleet_specs(arrivals=(0.0, late)),
            seed=11,
            config=FleetConfig(hbo=FAST, warm_start=False),
        )
        assert not any(r.warm_started for r in result.reports)
        assert result.aggregates.median_converged_warm is None

    def test_seed_reproduces_fleet_trace(self):
        """Same seed → bit-identical exported trace, arrivals staggered."""
        specs = _fleet_specs(arrivals=(0.0, 2.0, 5.0))
        results = [
            run_fleet(specs, seed=2024, config=FleetConfig(hbo=FAST))
            for _ in range(2)
        ]
        traces = [
            json.dumps(fleet_result_to_dict(r), sort_keys=True) for r in results
        ]
        assert traces[0] == traces[1]

    def test_different_seeds_diverge(self):
        specs = _fleet_specs()
        a = run_fleet(specs, seed=1, config=FleetConfig(hbo=FAST))
        b = run_fleet(specs, seed=2, config=FleetConfig(hbo=FAST))
        assert [r.costs for r in a.reports] != [r.costs for r in b.reports]

    def test_mixed_devices_share_nothing(self):
        """Scopes key by device model: a Galaxy S22 follower must not
        warm-start from a Pixel 7 donation."""
        late = float(FAST.total_evaluations + 1)
        specs = [
            SessionSpec(session_id="pixel", device=PIXEL7, arrival_s=0.0),
            SessionSpec(session_id="s22", device=GALAXY_S22, arrival_s=late),
        ]
        result = run_fleet(specs, seed=3, config=FleetConfig(hbo=FAST))
        assert not result.report_for("s22").warm_started

    def test_session_budget_override(self):
        spec = SessionSpec(session_id="short", n_evaluations=3)
        result = run_fleet([spec], seed=5, config=FleetConfig(hbo=FAST))
        assert len(result.report_for("short").costs) == 3

    def test_report_for_unknown_session(self):
        result = run_fleet(_fleet_specs()[:1], seed=5, config=FleetConfig(hbo=FAST))
        with pytest.raises(FleetError):
            result.report_for("nope")

    def test_export_structure(self):
        result = run_fleet(_fleet_specs(), seed=7, config=FleetConfig(hbo=FAST))
        data = fleet_result_to_dict(result)
        assert set(data) == {
            "tick_s", "ticks", "sessions", "aggregates", "histogram",
            "store", "service",
        }
        assert len(data["sessions"]) == 2
        for session in data["sessions"]:
            assert len(session["costs"]) == FAST.total_evaluations
            assert session["cohort_best_cost"] <= min(session["costs"]) + 1e-12
        assert data["aggregates"]["n_evaluations"] == 2 * FAST.total_evaluations
        assert sum(data["histogram"].values()) == 2
        json.dumps(data)  # must be JSON-serializable as-is


class TestTelemetry:
    def test_iterations_to_converge_self_target(self):
        assert iterations_to_converge([5.0, 0.92, 0.9], floor=0.0) == 2
        assert iterations_to_converge([1.0], floor=0.0) == 1

    def test_iterations_to_converge_cohort_target(self):
        costs = [5.0, 2.0, 1.0]
        assert iterations_to_converge(costs, target=0.9, floor=0.2) == 3
        # An unreachable target censors at the trajectory length.
        assert iterations_to_converge(costs, target=-10.0, floor=0.2) == 3

    def test_iterations_to_converge_validation(self):
        with pytest.raises(FleetError):
            iterations_to_converge([])
        with pytest.raises(FleetError):
            iterations_to_converge([1.0], rel_tol=-0.1)

    def _report(self, session_id="s0", warm=False, costs=(3.0, 1.0)):
        return FleetSessionReport(
            session_id=session_id,
            device=PIXEL7,
            scenario="SC1",
            taskset="CF1",
            arrival_s=0.0,
            start_tick=0,
            end_tick=len(costs),
            warm_started=warm,
            n_warm=4 if warm else 0,
            warm_source="donor" if warm else "",
            costs=tuple(costs),
            latencies_ms=tuple(30.0 for _ in costs),
            qualities=tuple(0.8 for _ in costs),
            best_cost=min(costs),
            cohort_best_cost=min(costs),
            converged_at=iterations_to_converge(costs),
        )

    def test_report_validation(self):
        good = self._report()
        with pytest.raises(FleetError):
            dataclasses.replace(good, costs=())
        with pytest.raises(FleetError):
            dataclasses.replace(good, latencies_ms=(1.0,))

    def test_aggregates_split_warm_cold(self):
        reports = [
            self._report("cold0", warm=False, costs=(3.0, 2.0, 1.0)),
            self._report("warm0", warm=True, costs=(1.1, 1.0)),
        ]
        aggregates = fleet_aggregates(reports)
        assert aggregates.n_sessions == 2
        assert aggregates.n_evaluations == 5
        assert aggregates.median_converged_cold == pytest.approx(3.0)
        assert aggregates.median_converged_warm == pytest.approx(1.0)
        with pytest.raises(FleetError):
            fleet_aggregates([])

    def test_histogram_and_trajectories(self):
        reports = [
            self._report("a", costs=(3.0, 1.0)),
            self._report("b", costs=(2.0, 1.0)),
        ]
        assert convergence_histogram(reports) == {2: 2}
        trajectories = cost_trajectories(reports)
        assert trajectories["a"] == [3.0, 1.0]
        assert trajectories["b"] == [2.0, 1.0]
