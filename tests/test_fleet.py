"""Tests for the fleet serving layer: guided proposal service, sessions,
scheduler determinism, and cross-session warm starting."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from repro.bo.acquisition import ExpectedImprovement, expected_improvement
from repro.bo.gp import GaussianProcess, GPPosterior
from repro.bo.kernels import Matern
from repro.bo.optimizer import BayesianOptimizer, candidate_pool
from repro.bo.space import HBOSpace
from repro.core.controller import HBOConfig
from repro.device.profiles import GALAXY_S22, PIXEL7
from repro.device.resources import Resource
from repro.edge.topology import EdgeTopology, EdgeTopologyConfig
from repro.errors import ConfigurationError, FleetError, GPFitError
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    SessionPhase,
    SessionSpec,
    SharedConfigStore,
    SharedOptimizerService,
    run_fleet,
)
from repro.device.thermal import ThermalSpec
from repro.fleet import batch as batch_module
from repro.fleet.scheduler import batched_steady, propose_and_begin
from repro.fleet.session import FleetSession
from repro.fleet.table import SessionTable
from repro.fleet.telemetry import (
    FleetSessionReport,
    convergence_histogram,
    fleet_aggregates,
    iterations_to_converge,
)
from repro.obs import Tracer, instrumented
from repro.rng import make_rng, spawn_rngs
from repro.fleet.export import fleet_result_to_dict

FAST = HBOConfig(n_initial=2, n_iterations=2)
#: The pool settings a fleet session's optimizer carries.
FLEET_POOL = {"n_candidates": 256, "n_local": 32, "n_incumbents": 1}


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


class TestBatchedExpectedImprovement:
    def test_degenerate_std_falls_back_to_improvement(self):
        mean = np.array([[0.5, 1.5]])
        std = np.array([[0.0, 0.0]])
        scores = expected_improvement(mean, std, np.array([[1.0]]), xi=0.0)
        np.testing.assert_allclose(scores, [[0.5, 0.0]])


class TestSharedOptimizerService:
    def _seeded_optimizer(self, seed, n_obs=4, dim_resources=3, **pool):
        space = HBOSpace(dim_resources, r_min=0.1)
        optimizer = BayesianOptimizer(
            space=space, n_initial=2, seed=seed, **{**FLEET_POOL, **pool}
        )
        rng = make_rng(seed + 1)
        for z in space.sample(rng, size=n_obs):
            optimizer.tell(z, float(rng.normal()))
        return optimizer

    def test_proposals_stay_in_space(self):
        optimizers = [
            self._seeded_optimizer(seed, n_candidates=32, n_local=4)
            for seed in (1, 2, 3)
        ]
        proposals = SharedOptimizerService().propose(optimizers, spawn_rngs(9, 3))
        assert len(proposals) == 3
        for optimizer, z in zip(optimizers, proposals):
            assert optimizer.space.contains(z)

    def test_empty_batch_is_noop(self):
        service = SharedOptimizerService()
        assert service.propose([], []) == []

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

    @pytest.mark.parametrize(
        "pool",
        [
            {"n_candidates": 64},
            {"n_local": 0},
            {"n_incumbents": 3},
            {"acquisition": ExpectedImprovement(xi=0.1)},
        ],
        ids=["n_candidates", "n_local", "n_incumbents", "xi"],
    )
    def test_mixed_pool_settings_rejected(self, pool):
        optimizers = [self._seeded_optimizer(1), self._seeded_optimizer(2, **pool)]
        with pytest.raises(ConfigurationError, match="n_candidates"):
            SharedOptimizerService().propose(optimizers, spawn_rngs(9, 2))

    def test_acquisitions_compare_by_value(self):
        """Every session builds its own EI; equal parameters batch."""
        optimizers = [
            self._seeded_optimizer(seed, acquisition=ExpectedImprovement())
            for seed in (1, 2)
        ]
        assert optimizers[0].acquisition is not optimizers[1].acquisition
        assert len(SharedOptimizerService().propose(optimizers, spawn_rngs(9, 2))) == 2

    @staticmethod
    def _tier_mix(length_scale, noise):
        """Two exact-tier sessions and one sparse session past n* = 6,
        all carrying the given GP config."""
        cost = lambda z: float(np.sum((z - 0.3) ** 2))  # noqa: E731
        optimizers = []
        for seed, (tier, n_obs) in enumerate(
            (("exact", 4), ("exact", 7), ("sparse", 12)), start=1
        ):
            space = HBOSpace(3, r_min=0.1)
            optimizer = BayesianOptimizer(
                space,
                n_initial=2,
                kernel=Matern(length_scale=length_scale, nu=2.5),
                noise=noise,
                seed=seed,
                gp_tier=tier,
                sparse_threshold=6,
                **FLEET_POOL,
            )
            for z in space.sample(make_rng(seed + 10), size=n_obs):
                optimizer.tell(z, cost(z))
            optimizers.append(optimizer)
        assert optimizers[2].sparse_active
        return optimizers

    @staticmethod
    def _pool(optimizer, rng):
        """A copy of ``rng`` advanced past the session's pool, and the pool."""
        rng = copy.deepcopy(rng)
        pool = candidate_pool(
            optimizer.space, rng, optimizer.n_candidates, None,
            optimizer.best().z[None], optimizer.n_local,
        )
        return rng, pool

    def _reference(self, optimizer, rng):
        """The session's own exact GP + EI pick over its pool."""
        _, pool = self._pool(optimizer, rng)
        post = (
            GaussianProcess(optimizer.kernel, optimizer.noise)
            .fit(*optimizer.surrogate_dataset())
            .predict(pool)
        )
        scores = expected_improvement(
            post.mean, post.std, optimizer.best().cost, 0.01
        )
        return optimizer.space.project(pool[int(np.nanargmax(scores))])

    @pytest.mark.parametrize(
        "length_scale,noise", [(1.0, 1e-3), (0.3, 1e-2)], ids=["paper", "custom"]
    )
    def test_proposals_use_each_sessions_gp_config(self, length_scale, noise):
        optimizers = self._tier_mix(length_scale, noise)
        rngs = spawn_rngs(9, len(optimizers))
        expected = [self._reference(o, r) for o, r in zip(optimizers, rngs)]
        proposals = SharedOptimizerService().propose(optimizers, rngs)
        for z, ref in zip(proposals, expected):
            assert np.array_equal(z, ref)

    def test_degenerate_fit_falls_back_for_that_session_only(self, monkeypatch):
        optimizers = self._tier_mix(1.0, 1e-3)
        rngs = spawn_rngs(9, len(optimizers))
        expected = [self._reference(o, r) for o, r in zip(optimizers, rngs)]
        after_pool, _ = self._pool(optimizers[1], rngs[1])
        space = optimizers[1].space
        expected[1] = space.project(space.sample(after_pool, size=1)[0])

        degenerate_x = optimizers[1].surrogate_dataset()[0]
        real_fit = GaussianProcess.fit

        def fit(gp, x, y):
            if np.array_equal(x, degenerate_x):
                raise GPFitError("forced degenerate fit")
            return real_fit(gp, x, y)

        monkeypatch.setattr(batch_module.GaussianProcess, "fit", fit)
        tracer = Tracer()
        with instrumented(tracer):
            proposals = SharedOptimizerService().propose(optimizers, rngs)
        for z, ref in zip(proposals, expected):
            assert np.array_equal(z, ref)
        (span,) = [s for s in tracer.spans if s.name == "fleet.batched_gp"]
        assert dict(span.args)["degenerate_fit"] is True


class TestStackedProposals:
    """One B-session ``propose`` equals B one-session calls on deep copies
    of the optimizers and streams, bit for bit, and leaves every stream
    where the one-session call leaves it."""

    @staticmethod
    def _sessions(**pool):
        """Mixed observation counts, and a sparse session past n* = 6."""
        cost = lambda z: float(np.sum((z - 0.3) ** 2))  # noqa: E731
        optimizers = []
        for seed, (tier, n_obs) in enumerate(
            (("exact", 2), ("exact", 5), ("sparse", 11), ("exact", 9), ("exact", 3)),
            start=1,
        ):
            space = HBOSpace(3, r_min=0.1)
            optimizer = BayesianOptimizer(
                space, n_initial=2, seed=seed, gp_tier=tier, sparse_threshold=6,
                **{**FLEET_POOL, **pool},
            )
            for z in space.sample(make_rng(seed + 20), size=n_obs):
                optimizer.tell(z, cost(z))
            optimizers.append(optimizer)
        assert optimizers[2].sparse_active
        return optimizers

    @staticmethod
    def _assert_stacked_matches_alone(service, optimizers):
        rngs = spawn_rngs(11, len(optimizers))
        alone = []
        for optimizer, rng in zip(optimizers, rngs):
            own = copy.deepcopy(rng)
            (z,) = service.propose([copy.deepcopy(optimizer)], [own])
            alone.append((z, own.bit_generator.state))
        stacked = service.propose(optimizers, rngs)
        assert len(stacked) == len(optimizers)
        for z, rng, (z_alone, state) in zip(stacked, rngs, alone):
            assert z.tobytes() == z_alone.tobytes()
            assert rng.bit_generator.state == state
        return stacked

    @pytest.mark.parametrize("n_local", [32, 0])
    def test_mixed_sessions(self, n_local):
        self._assert_stacked_matches_alone(
            SharedOptimizerService(), self._sessions(n_candidates=64, n_local=n_local)
        )

    def test_forced_degenerate_fit(self, monkeypatch):
        optimizers = self._sessions()
        degenerate_x = optimizers[1].surrogate_dataset()[0]
        real_fit = GaussianProcess.fit

        def fit(gp, x, y):
            if np.array_equal(x, degenerate_x):
                raise GPFitError("forced degenerate fit")
            return real_fit(gp, x, y)

        monkeypatch.setattr(batch_module.GaussianProcess, "fit", fit)
        self._assert_stacked_matches_alone(SharedOptimizerService(), optimizers)

    def test_all_nan_scores(self, monkeypatch):
        optimizers = self._sessions()
        nan_x = optimizers[3].surrogate_dataset()[0]
        real_predict = GaussianProcess.predict

        def predict(gp, x):
            post = real_predict(gp, x)
            if np.array_equal(gp._x_train, nan_x):
                return GPPosterior(np.full_like(post.mean, np.nan), post.std)
            return post

        monkeypatch.setattr(batch_module.GaussianProcess, "predict", predict)
        stacked = self._assert_stacked_matches_alone(SharedOptimizerService(), optimizers)
        # That session fitted, so like the single-session optimizer it
        # takes its first pool row and draws nothing more.
        stream = spawn_rngs(11, len(optimizers))[3]
        space = optimizers[3].space
        pool = candidate_pool(space, stream, 256, None, optimizers[3].best().z[None], 32)
        assert np.array_equal(stacked[3], space.project_rows(pool[:1])[0])


class TestSessionSpecValidation:
    def test_empty_id(self):
        with pytest.raises(FleetError):
            SessionSpec(session_id="")

    def test_negative_arrival(self):
        with pytest.raises(FleetError):
            SessionSpec(session_id="s", arrival_s=-1.0)

    @pytest.mark.parametrize("arrival_s", [float("nan"), float("inf")])
    def test_non_finite_arrival(self, arrival_s):
        with pytest.raises(FleetError):
            SessionSpec(session_id="s", arrival_s=arrival_s)

    def test_bad_budget(self):
        with pytest.raises(FleetError):
            SessionSpec(session_id="s", n_evaluations=0)


def _standalone_session():
    """The first test spec as a session on its own one-row table."""
    spec = _fleet_specs()[0]
    return FleetSession(spec, FAST, make_rng(1), None, SessionTable((spec,), FAST), 0)


class TestSessionLifecycle:
    def test_step_before_admit(self):
        session = _standalone_session()
        with pytest.raises(FleetError):
            session.decode()
        with pytest.raises(FleetError):
            session.decode(np.full(4, 0.25))
        with pytest.raises(FleetError):
            session.finish()
        assert session.best is None

    def test_double_admission(self):
        session = _standalone_session()
        session.admit(("device",))
        with pytest.raises(FleetError):
            session.admit(("device",))

    def test_phases_progress(self):
        session = _standalone_session()
        table, i = session.table, session.index
        assert session.phase is SessionPhase.WAITING
        session.admit(("device",))
        assert session.active and not session.optimizer.warm_started
        assert not table.warm_started[i]
        costs = []
        while len(table.exhausted_indices()) == 0:
            if session.needs_guided_proposal:
                z = session.optimizer.space.sample(session.rng, size=1)[0]
                pending = session.begin(session.decode(z))
            else:
                pending = session.begin(session.decode())
            costs.append(session.finish_step(pending).cost)
        session.finish()
        assert session.done
        n = int(table.n_results[i])
        assert n == FAST.total_evaluations
        assert list(table.costs[i, :n]) == costs
        assert table.best_cost[i] == min(costs) == session.best.cost


class TestBatchedSteady:
    def test_thermal_session_gets_the_batched_row(self):
        """A thermal session is priced in the tick's one solve like every
        other stepped row, and its row is the unthrottled steady state."""
        specs = _fleet_specs()
        specs[0] = dataclasses.replace(specs[0], thermal=True)
        table = SessionTable(specs, FAST)
        sessions = [
            FleetSession(
                spec, FAST, make_rng(i), topology=None, table=table, index=i,
                thermal=ThermalSpec(ambient_c=60.0),
            )
            for i, spec in enumerate(specs)
        ]
        for session in sessions:
            session.admit(("device",))
            session.begin(session.decode())
        devices = [session.system.device for session in sessions]
        assert devices[0].thermal.throttle_factor() > 1.0
        assert devices[1].thermal is None
        rows = batched_steady(sessions, [0, 1])
        for device, row in zip(devices, rows):
            assert row == device.contention.latencies(
                device.placements(), device.load, device.edge_share()
            )

    def test_mixed_batch_matches_each_device(self):
        """One batch mixing two SoCs, padded task counts, a live EDGE slot
        and a row shed back to its device: every row equals that device's
        own steady state, exactly."""
        specs = [
            SessionSpec(
                session_id=f"s{i}", device=device, scenario=scenario,
                taskset=taskset, placement_seed=7,
            )
            for i, (device, scenario, taskset) in enumerate(
                [
                    (PIXEL7, "SC1", "CF1"),
                    (GALAXY_S22, "SC2", "CF2"),
                    (PIXEL7, "SC2", "CF2"),
                    (GALAXY_S22, "SC1", "CF1"),
                ]
            )
        ]
        topology = EdgeTopology(EdgeTopologyConfig.single())
        node = topology.nodes[0].name
        table = SessionTable(specs, FAST)
        sessions = [
            FleetSession(spec, FAST, make_rng(i), topology=topology,
                         table=table, index=i)
            for i, spec in enumerate(specs)
        ]
        directives = [("device",), ("device",), ("node", node), ("node", node)]
        for session, directive in zip(sessions, directives):
            session.admit(directive)

        def offload_one(session):
            device = session.system.device
            tid = next(
                t.task_id for t in session.system.taskset
                if t.profile.supports(Resource.EDGE)
            )
            device.set_allocation(tid, Resource.EDGE)

        # s3 is priced on the edge once, then shed back to its device.
        sessions[3].begin(sessions[3].decode())
        offload_one(sessions[3])
        batched_steady(sessions, [3])
        topology.detach("s3")
        sessions[3].fallback_to_device()

        for session in sessions:
            session.begin(session.decode())
        offload_one(sessions[2])
        devices = [session.system.device for session in sessions]
        assert devices[2].edge_share() is not None
        assert devices[3].edge_share() is None
        assert Resource.EDGE in devices[2].allocation.values()
        assert len({len(d.task_ids) for d in devices}) > 1
        rows = batched_steady(sessions, [0, 1, 2, 3])
        for device, row in zip(devices, rows):
            assert row == device.contention.latencies(
                device.placements(), device.load, device.edge_share()
            )


class TestGroupedTick:
    def test_grouped_td_matches_per_session_begin(self):
        """After one tick whose TD runs once per object count, every
        stepped session holds what its own ``HBOIteration`` decode + apply give
        on a deep copy: object ratios, scene ratio column, device load,
        and the edge node's demand (applied in the same row order)."""
        specs = [
            SessionSpec(
                session_id=f"s{i}", scenario=("SC1", "SC2")[i % 2],
                taskset="CF1", placement_seed=7 + i,
            )
            for i in range(6)
        ]
        topology = EdgeTopology(EdgeTopologyConfig.single())
        node = topology.nodes[0].name
        table = SessionTable(specs, FAST)
        sessions = [
            FleetSession(spec, FAST, make_rng(i), topology=topology,
                         table=table, index=i)
            for i, spec in enumerate(specs)
        ]
        service = SharedOptimizerService()

        def admit(batch):
            for session in batch:
                session.admit(("node", node) if session.index % 3 else ("device",))

        admit(sessions[:4])
        for _ in range(FAST.n_initial):
            for i, pending in propose_and_begin(service, table, sessions)[0]:
                sessions[i].finish_step(pending)
        admit(sessions[4:])
        copies = copy.deepcopy(sessions)
        stepped, _, n_guided = propose_and_begin(service, table, sessions)
        assert 0 < n_guided < len(stepped) == len(sessions)
        assert sorted({len(s.system.scene) for s in sessions}) == [7, 9]
        for i, pending in stepped:
            own = copies[i].iteration
            alone = own.apply(own.decode(pending.z))
            assert list(pending.object_ratios.items()) == list(alone.object_ratios.items())
            grouped_system, own_system = sessions[i].system, copies[i].system
            assert (
                grouped_system.scene.columns.ratios.tobytes()
                == own_system.scene.columns.ratios.tobytes()
            )
            assert grouped_system.device.load == own_system.device.load
        assert (
            topology.nodes[0].server.snapshot()
            == copies[0]._topology.nodes[0].server.snapshot()
        )


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

    @pytest.mark.parametrize("tick_s", [float("nan"), float("inf")])
    def test_non_finite_tick_rejected(self, tick_s):
        with pytest.raises(FleetError):
            FleetConfig(tick_s=tick_s)

    @pytest.mark.parametrize("shards", [2.5, 2.0, True])
    def test_non_integer_shards_rejected(self, shards):
        with pytest.raises(FleetError):
            FleetConfig(shards=shards)

    def test_warm_start_transfers_from_donor(self):
        """The donor runs cold at t = 0; the follower arrives after the
        donor finished and warm-starts from its donated observations."""
        late = float(FAST.total_evaluations + 1)
        result = run_fleet(
            _fleet_specs(arrivals=(0.0, late)),
            seed=11,
            config=FleetConfig(hbo=FAST),
        )
        reports = {r.session_id: r for r in result.reports}
        donor, follower = reports["s0"], reports["s1"]
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
        reports = {r.session_id: r for r in result.reports}
        assert not reports["s22"].warm_started

    def test_session_budget_override(self):
        spec = SessionSpec(session_id="short", n_evaluations=3)
        result = run_fleet([spec], seed=5, config=FleetConfig(hbo=FAST))
        reports = {r.session_id: r for r in result.reports}
        assert len(reports["short"].costs) == 3

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
