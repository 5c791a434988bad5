"""Tests for the fleet's §VI lookup verify and lock-in.

A session admitted with a confirmed warm entry at signature distance
within the single-device lookup threshold applies the donor's best ``z``
as its first (verify) period. If the verify reward holds within §IV-E's
decrease band, every later period only measures that configuration: no
ask, no GP fit, no tell, no apply, no donation. A failed verify, a scene
event or a shed hands the session back to its warm-started BO.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.bo.gp import GaussianProcess
from repro.bo.optimizer import BayesianOptimizer
from repro.core.controller import HBOConfig
from repro.core.frontier import regret
from repro.core.system import MARSystem
from repro.device.profiles import PIXEL7
from repro.edge.topology import EdgeTopologyConfig
from repro.fleet import FleetConfig, FleetScheduler, SessionSpec, SharedConfigStore, run_fleet
from repro.fleet.export import fleet_result_to_dict
from repro.fleet.shard import _ShardWorker
from repro.obs import MetricsRegistry, Tracer, instrumented
from repro.rng import derive_seed, spawn_rngs
from repro.scenarios.generator import default_fleet_specs
from repro.sim.events import DistanceChange

FAST = HBOConfig(n_initial=2, n_iterations=3)
#: The regret gate's fleet: staggered cohorts at a small budget.
GATE = HBOConfig(n_initial=2, n_iterations=3)
GATE_SESSIONS, GATE_SEED = 24, 2024
#: Median and p90 regret of the same fleet's final configurations before
#: lock-in (every session ran its whole budget under BO), measured with
#: :func:`repro.core.frontier.regret`.
PRE_LOCKIN_MEDIAN, PRE_LOCKIN_P90 = 0.089148, 1.164674
REGRET_SLACK = 0.02


def _spec(session_id="s"):
    return SessionSpec(
        session_id=session_id, device=PIXEL7, scenario="SC1", taskset="CF1",
        placement_seed=7,
    )


def _confirmed_store(reward_shift=0.0, topology=None):
    """A store whose one entry (a donor run's best, confirmed) matches
    :func:`_spec`'s environment exactly; ``reward_shift`` inflates the
    entry's stored reward."""
    donor_store = SharedConfigStore()
    run_fleet(
        [_spec("donor")],
        seed=3,
        config=FleetConfig(hbo=FAST, topology=topology),
        store=donor_store,
    )
    (entry,) = donor_store._table_for(PIXEL7).entries()
    store = SharedConfigStore()
    store._table_for(PIXEL7).store(
        dataclasses.replace(
            entry, confirmed=True, reward=entry.reward + reward_shift
        )
    )
    return store


def _one_session(store, **config_kwargs):
    scheduler = FleetScheduler(
        [_spec()], seed=11, config=FleetConfig(hbo=FAST, **config_kwargs),
        store=store,
    )
    metrics = MetricsRegistry()
    with instrumented(Tracer(), metrics):
        result = scheduler.run()
    assert scheduler._worker is not None
    return scheduler._worker.sessions[0], result, metrics.snapshot()["counters"]


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestLockIn:
    def test_locked_session_only_measures_after_verify(self, monkeypatch):
        store = _confirmed_store()
        calls = {}
        for owner, name in (
            (BayesianOptimizer, "ask"),
            (BayesianOptimizer, "tell"),
            (GaussianProcess, "fit"),
            (MARSystem, "apply"),
            (MARSystem, "measure"),
        ):
            _count_calls(monkeypatch, owner, name, calls)
        session, result, counters = _one_session(store)
        report = {r.session_id: r for r in result.reports}["s"]
        budget = FAST.total_evaluations
        assert report.locked_in and report.warm_started
        # One verify (told, applied), then measure-only periods.
        assert calls == {"tell": 1, "apply": 1, "measure": budget}
        optimizer = session.optimizer
        assert optimizer.n_observations == optimizer.n_warm + 1
        assert len(optimizer.state.proposals) == 1
        assert len(report.costs) == budget
        # Best and convergence stay at the verify period.
        assert report.best_cost == report.costs[0] == session.best.cost
        assert report.converged_at == 1
        assert counters["fleet_lockins"] == 1.0
        assert "fleet_verify_failures" not in counters
        # A locked session donates nothing: the confirmed entry serves on.
        assert result.store_stats["donations"] == 0

    def test_verify_applies_the_donors_best_observation(self):
        store = _confirmed_store()
        (entry,) = store._table_for(PIXEL7).entries()
        session, _, _ = _one_session(store)
        donor_best = min(entry.observations, key=lambda o: o[1])[0]
        np.testing.assert_array_equal(session.best.z, donor_best)

    def test_inflated_stored_reward_fails_verify(self):
        session, result, counters = _one_session(_confirmed_store(5.0))
        report = {r.session_id: r for r in result.reports}["s"]
        assert not report.locked_in
        assert counters["fleet_verify_failures"] == 1.0
        assert "fleet_lockins" not in counters
        # Warm-started BO ran the rest of the budget, every period told.
        optimizer = session.optimizer
        budget = FAST.total_evaluations
        assert optimizer.n_observations == optimizer.n_warm + budget
        assert len(report.costs) == budget
        assert result.store_stats["donations"] == 1

    def test_unconfirmed_entry_only_seeds(self):
        store = _confirmed_store()
        table = store._table_for(PIXEL7)
        (entry,) = table.entries()
        table.replace(entry, dataclasses.replace(entry, confirmed=False))
        session, result, counters = _one_session(store)
        assert not {r.session_id: r for r in result.reports}["s"].locked_in
        assert "fleet_lockins" not in counters
        assert session.optimizer.n_observations == (
            session.optimizer.n_warm + FAST.total_evaluations
        )

    def test_scene_event_ends_lock_in(self):
        event = DistanceChange(time_s=2.0, user_position=(0.0, 0.0, -1.0))
        session, result, counters = _one_session(
            _confirmed_store(), session_events={"s": (event,)}
        )
        report = {r.session_id: r for r in result.reports}["s"]
        assert counters["fleet_lockins"] == 1.0
        assert not report.locked_in
        # Periods 1-2 were the verify and one measure-only repeat; from
        # the event on, BO told every period.
        optimizer = session.optimizer
        budget = FAST.total_evaluations
        assert optimizer.n_observations == optimizer.n_warm + 1 + (budget - 2)
        assert len(report.costs) == budget

    def test_shed_ends_lock_in(self):
        topology = EdgeTopologyConfig.single()
        store = _confirmed_store(topology=topology)
        (entry,) = store._table_for(PIXEL7).entries()
        config = FleetConfig(hbo=FAST, topology=topology)
        worker = _ShardWorker([_spec()], config, spawn_rngs(11, 1))
        node = topology.nodes[0].name

        def tick(tick_no, **commands):
            msg = {"tick": tick_no, "admit": [], "shed": [], "migrate": []}
            msg.update(commands)
            worker.tick_begin(msg)
            worker.inject_externs({"s": 0.0})
            return worker.tick_finish()

        tick(0, admit=[(0, ("node", node), entry)])
        session = worker.sessions[0]
        assert session.locked
        tick(1)
        assert session.locked
        tick(2, shed=[0])
        assert not session.locked
        assert session.system.device.edge is None
        # The rebuilt (cold, 3-simplex) optimizer took the period.
        assert session.optimizer.n_observations == 1


class TestShardIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_fleet_with_lock_ins_is_byte_identical(self, shards):
        specs = default_fleet_specs(GATE_SESSIONS, GATE, seed=GATE_SEED)

        def canonical(n):
            result = run_fleet(
                specs,
                seed=derive_seed(GATE_SEED, "fleet"),
                config=FleetConfig(hbo=GATE, shards=n),
            )
            return result, json.dumps(fleet_result_to_dict(result), sort_keys=True)

        base_result, base = canonical(1)
        assert sum(r.locked_in for r in base_result.reports) > 0
        assert canonical(shards)[1] == base


class TestRegretGate:
    """Lock-in must not buy speed with worse final configurations."""

    def test_locked_sessions_keep_their_donors_regret(self):
        specs = default_fleet_specs(GATE_SESSIONS, GATE, seed=GATE_SEED)
        scheduler = FleetScheduler(
            specs, seed=derive_seed(GATE_SEED, "fleet"),
            config=FleetConfig(hbo=GATE),
        )
        result = scheduler.run()
        sessions = {s.spec.session_id: s for s in scheduler._worker.sessions}
        regrets = {
            sid: regret(s.system, s.best.z, GATE.w) for sid, s in sessions.items()
        }
        locked = [r for r in result.reports if r.locked_in]
        assert locked
        for report in locked:
            assert regrets[report.session_id] == regrets[report.warm_source]
        values = list(regrets.values())
        assert np.median(values) <= PRE_LOCKIN_MEDIAN + REGRET_SLACK
        assert np.percentile(values, 90) <= PRE_LOCKIN_P90 + REGRET_SLACK
