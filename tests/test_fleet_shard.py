"""Tests for shard-parallel fleet cohorts and the columnar SoA core.

The headline contract under test: one seed reproduces the fleet
bit-for-bit at ANY shard count — `shards=k` output is byte-identical to
`shards=1` in every mode (device-only, the one-node `--edge` topology,
and the multi-server topology with admission, shedding, outages, and
migrations all live mid-run). Alongside it, the building blocks:
strided shard rows, `spawn_shard_rngs` stream partitioning, batched search-space ops,
the coordinator table as the one live record of edge decisions, and the
columnar telemetry path's value-identity with the per-report legacy
path.
"""

import dataclasses
import json
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bo.space import HBOSpace
from repro.core.controller import HBOConfig
from repro.device.profiles import GALAXY_S22, PIXEL7
from repro.edge.admission import AdmissionConfig
from repro.edge.topology import (
    EdgeTopologyConfig,
    MigrationConfig,
    default_topology,
)
from repro.errors import FleetError
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    SessionSpec,
    SharedConfigStore,
    run_fleet,
)
from repro.fleet.export import fleet_result_to_dict
from repro.fleet.shard import _ShardWorker, shard_rows, shard_sizes
from repro.fleet.telemetry import (
    convergence_from_columns,
    convergence_histogram,
    fleet_aggregates,
    iterations_to_converge,
)
from repro.obs import MetricsRegistry, Tracer, instrumented
from repro.rng import make_rng, spawn_rngs, spawn_shard_rngs
from repro.scenarios import compile_scenario, get_scenario
from repro.sim.scenarios import ServerOutage
from tests.test_bo_space import simplex_project_one

FAST = HBOConfig(n_initial=2, n_iterations=3)


def _specs(n, arrival_gap_s=0.0, positions=4):
    """A mixed-cohort fleet; positions spread users for `nearest`."""
    cohorts = [
        (PIXEL7, "SC1", "CF1"),
        (GALAXY_S22, "SC1", "CF1"),
        (PIXEL7, "SC2", "CF2"),
    ]
    return [
        SessionSpec(
            session_id=f"s{i:02d}",
            device=cohorts[i % len(cohorts)][0],
            scenario=cohorts[i % len(cohorts)][1],
            taskset=cohorts[i % len(cohorts)][2],
            arrival_s=arrival_gap_s * i,
            placement_seed=11 + (i % len(cohorts)),
            position=10.0 * (i % positions),
        )
        for i in range(n)
    ]


def _canonical(specs, shards, **config_kwargs):
    """Run the fleet and canonicalize the FULL result to one JSON blob."""
    config_kwargs.setdefault("hbo", FAST)
    result = run_fleet(
        specs,
        seed=2024,
        config=FleetConfig(shards=shards, **config_kwargs),
        store=SharedConfigStore(),
    )
    return result, json.dumps(fleet_result_to_dict(result), sort_keys=True)


class TestShardSizes:
    def test_partition_sums_and_is_near_equal(self):
        for n in range(1, 40):
            for k in range(1, 9):
                sizes = shard_sizes(n, k)
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                # Earlier shards take the remainder: sizes never increase.
                assert sizes == sorted(sizes, reverse=True)

    def test_clamps_shards_to_spec_count(self):
        assert shard_sizes(3, 8) == [1, 1, 1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(FleetError):
            shard_sizes(0, 2)
        with pytest.raises(FleetError):
            shard_sizes(4, 0)


class TestShardRows:
    def test_rows_are_strided_and_sized_by_shard_sizes(self):
        for n in range(1, 40):
            for k in range(1, 9):
                rows = shard_rows(n, k)
                stride = len(rows)
                assert [len(r) for r in rows] == shard_sizes(n, k)
                for shard, shard_rows_k in enumerate(rows):
                    assert shard_rows_k.tolist() == list(range(shard, n, stride))

    def test_clamps_shards_to_spec_count(self):
        assert [r.tolist() for r in shard_rows(3, 8)] == [[0], [1], [2]]


class TestShardBalance:
    def test_surge_steps_evenly_across_two_shards(self, monkeypatch):
        """Catalog specs are sorted by arrival, so a surge lands on
        consecutive rows; strided cohorts give both workers the same
        number of stepped rows (±1) on every tick, where contiguous
        blocks put the surge on one shard first."""
        compiled = compile_scenario(
            get_scenario("low-tier-surge"), hbo=FAST, n_sessions=96
        )
        per_tick = []
        original = FleetScheduler._tick_workers

        def tick_workers(scheduler, tick, commands):
            # Every active row steps exactly once this tick.
            shards = [
                scheduler._shard_local(int(row))[0]
                for row in scheduler.table.active_indices()
            ]
            per_tick.append(np.bincount(shards, minlength=2))
            return original(scheduler, tick, commands)

        monkeypatch.setattr(FleetScheduler, "_tick_workers", tick_workers)
        config = dataclasses.replace(compiled.fleet_config, shards=2)
        run_fleet(compiled.session_specs, seed=compiled.fleet_seed, config=config)
        counts = np.stack(per_tick)
        assert counts.sum() == 96 * FAST.total_evaluations
        assert np.abs(counts[:, 0] - counts[:, 1]).max() <= 1


class TestSpawnShardRngs:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=12),
        shards=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_strided_rows_reproduce_unsharded_streams(self, seed, n, shards):
        """Shard k's j-th stream IS the flat spawn's stream of global row
        ``rows_k[j]``, bit for bit — the invariant sharded fleets lean on."""
        flat_draws = [rng.uniform(size=3) for rng in spawn_rngs(seed, n)]
        rows = shard_rows(n, shards)
        streams = spawn_shard_rngs(seed, rows)
        assert [len(s) for s in streams] == [len(r) for r in rows]
        for shard, shard_streams in zip(rows, streams):
            for row, rng in zip(shard.tolist(), shard_streams):
                np.testing.assert_array_equal(rng.uniform(size=3), flat_draws[row])

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cross_shard_streams_are_decorrelated(self, seed):
        """No two streams — within or across shards — repeat a draw:
        SeedSequence spawning keys every child off a distinct path."""
        shards = spawn_shard_rngs(seed, shard_rows(8, 3))
        first = [float(rng.uniform()) for shard in shards for rng in shard]
        assert len(set(first)) == len(first)

    def test_rejects_rows_that_do_not_partition(self):
        for rows in ([[0, 2], [-1]], [[0, 1], [1]], [[0], [2]]):
            with pytest.raises(ValueError):
                spawn_shard_rngs(7, rows)


class TestBatchedSpaceOps:
    def test_project_rows_bitwise_matches_per_row(self):
        simplex = HBOSpace(4).simplex
        c = make_rng(5).normal(size=(8, simplex.n))
        rows = np.stack([simplex_project_one(c[i]) for i in range(len(c))])
        np.testing.assert_array_equal(simplex.project_rows(c), rows)


@pytest.fixture(scope="module")
def device_run():
    """One 9-session device-mode fleet, scheduler kept for inspection."""
    scheduler = FleetScheduler(
        _specs(9, arrival_gap_s=1.5),
        seed=2024,
        config=FleetConfig(hbo=FAST),
        store=SharedConfigStore(),
    )
    result = scheduler.run()
    return scheduler, result


class TestOneWriterColumns:
    """The coordinator's table is the live record of every edge decision;
    workers never write it and the final merge never overwrites it."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_shed_reason_lands_on_the_tick_of_the_shed(self, shards):
        topology = default_topology(
            2,
            migration=MigrationConfig(enabled=False),
            admission=AdmissionConfig(
                admit_utilization=0.4, shed_utilization=0.5
            ),
        )
        scheduler = FleetScheduler(
            _specs(12),
            seed=2024,
            config=FleetConfig(hbo=FAST, topology=topology, shards=shards),
        )
        shed_now = []
        candidates = scheduler.topology.shed_candidates

        def spy(node_name):
            ids = list(candidates(node_name))
            shed_now.extend(ids)
            return ids

        scheduler.topology.shed_candidates = spy
        table = scheduler.table
        shed = []
        try:
            tick = 0
            while not table.all_done():
                shed_now.clear()
                scheduler.step(tick)
                for session_id in shed_now:
                    row = table.session_ids.index(session_id)
                    assert table.fallback_reason[row] == "shed"
                    assert table.edge_node[row] == ""
                    shed.append(row)
                tick += 1
        finally:
            scheduler._shutdown()
        assert shed
        assert sorted(
            i for i, reason in enumerate(table.fallback_reason) if reason
        ) == sorted(shed)

    def test_reports_are_built_from_columns(self, device_run):
        scheduler, result = device_run
        table = scheduler._worker.table
        for i, report in enumerate(result.reports):
            n = int(table.n_results[i])
            assert list(report.costs) == [float(c) for c in table.costs[i, :n]]
            assert report.best_cost == float(table.best_cost[i])
            assert report.warm_started == bool(table.warm_started[i])


class TestColumnarTelemetry:
    def test_aggregates_value_identical_to_report_path(self, device_run):
        _, result = device_run
        assert result.aggregates == fleet_aggregates(result.reports)

    def test_histogram_value_identical_to_report_path(self, device_run):
        _, result = device_run
        assert result.histogram == convergence_histogram(result.reports)

    def test_convergence_columns_match_scalar_helper(self):
        rng = make_rng(17)
        n, width = 32, 10
        costs = rng.uniform(0.5, 4.0, size=(n, width))
        lengths = rng.integers(1, width + 1, size=n)
        costs[np.arange(width)[None, :] >= lengths[:, None]] = np.nan
        targets = rng.uniform(0.4, 2.0, size=n)
        vec = convergence_from_columns(costs, lengths, targets)
        for i in range(n):
            scalar = iterations_to_converge(
                list(costs[i, : lengths[i]]), target=targets[i]
            )
            assert int(vec[i]) == scalar


class TestShardedByteIdentity:
    """The tentpole invariant: `shards=k` is byte-identical to
    `shards=1` at the same seed, in every serving mode."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_device_mode(self, shards):
        specs = _specs(9, arrival_gap_s=1.5)
        _, base = _canonical(specs, 1)
        _, sharded = _canonical(specs, shards)
        assert sharded == base

    def test_single_node_edge(self):
        specs = _specs(8)
        topology = EdgeTopologyConfig.single()
        _, base = _canonical(specs, 1, topology=topology)
        _, sharded = _canonical(specs, 3, topology=topology)
        assert sharded == base

    def test_topology_with_admission_and_shedding(self):
        """Tight admission on a 2-node topology: rejections at arrival
        and mid-run sheds both replicate under sharding."""
        specs = _specs(12)
        topology = default_topology(
            2,
            migration=MigrationConfig(enabled=False),
            admission=AdmissionConfig(
                admit_utilization=0.4, shed_utilization=0.5
            ),
        )
        result, base = _canonical(specs, 1, topology=topology)
        assert result.topology_stats["sheds"] > 0
        for shards in (2, 4):
            _, sharded = _canonical(specs, shards, topology=topology)
            assert sharded == base

    def test_topology_with_outage_fallbacks(self):
        """A scheduled outage mid-window pushes tenants back onto their
        devices; workers decide the fallback locally yet stay identical."""
        specs = _specs(12, positions=3)
        topology = default_topology(
            3,
            migration=MigrationConfig(enabled=False),
            admission=AdmissionConfig(
                admit_utilization=5.0, shed_utilization=10.0
            ),
        )
        kwargs = dict(
            topology=topology,
            placement="nearest",
            edge_outages=(ServerOutage(node="edge-1", start_s=2.0, end_s=6.0),),
        )
        result, base = _canonical(specs, 1, **kwargs)
        assert result.topology_stats["outage_fallbacks"] > 0
        for shards in (2, 4):
            _, sharded = _canonical(specs, shards, **kwargs)
            assert sharded == base

    def test_topology_with_drift_migrations(self):
        """Bandwidth drift makes the home node expensive mid-run; the
        coordinator's migration commands land identically on workers."""
        specs = _specs(10)
        topology = default_topology(
            3,
            migration=MigrationConfig(
                enabled=True, dwell_ticks=2, hysteresis=0.05
            ),
            admission=AdmissionConfig(
                admit_utilization=5.0, shed_utilization=10.0
            ),
        )
        kwargs = dict(
            topology=topology,
            hbo=HBOConfig(n_initial=2, n_iterations=6),
            edge_drift={"edge-0": ((0.0, 1.0), (3.0, 0.2))},
        )
        result, base = _canonical(specs, 1, **kwargs)
        assert result.topology_stats["migrations"] > 0
        for shards in (2, 5):
            _, sharded = _canonical(specs, shards, **kwargs)
            assert sharded == base


def _edge_counters(name, shards):
    """The edge_* counters of one instrumented catalog run, except the
    per-measurement edge_offloaded_tasks."""
    compiled = compile_scenario(
        get_scenario(name), 2024, hbo=HBOConfig(n_initial=2, n_iterations=4)
    )
    metrics = MetricsRegistry()
    with instrumented(Tracer(), metrics):
        run_fleet(
            compiled.session_specs,
            seed=compiled.fleet_seed,
            config=dataclasses.replace(compiled.fleet_config, shards=shards),
        )
    return {
        key: value
        for key, value in metrics.snapshot()["counters"].items()
        if key.startswith("edge_") and key != "edge_offloaded_tasks"
    }


class TestEdgeDecisionCounters:
    """The coordinator alone counts placements, rejections, fallbacks
    and migrations, so the counters read the same at any shard count."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "network-collapse",
                {
                    "edge_migrations{dst=edge-0,src=edge-2}": 1.0,
                    "edge_migrations{dst=edge-2,src=edge-1}": 1.0,
                    "edge_placements{node=edge-0,policy=price-aware}": 9.0,
                    "edge_placements{node=edge-1,policy=price-aware}": 1.0,
                    "edge_placements{node=edge-2,policy=price-aware}": 2.0,
                },
            ),
            (
                "flash-crowd",
                {
                    "edge_fallbacks{reason=shed}": 3.0,
                    "edge_placements{node=edge-0,policy=price-aware}": 10.0,
                    "edge_placements{node=edge-1,policy=price-aware}": 4.0,
                },
            ),
            (
                "low-tier-surge",
                {
                    "edge_admission_rejections{policy=price-aware}": 2.0,
                    "edge_fallbacks{reason=shed}": 2.0,
                    "edge_placements{node=edge-0,policy=price-aware}": 9.0,
                    "edge_placements{node=edge-1,policy=price-aware}": 3.0,
                },
            ),
        ],
    )
    def test_counters_match_across_shard_counts(self, name, expected):
        assert _edge_counters(name, 1) == expected
        assert _edge_counters(name, 2) == expected


class TestShardFailure:
    def test_dying_worker_raises_fleet_error_naming_the_shard(
        self, monkeypatch
    ):
        """An exception inside one worker reaches the caller as a
        FleetError naming the shard and tick, within a bounded wait."""
        original = _ShardWorker.tick_begin

        def tick_begin(worker, msg):
            if msg["tick"] == 2 and worker.table.session_ids[0] == "s01":
                raise RuntimeError("injected worker failure")
            return original(worker, msg)

        # Patched before the fork, so the workers inherit it.
        monkeypatch.setattr(_ShardWorker, "tick_begin", tick_begin)

        def timed_out(signum, frame):
            raise TimeoutError("shard failure not surfaced within 60 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            scheduler = FleetScheduler(
                _specs(6), seed=2024, config=FleetConfig(hbo=FAST, shards=2)
            )
            with pytest.raises(FleetError, match="shard 1 .* tick 2") as info:
                scheduler.run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert isinstance(info.value.__cause__, EOFError)
        assert not any(proc.is_alive() for proc in scheduler._procs)
