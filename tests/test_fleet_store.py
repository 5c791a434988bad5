"""Unit tests for the cross-session warm-start store."""

import numpy as np
import pytest

from repro.bo.optimizer import Observation
from repro.core.lookup import EnvironmentSignature, LookupTable, StoredConfiguration
from repro.device.resources import Resource
from repro.errors import ConfigurationError
from repro.fleet.store import (
    SharedConfigStore,
    WarmStartEntry,
    warm_start_entry_from_dict,
    warm_start_entry_to_dict,
)


def _signature(tri=1_000_000, n=5, dist=1.5, tasks=("a", "b")):
    return EnvironmentSignature(
        total_max_triangles=tri,
        n_objects=n,
        mean_distance_m=dist,
        taskset_key=tuple(tasks),
    )


_ALLOCATION = {"a": Resource.CPU, "b": Resource.NNAPI}


def _observations(costs):
    return [
        Observation(z=np.array([0.2, 0.3, 0.5, 0.4 + 0.01 * i]), cost=c)
        for i, c in enumerate(costs)
    ]


class TestWarmStartEntry:
    def test_to_observations_round_trip(self):
        entry = WarmStartEntry(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.7,
            reward=0.4,
            observations=(((0.2, 0.3, 0.5, 0.4), -0.4), ((0.1, 0.4, 0.5, 0.6), 0.1)),
            source_session="donor",
        )
        observations = entry.to_observations()
        assert len(observations) == 2
        assert observations[0].cost == pytest.approx(-0.4)
        assert np.allclose(observations[0].z, [0.2, 0.3, 0.5, 0.4])

    def test_dict_round_trip(self):
        entry = WarmStartEntry(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.7,
            reward=0.4,
            observations=(((0.2, 0.3, 0.5, 0.4), -0.4),),
            source_session="donor",
        )
        rebuilt = warm_start_entry_from_dict(warm_start_entry_to_dict(entry))
        assert rebuilt == entry


class TestSharedConfigStoreProtocol:
    def test_donate_then_warm_start(self):
        store = SharedConfigStore()
        store.donate(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.7,
            reward=0.4,
            observations=_observations([0.5, -0.2, 0.1]),
            scope="pixel7",
            session_id="donor",
        )
        entry = store.warm_start_for(_signature(), scope="pixel7")
        assert entry is not None
        assert entry.source_session == "donor"
        assert len(entry.observations) == 3
        assert store.donations == 1
        assert store.transfers == 1
        assert store.hit_rate == pytest.approx(1.0)
        assert store.transfer_rate == pytest.approx(1.0)

    def test_scopes_are_isolated(self):
        store = SharedConfigStore()
        store.donate(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.7,
            reward=0.4,
            observations=_observations([0.1]),
            scope="pixel7",
        )
        assert store.warm_start_for(_signature(), scope="s22") is None
        assert store.warm_start_for(_signature(), scope="pixel7") is not None
        assert store.scopes() == ("pixel7", "s22")

    def test_keeps_lowest_cost_observations(self):
        store = SharedConfigStore(max_observations=2)
        entry = store.donate(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.7,
            reward=0.4,
            observations=_observations([0.5, -0.2, 0.1, 0.9]),
        )
        kept_costs = [cost for _z, cost in entry.observations]
        assert kept_costs == [-0.2, 0.1]

    def test_miss_counts_but_does_not_transfer(self):
        store = SharedConfigStore()
        assert store.warm_start_for(_signature()) is None
        assert store.misses == 1
        assert store.transfers == 0
        assert store.transfer_rate == 0.0

    def test_legacy_entry_without_observations(self):
        """A plain StoredConfiguration hit returns a configuration-only
        entry and does not count as a transfer."""
        store = SharedConfigStore()
        store.table_for("").store(
            StoredConfiguration(
                signature=_signature(),
                allocation=_ALLOCATION,
                triangle_ratio=0.6,
                reward=0.2,
            )
        )
        entry = store.warm_start_for(_signature())
        assert isinstance(entry, WarmStartEntry)
        assert entry.observations == ()
        assert store.transfers == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SharedConfigStore(max_observations=0)


class TestSharedConfigStorePersistence:
    def _populated(self):
        store = SharedConfigStore(max_entries_per_scope=8, similarity_threshold=0.3)
        store.donate(
            signature=_signature(tri=900_000),
            allocation=_ALLOCATION,
            triangle_ratio=0.6,
            reward=0.3,
            observations=_observations([0.4, -0.1]),
            scope="pixel7",
            session_id="p0",
        )
        store.donate(
            signature=_signature(tri=2_000_000, tasks=("x", "y")),
            allocation=_ALLOCATION,
            triangle_ratio=0.9,
            reward=0.8,
            observations=_observations([0.2]),
            scope="s22",
            session_id="g0",
        )
        store.warm_start_for(_signature(tri=900_000), scope="pixel7")
        store.warm_start_for(_signature(tri=5, n=99), scope="pixel7")  # miss
        return store

    def test_dict_round_trip(self):
        store = self._populated()
        rebuilt = SharedConfigStore.from_dict(store.to_dict())
        assert rebuilt.stats() == store.stats()
        assert rebuilt.to_dict() == store.to_dict()
        entry = rebuilt.warm_start_for(_signature(tri=900_000), scope="pixel7")
        assert entry is not None and entry.source_session == "p0"

    def test_save_load(self, tmp_path):
        store = self._populated()
        path = tmp_path / "store.json"
        store.save(path)
        rebuilt = SharedConfigStore.load(path)
        assert rebuilt.to_dict() == store.to_dict()

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            SharedConfigStore.load(path)


class TestLookupTablePersistence:
    """JSON round-trip of the underlying single-device table."""

    def test_round_trip_preserves_entries_and_counters(self, tmp_path):
        table = LookupTable(max_entries=4, similarity_threshold=0.2)
        table.store(
            StoredConfiguration(
                signature=_signature(tri=500_000),
                allocation=_ALLOCATION,
                triangle_ratio=0.5,
                reward=0.1,
            )
        )
        table.store(
            StoredConfiguration(
                signature=_signature(tri=3_000_000, tasks=("q",)),
                allocation={"q": Resource.GPU_DELEGATE},
                triangle_ratio=0.8,
                reward=0.5,
            )
        )
        table.lookup(_signature(tri=500_000))  # hit
        table.lookup(_signature(tri=500, n=50))  # miss
        path = tmp_path / "table.json"
        table.save(path)
        rebuilt = LookupTable.load(path)
        assert len(rebuilt) == 2
        assert rebuilt.hits == 1 and rebuilt.misses == 1
        assert rebuilt.to_dict() == table.to_dict()
        hit = rebuilt.lookup(_signature(tri=3_000_000, tasks=("q",)))
        assert hit is not None
        assert hit.allocation["q"] is Resource.GPU_DELEGATE


class TestObservationBudget:
    """Store-wide eviction budget (docs/fleet.md, eviction semantics)."""

    def _budgeted(self, budget):
        # Three far-apart signatures so entries never merge as duplicates.
        store = SharedConfigStore(max_observations=4, observation_budget=budget)
        for i, tri in enumerate((500_000, 2_000_000, 8_000_000)):
            store.donate(
                signature=_signature(tri=tri),
                allocation=_ALLOCATION,
                triangle_ratio=0.5,
                reward=0.1,
                observations=_observations([0.1 * i, 0.2, 0.3, 0.4]),
                scope="pixel7",
                session_id=f"s{i}",
            )
        return store

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SharedConfigStore(observation_budget=0)
        SharedConfigStore(observation_budget=None)  # unbounded is fine

    def test_unbounded_by_default(self):
        store = self._budgeted(None)
        assert store.total_observations == 12
        assert store.evicted_observations == 0

    def test_budget_trims_to_the_cap(self):
        store = self._budgeted(6)
        assert store.total_observations == 6
        assert store.evicted_observations == 6

    def test_trim_hits_least_recently_used_entries_first(self):
        store = self._budgeted(None)
        # Touch the first donation so it becomes most-recently-hit.
        store.warm_start_for(_signature(tri=500_000), scope="pixel7")
        store.observation_budget = 6
        store._enforce_budget()
        fresh = store.warm_start_for(_signature(tri=500_000), scope="pixel7")
        assert fresh is not None
        # The recently-hit donor kept all 4 observations; the 6 evicted
        # ones came out of the two stale entries.
        assert len(fresh.observations) == 4
        assert store.total_observations == 6

    def test_within_an_entry_highest_cost_goes_first(self):
        store = SharedConfigStore(max_observations=4, observation_budget=2)
        store.donate(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.5,
            reward=0.1,
            observations=_observations([0.4, 0.1, 0.3, 0.2]),
            scope="pixel7",
        )
        entry = store.warm_start_for(_signature(), scope="pixel7")
        assert entry is not None
        costs = [cost for _, cost in entry.observations]
        assert costs == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_fully_trimmed_entry_still_serves_lookups(self):
        store = self._budgeted(4)
        # The oldest entry lost every observation but keeps its config.
        entries = store.table_for("pixel7").entries()
        empty = [e for e in entries if not e.observations]
        assert empty and empty[0].triangle_ratio == pytest.approx(0.5)

    def test_budget_round_trips_through_json(self, tmp_path):
        store = self._budgeted(6)
        path = tmp_path / "store.json"
        store.save(path)
        rebuilt = SharedConfigStore.load(path)
        assert rebuilt.observation_budget == 6
        assert rebuilt.evicted_observations == 6
        assert rebuilt.to_dict() == store.to_dict()

    def test_pre_budget_json_loads_with_defaults(self):
        # A pre-PR8 save has no budget fields: loading must default to
        # unbounded with zero evictions, not KeyError.
        store = SharedConfigStore()
        store.donate(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.5,
            reward=0.1,
            observations=_observations([0.1]),
            scope="pixel7",
        )
        legacy = store.to_dict()
        del legacy["observation_budget"]
        del legacy["evicted_observations"]
        rebuilt = SharedConfigStore.from_dict(legacy)
        assert rebuilt.observation_budget is None
        assert rebuilt.evicted_observations == 0
        assert rebuilt.total_observations == 1


class TestLookupTableReplace:
    def _entry(self, tri):
        return StoredConfiguration(
            signature=_signature(tri=tri),
            allocation=_ALLOCATION,
            triangle_ratio=0.5,
            reward=0.1,
        )

    def test_replace_preserves_recency(self):
        table = LookupTable(max_entries=2, similarity_threshold=0.2)
        oldest = self._entry(500_000)
        newest = self._entry(5_000_000)
        table.store(oldest)
        table.store(newest)
        swapped = self._entry(500_000)
        table.replace(oldest, swapped)
        # The swapped-in entry inherited the oldest slot's recency, so the
        # next overflow still evicts it (a plain store() would have made
        # it the freshest entry instead).
        table.store(self._entry(20_000_000))
        assert swapped not in table.entries()
        assert newest in table.entries()

    def test_replace_unknown_entry_raises(self):
        table = LookupTable()
        table.store(self._entry(500_000))
        with pytest.raises(ConfigurationError):
            table.replace(self._entry(500_000), self._entry(900_000))


class TestBestKnownEntries:
    """A donation only displaces a near-duplicate entry it beats; a
    warm-started donor that could not beat it confirms it."""

    def _donate(self, store, reward, warm_started, session_id):
        return store.donate(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.5,
            reward=reward,
            observations=_observations([-reward]),
            scope="pixel7",
            session_id=session_id,
            warm_started=warm_started,
        )

    def test_better_donation_replaces_unconfirmed(self):
        store = SharedConfigStore()
        self._donate(store, 0.2, False, "cold")
        entry = self._donate(store, 0.5, True, "warm")
        assert entry.source_session == "warm" and not entry.confirmed
        assert len(store) == 1 and store.donations == 2

    def test_worse_cold_donation_is_dropped_without_confirming(self):
        store = SharedConfigStore()
        self._donate(store, 0.5, False, "first")
        entry = self._donate(store, 0.2, False, "fallback")
        assert entry.source_session == "first" and not entry.confirmed

    def test_worse_warm_donation_confirms_the_incumbent(self):
        store = SharedConfigStore()
        self._donate(store, 0.5, False, "first")
        entry = self._donate(store, 0.2, True, "refiner")
        assert entry.source_session == "first" and entry.confirmed
        served = store.warm_start_for(_signature(), scope="pixel7")
        assert served == entry
        assert store.total_observations == 1

    def test_confirmed_flag_round_trips_and_legacy_reads_unconfirmed(self):
        store = SharedConfigStore()
        self._donate(store, 0.5, False, "first")
        self._donate(store, 0.2, True, "refiner")
        data = store.to_dict()
        (saved,) = data["scopes"]["pixel7"]["entries"]
        assert saved["confirmed"] is True
        assert SharedConfigStore.from_dict(data).to_dict() == data
        # A save from before the flag existed loads as unconfirmed.
        del saved["confirmed"]
        rebuilt = SharedConfigStore.from_dict(data)
        entry = rebuilt.warm_start_for(_signature(), scope="pixel7")
        assert entry is not None and not entry.confirmed
