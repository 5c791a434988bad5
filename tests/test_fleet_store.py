"""Unit tests for the cross-session warm-start store."""

import numpy as np
import pytest

from repro.bo.optimizer import Observation
from repro.core.lookup import EnvironmentSignature, LookupTable, StoredConfiguration
from repro.device.resources import Resource
from repro.errors import ConfigurationError
from repro.fleet.store import MAX_OBSERVATIONS, SharedConfigStore, WarmStartEntry


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
        store = SharedConfigStore()
        costs = [0.5, -0.2, 0.1, 0.9, 0.3, -0.5, 0.7, 0.0, 0.2, 0.6]
        entry = store.donate(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.7,
            reward=0.4,
            observations=_observations(costs),
        )
        kept_costs = [cost for _z, cost in entry.observations]
        assert kept_costs == sorted(costs)[:MAX_OBSERVATIONS]

    def test_miss_counts_but_does_not_transfer(self):
        store = SharedConfigStore()
        assert store.warm_start_for(_signature()) is None
        assert store.misses == 1
        assert store.transfers == 0
        assert store.transfer_rate == 0.0


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

    def test_to_dict_after_a_confirming_donation(self):
        store = SharedConfigStore()
        kwargs = dict(
            signature=_signature(),
            allocation=_ALLOCATION,
            triangle_ratio=0.5,
            scope="pixel7",
        )
        store.donate(
            reward=0.5, observations=_observations([0.4, -0.5, 0.1]),
            session_id="first", **kwargs,
        )
        store.donate(
            reward=0.2, observations=_observations([0.3]),
            session_id="refiner", warm_started=True, **kwargs,
        )
        store.warm_start_for(_signature(), scope="pixel7")  # hit
        store.warm_start_for(_signature(tri=5, n=99), scope="pixel7")  # miss
        z = [[0.2, 0.3, 0.5, 0.4 + 0.01 * i] for i in range(3)]
        assert store.to_dict() == {
            "donations": 2,
            "transfers": 1,
            "scopes": {
                "pixel7": {
                    "hits": 1,
                    "misses": 1,
                    "entries": [
                        {
                            "signature": {
                                "total_max_triangles": 1_000_000,
                                "n_objects": 5,
                                "mean_distance_m": 1.5,
                                "taskset_key": ["a", "b"],
                            },
                            "allocation": {"a": "cpu", "b": "nnapi"},
                            "triangle_ratio": 0.5,
                            "reward": 0.5,
                            "observations": [  # lowest cost first
                                {"z": z[1], "cost": -0.5},
                                {"z": z[2], "cost": 0.1},
                                {"z": z[0], "cost": 0.4},
                            ],
                            "source_session": "first",
                            "confirmed": True,
                        }
                    ],
                }
            },
        }
