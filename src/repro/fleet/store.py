"""Shared configuration store: the §VI lookup table generalized across
sessions.

:class:`~repro.core.lookup.LookupTable` remembers configurations for one
device's environments. A fleet-serving edge optimizer can do better: when
a *new* session arrives whose :class:`~repro.core.lookup.
EnvironmentSignature` resembles one an earlier session already solved,
the stored entry also carries the donor's BO *observations*, so the
newcomer warm-starts its optimizer from real (configuration, cost) pairs
instead of cold random initialization.

:class:`SharedConfigStore` partitions entries by *scope* (the fleet keys
scopes by device model, so a Pixel 7 never warm-starts from Galaxy S22
measurements) and tracks fleet-wide hit/transfer rates. Its bounds are
the module constants below. ``repro fleet --store PATH`` writes
:meth:`SharedConfigStore.to_dict` as JSON for inspection; nothing reads
it back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bo.optimizer import Observation
from repro.core.lookup import EnvironmentSignature, LookupTable, StoredConfiguration
from repro.device.resources import Resource
from repro.obs import runtime as obs

#: Bound of each scope's table (LRU-by-hit eviction, inherited from
#: :class:`~repro.core.lookup.LookupTable`).
MAX_ENTRIES_PER_SCOPE = 64
#: Maximum :meth:`EnvironmentSignature.distance_to` for a hit. Looser than
#: the single-device :data:`~repro.core.lookup.APPLY_THRESHOLD` (0.35 vs
#: 0.15): a warm start only *seeds* BO, which then refines, so
#: approximate donors are still useful.
SIMILARITY_THRESHOLD = 0.35
#: Observations kept per donated entry (the lowest-cost ones); bounds
#: both the store's footprint and the warm-start payload.
MAX_OBSERVATIONS = 8


@dataclass(frozen=True)
class WarmStartEntry(StoredConfiguration):
    """A stored configuration plus the BO observations that found it.

    ``observations`` holds (z vector, cost) pairs as plain tuples so the
    entry is hashable and JSON-serializable; rebuild optimizer-ready
    :class:`~repro.bo.optimizer.Observation` objects with
    :meth:`to_observations`.
    """

    observations: Tuple[Tuple[Tuple[float, ...], float], ...] = ()
    source_session: str = ""
    #: True once a warm-started session searched this environment and
    #: could not beat this entry's reward: the fleet's BO has converged
    #: here, so a matching newcomer applies the entry's best as-is
    #: (verify, then lock-in) instead of only seeding BO from it.
    confirmed: bool = False

    def to_observations(self) -> List[Observation]:
        """Optimizer-ready observations (lowest donor cost first)."""
        return [
            Observation(z=np.asarray(z, dtype=float), cost=float(cost))
            for z, cost in self.observations
        ]


def warm_start_entry_to_dict(entry: WarmStartEntry) -> Dict[str, Any]:
    """Serialize a :class:`WarmStartEntry` to plain JSON types."""
    return {
        "signature": {
            "total_max_triangles": entry.signature.total_max_triangles,
            "n_objects": entry.signature.n_objects,
            "mean_distance_m": entry.signature.mean_distance_m,
            "taskset_key": list(entry.signature.taskset_key),
        },
        "allocation": {task: str(res) for task, res in entry.allocation.items()},
        "triangle_ratio": entry.triangle_ratio,
        "reward": entry.reward,
        "observations": [
            {"z": list(z), "cost": cost} for z, cost in entry.observations
        ],
        "source_session": entry.source_session,
        "confirmed": entry.confirmed,
    }


class SharedConfigStore:
    """Cross-session warm-start store for a fleet-serving edge optimizer.

    One :class:`~repro.core.lookup.LookupTable` per *scope* (device
    model), holding :class:`WarmStartEntry` values. Lookup hits within a
    scope transfer the donor's observations to the requesting session;
    the store counts donations, lookups, and transfers fleet-wide.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, LookupTable[WarmStartEntry]] = {}
        self.donations = 0
        self.transfers = 0

    def _table_for(self, scope: str) -> LookupTable[WarmStartEntry]:
        """The scope's table, created on first use."""
        if scope not in self._tables:
            self._tables[scope] = LookupTable(
                max_entries=MAX_ENTRIES_PER_SCOPE,
                similarity_threshold=SIMILARITY_THRESHOLD,
            )
        return self._tables[scope]

    def scopes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._tables))

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    # ------------------------------------------------------------ protocol

    def donate(
        self,
        signature: EnvironmentSignature,
        allocation: Mapping[str, Resource],
        triangle_ratio: float,
        reward: float,
        observations: Sequence[Observation],
        scope: str = "",
        session_id: str = "",
        warm_started: bool = False,
    ) -> WarmStartEntry:
        """Store a finished session's best configuration and the
        observations that found it; returns the entry now serving its
        environment.

        The store keeps the best-known solution per environment: a
        donation whose reward is below its near-duplicate entry's does
        not displace that entry. If its donor was ``warm_started`` — a
        BO search seeded from the store that still could not beat the
        entry — the entry becomes ``confirmed``.
        """
        self.donations += 1
        obs.counter("store_donations", scope=scope or "default").inc()
        table = self._table_for(scope)
        incumbent = table.near_duplicate(signature)
        if incumbent is not None and incumbent.reward > reward:
            if warm_started and not incumbent.confirmed:
                confirmed = dataclasses.replace(incumbent, confirmed=True)
                table.replace(incumbent, confirmed)
                obs.counter("store_confirmations", scope=scope or "default").inc()
                return confirmed
            return incumbent
        kept = sorted(observations, key=lambda o: o.cost)[:MAX_OBSERVATIONS]
        entry = WarmStartEntry(
            signature=signature,
            allocation=dict(allocation),
            triangle_ratio=float(triangle_ratio),
            reward=float(reward),
            observations=tuple(
                (tuple(float(v) for v in o.z), float(o.cost)) for o in kept
            ),
            source_session=session_id,
        )
        table.store(entry)
        return entry

    def warm_start_for(
        self, signature: EnvironmentSignature, scope: str = ""
    ) -> Optional[WarmStartEntry]:
        """Closest donated entry within the similarity threshold, or None.

        A hit that carries observations counts as a *transfer* (the
        fleet-wide statistic the warm-vs-cold experiment reports).
        """
        label = scope or "default"
        obs.counter("store_lookups", scope=label).inc()
        entry = self._table_for(scope).lookup(signature)
        if entry is None:
            obs.counter("store_misses", scope=label).inc()
            return None
        obs.counter("store_hits", scope=label).inc()
        if entry.observations:
            self.transfers += 1
            obs.counter("store_transfers", scope=label).inc()
        return entry

    # ------------------------------------------------------------- metrics

    @property
    def hits(self) -> int:
        return sum(t.hits for t in self._tables.values())

    @property
    def misses(self) -> int:
        return sum(t.misses for t in self._tables.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def transfer_rate(self) -> float:
        """Fraction of lookups that shipped donor observations."""
        total = self.hits + self.misses
        return self.transfers / total if total else 0.0

    @property
    def total_observations(self) -> int:
        """Observations currently held across every scope and entry."""
        return sum(
            len(entry.observations)
            for table in self._tables.values()
            for entry in table.entries()
        )

    def stats(self) -> Dict[str, Any]:
        """Fleet-wide counters, JSON-ready (used by telemetry export)."""
        return {
            "entries": len(self),
            "scopes": list(self.scopes()),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "donations": self.donations,
            "transfers": self.transfers,
            "transfer_rate": self.transfer_rate,
            "total_observations": self.total_observations,
        }

    def to_dict(self) -> Dict[str, Any]:
        """The whole store (every scope's entries, in least-recently-hit
        order, and counters) as plain JSON types."""
        return {
            "donations": self.donations,
            "transfers": self.transfers,
            "scopes": {
                scope: {
                    "hits": table.hits,
                    "misses": table.misses,
                    "entries": [warm_start_entry_to_dict(e) for e in table.entries()],
                }
                for scope, table in sorted(self._tables.items())
            },
        }
