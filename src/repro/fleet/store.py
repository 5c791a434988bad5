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
measurements) and tracks fleet-wide hit/transfer rates. The whole store
serializes to JSON, so warm-start state survives across fleet runs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bo.optimizer import Observation
from repro.core.lookup import (
    EnvironmentSignature,
    LookupTable,
    PathLike,
    StoredConfiguration,
    signature_from_dict,
    signature_to_dict,
)
from repro.device.resources import Resource, resource_from_name
from repro.errors import ConfigurationError
from repro.obs import runtime as obs


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
        "signature": signature_to_dict(entry.signature),
        "allocation": {task: str(res) for task, res in entry.allocation.items()},
        "triangle_ratio": entry.triangle_ratio,
        "reward": entry.reward,
        "observations": [
            {"z": list(z), "cost": cost} for z, cost in entry.observations
        ],
        "source_session": entry.source_session,
        "confirmed": entry.confirmed,
    }


def warm_start_entry_from_dict(data: Mapping[str, Any]) -> WarmStartEntry:
    """Rebuild a :class:`WarmStartEntry` from its exported form."""
    return WarmStartEntry(
        signature=signature_from_dict(data["signature"]),
        allocation={
            task: resource_from_name(name)
            for task, name in data["allocation"].items()
        },
        triangle_ratio=float(data["triangle_ratio"]),
        reward=float(data["reward"]),
        observations=tuple(
            (tuple(float(v) for v in obs["z"]), float(obs["cost"]))
            for obs in data.get("observations", [])
        ),
        source_session=str(data.get("source_session", "")),
        confirmed=bool(data.get("confirmed", False)),
    )


class SharedConfigStore:
    """Cross-session warm-start store for a fleet-serving edge optimizer.

    One :class:`~repro.core.lookup.LookupTable` per *scope* (device
    model), holding :class:`WarmStartEntry` values. Lookup hits within a
    scope transfer the donor's observations to the requesting session;
    the store counts donations, lookups, and transfers fleet-wide.

    Parameters
    ----------
    max_entries_per_scope:
        Bound of each scope's table (LRU-by-hit eviction, inherited from
        :class:`LookupTable`).
    similarity_threshold:
        Maximum :meth:`EnvironmentSignature.distance_to` for a hit. The
        fleet default is looser than the single-device lookup default
        (0.35 vs 0.15): a warm start only *seeds* BO, which then refines,
        so approximate donors are still useful.
    max_observations:
        Observations kept per donated entry (the lowest-cost ones); bounds
        both the store's footprint and the warm-start payload.
    observation_budget:
        Optional *store-wide* cap on the total number of observations
        held across every scope and entry. ``max_observations`` bounds
        each entry, but a busy fleet keeps adding entries, so the
        aggregate donor set still grows without bound — exactly the
        streaming-observation regime the sparse GP tier exists for. When
        the budget is exceeded after a donation, :meth:`_enforce_budget`
        trims observations from the least-recently-hit entries first
        (highest-cost observations within each entry go first); the
        configurations themselves survive, only their donor payloads
        shrink. ``None`` (default) keeps the pre-budget behavior.
    """

    def __init__(
        self,
        max_entries_per_scope: int = 64,
        similarity_threshold: float = 0.35,
        max_observations: int = 8,
        observation_budget: Optional[int] = None,
    ) -> None:
        if max_observations < 1:
            raise ConfigurationError(
                f"max_observations must be >= 1, got {max_observations}"
            )
        if observation_budget is not None and observation_budget < 1:
            raise ConfigurationError(
                f"observation_budget must be >= 1 or None, got {observation_budget}"
            )
        self.max_entries_per_scope = int(max_entries_per_scope)
        self.similarity_threshold = float(similarity_threshold)
        self.max_observations = int(max_observations)
        self.observation_budget = (
            None if observation_budget is None else int(observation_budget)
        )
        self._tables: Dict[str, LookupTable] = {}
        self.donations = 0
        self.transfers = 0
        #: Observations dropped by budget enforcement over the store's life.
        self.evicted_observations = 0

    # ------------------------------------------------------------- tables

    def table_for(self, scope: str = "") -> LookupTable:
        """The scope's table, created on first use."""
        if scope not in self._tables:
            self._tables[scope] = LookupTable(
                max_entries=self.max_entries_per_scope,
                similarity_threshold=self.similarity_threshold,
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
        table = self.table_for(scope)
        incumbent = table.near_duplicate(signature)
        if isinstance(incumbent, WarmStartEntry) and incumbent.reward > reward:
            if warm_started and not incumbent.confirmed:
                confirmed = dataclasses.replace(incumbent, confirmed=True)
                table.replace(incumbent, confirmed)
                obs.counter("store_confirmations", scope=scope or "default").inc()
                return confirmed
            return incumbent
        kept = sorted(observations, key=lambda o: o.cost)[: self.max_observations]
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
        self._enforce_budget()
        return entry

    def _enforce_budget(self) -> None:
        """Trim stored observations down to ``observation_budget``.

        Victim order is least-recently-hit entries first (scopes visited
        in sorted order), mirroring the table's own LRU eviction; within
        an entry the highest-cost observations go first (donations are
        stored cost-ascending, so the trim drops the tuple's tail). A
        fully trimmed entry keeps its configuration: it can still serve
        lookup hits, it just no longer ships donor observations.
        """
        if self.observation_budget is None:
            return
        excess = self.total_observations - self.observation_budget
        if excess <= 0:
            return
        for scope in self.scopes():
            table = self._tables[scope]
            for entry in table.entries():  # least-recently-hit first
                if excess <= 0:
                    return
                if not isinstance(entry, WarmStartEntry) or not entry.observations:
                    continue
                drop = min(excess, len(entry.observations))
                trimmed = dataclasses.replace(
                    entry,
                    observations=entry.observations[
                        : len(entry.observations) - drop
                    ],
                )
                table.replace(entry, trimmed)
                excess -= drop
                self.evicted_observations += drop
                obs.counter(
                    "store_evicted_observations", scope=scope or "default"
                ).inc(drop)

    def warm_start_for(
        self, signature: EnvironmentSignature, scope: str = ""
    ) -> Optional[WarmStartEntry]:
        """Closest donated entry within the similarity threshold, or None.

        A hit that carries observations counts as a *transfer* (the
        fleet-wide statistic the warm-vs-cold experiment reports).
        """
        label = scope or "default"
        obs.counter("store_lookups", scope=label).inc()
        entry = self.table_for(scope).lookup(signature)
        if entry is None:
            obs.counter("store_misses", scope=label).inc()
            return None
        obs.counter("store_hits", scope=label).inc()
        if not isinstance(entry, WarmStartEntry):
            # A plain StoredConfiguration (e.g. loaded from a legacy
            # single-device table) has no observations to transfer.
            entry = WarmStartEntry(
                signature=entry.signature,
                allocation=entry.allocation,
                triangle_ratio=entry.triangle_ratio,
                reward=entry.reward,
            )
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
            if isinstance(entry, WarmStartEntry)
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
            "observation_budget": self.observation_budget,
            "evicted_observations": self.evicted_observations,
        }

    # -------------------------------------------------------- persistence

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the whole store (all scopes, entries, counters)."""
        scopes_data: Dict[str, Any] = {}
        for scope in self.scopes():
            table = self._tables[scope]
            scopes_data[scope] = {
                "hits": table.hits,
                "misses": table.misses,
                "entries": [
                    warm_start_entry_to_dict(e)
                    for e in table.entries()
                    if isinstance(e, WarmStartEntry)
                ],
            }
        return {
            "max_entries_per_scope": self.max_entries_per_scope,
            "similarity_threshold": self.similarity_threshold,
            "max_observations": self.max_observations,
            "observation_budget": self.observation_budget,
            "donations": self.donations,
            "transfers": self.transfers,
            "evicted_observations": self.evicted_observations,
            "scopes": scopes_data,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SharedConfigStore":
        """Rebuild a store from :meth:`to_dict` output.

        The eviction-budget fields shipped after the original format, so
        they default (no budget, zero evictions) when absent — pre-budget
        JSON saves load unchanged. So does an entry saved before
        ``confirmed`` existed: it reads as unconfirmed.
        """
        budget = data.get("observation_budget")
        store = cls(
            max_entries_per_scope=int(data["max_entries_per_scope"]),
            similarity_threshold=float(data["similarity_threshold"]),
            max_observations=int(data["max_observations"]),
            observation_budget=None if budget is None else int(budget),
        )
        for scope, scope_data in data.get("scopes", {}).items():
            table = store.table_for(scope)
            for entry_data in scope_data.get("entries", []):
                table.store(warm_start_entry_from_dict(entry_data))
            table.hits = int(scope_data.get("hits", 0))
            table.misses = int(scope_data.get("misses", 0))
        store.donations = int(data.get("donations", 0))
        store.transfers = int(data.get("transfers", 0))
        store.evicted_observations = int(data.get("evicted_observations", 0))
        return store

    def save(self, path: PathLike) -> None:
        """Write the store to ``path`` as pretty-printed JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: PathLike) -> "SharedConfigStore":
        """Read a store previously written by :meth:`save`."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: expected a JSON object at top level")
        return cls.from_dict(data)
