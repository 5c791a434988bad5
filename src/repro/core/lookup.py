"""The §VI lookup-table extension: reuse configurations in familiar
environments instead of re-optimizing.

The paper's proposed future work for fast-paced scenarios: "construct a
lookup table that stores environmental conditions, including maximum
triangle count, average distances, and task configurations ... when the
user's interaction approaches conditions that closely resemble those
stored in the table, the framework could choose to simply apply the
solution from the lookup table instead of initiating a new and
potentially unnecessary HBO activation."

This module implements exactly that:

- :class:`EnvironmentSignature` — the condition key the paper lists:
  total maximum triangle count, object count, average user-object
  distance, and the taskset composition.
- :class:`LookupTable` — a bounded store of (signature → configuration,
  achieved reward) entries with a scale-aware similarity metric.
- :class:`LookupAwareController` — wraps :class:`HBOController`: on
  activation it first consults the table; a close-enough hit applies the
  stored configuration (one control period instead of ~20), a miss runs
  a full activation and stores the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.controller import HBOController, HBORunResult
from repro.core.system import MARSystem, Measurement
from repro.device.resources import Resource, resource_from_name
from repro.errors import ConfigurationError

PathLike = Union[str, Path]


@dataclass(frozen=True)
class EnvironmentSignature:
    """The environmental conditions the paper's §VI table keys on."""

    total_max_triangles: float
    n_objects: int
    mean_distance_m: float
    taskset_key: Tuple[str, ...]  # sorted task model names (with multiplicity)

    def __post_init__(self) -> None:
        if self.total_max_triangles < 0:
            raise ConfigurationError(
                f"total_max_triangles must be >= 0, got {self.total_max_triangles}"
            )
        if self.n_objects < 0:
            raise ConfigurationError(f"n_objects must be >= 0, got {self.n_objects}")
        if self.mean_distance_m < 0:
            raise ConfigurationError(
                f"mean_distance_m must be >= 0, got {self.mean_distance_m}"
            )

    @classmethod
    def of(cls, system: MARSystem) -> "EnvironmentSignature":
        """Extract the current environment signature from a live system."""
        distances = system.scene.columns.distances
        return cls(
            total_max_triangles=system.scene.total_max_triangles,
            n_objects=len(system.scene),
            mean_distance_m=float(np.mean(distances)) if distances.size else 0.0,
            taskset_key=tuple(sorted(t.model for t in system.taskset)),
        )

    def distance_to(self, other: "EnvironmentSignature") -> float:
        """Scale-aware dissimilarity in [0, ∞); ∞ for different tasksets.

        Triangle counts compare on a relative scale (a 10% change in
        T^max matters equally at 100k and 1M), object counts and mean
        distances on absolute scales matched to their typical ranges.
        """
        if self.taskset_key != other.taskset_key:
            return float("inf")
        tri_scale = max(self.total_max_triangles, other.total_max_triangles, 1.0)
        d_tri = abs(self.total_max_triangles - other.total_max_triangles) / tri_scale
        d_objects = abs(self.n_objects - other.n_objects) / 5.0
        d_dist = abs(self.mean_distance_m - other.mean_distance_m) / 1.0
        return float(d_tri + d_objects + d_dist)


def signature_to_dict(signature: EnvironmentSignature) -> Dict[str, Any]:
    """Serialize an :class:`EnvironmentSignature` to plain JSON types."""
    return {
        "total_max_triangles": signature.total_max_triangles,
        "n_objects": signature.n_objects,
        "mean_distance_m": signature.mean_distance_m,
        "taskset_key": list(signature.taskset_key),
    }


def signature_from_dict(data: Mapping[str, Any]) -> EnvironmentSignature:
    """Rebuild an :class:`EnvironmentSignature` from its exported form."""
    return EnvironmentSignature(
        total_max_triangles=float(data["total_max_triangles"]),
        n_objects=int(data["n_objects"]),
        mean_distance_m=float(data["mean_distance_m"]),
        taskset_key=tuple(str(t) for t in data["taskset_key"]),
    )


@dataclass(frozen=True)
class StoredConfiguration:
    """A configuration remembered for an environment."""

    signature: EnvironmentSignature
    allocation: Mapping[str, Resource]
    triangle_ratio: float
    reward: float  # B achieved when this configuration was stored


def stored_configuration_to_dict(entry: StoredConfiguration) -> Dict[str, Any]:
    """Serialize a :class:`StoredConfiguration` to plain JSON types."""
    return {
        "signature": signature_to_dict(entry.signature),
        "allocation": {task: str(res) for task, res in entry.allocation.items()},
        "triangle_ratio": entry.triangle_ratio,
        "reward": entry.reward,
    }


def stored_configuration_from_dict(data: Mapping[str, Any]) -> StoredConfiguration:
    """Rebuild a :class:`StoredConfiguration` from its exported form."""
    return StoredConfiguration(
        signature=signature_from_dict(data["signature"]),
        allocation={
            task: resource_from_name(name)
            for task, name in data["allocation"].items()
        },
        triangle_ratio=float(data["triangle_ratio"]),
        reward=float(data["reward"]),
    )


class LookupTable:
    """A bounded store of environment → configuration entries.

    Eviction is least-recently-*hit*: environments the user keeps coming
    back to stay warm.
    """

    def __init__(
        self, max_entries: int = 32, similarity_threshold: float = 0.15
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError(f"max_entries must be >= 1, got {max_entries}")
        if similarity_threshold <= 0:
            raise ConfigurationError(
                f"similarity_threshold must be > 0, got {similarity_threshold}"
            )
        self.max_entries = int(max_entries)
        self.similarity_threshold = float(similarity_threshold)
        self._entries: List[StoredConfiguration] = []
        self._last_use: Dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, signature: EnvironmentSignature
    ) -> Optional[StoredConfiguration]:
        """Closest stored entry within the similarity threshold, or None."""
        self._tick += 1
        best_idx, best_distance = None, float("inf")
        for i, entry in enumerate(self._entries):
            d = signature.distance_to(entry.signature)
            if d < best_distance:
                best_idx, best_distance = i, d
        if best_idx is not None and best_distance <= self.similarity_threshold:
            self.hits += 1
            self._last_use[id(self._entries[best_idx])] = self._tick
            return self._entries[best_idx]
        self.misses += 1
        return None

    def store(self, entry: StoredConfiguration) -> None:
        """Insert an entry, replacing a near-duplicate signature if any."""
        self._tick += 1
        for i, existing in enumerate(self._entries):
            if entry.signature.distance_to(existing.signature) <= (
                self.similarity_threshold / 2.0
            ):
                self._entries[i] = entry
                self._last_use[id(entry)] = self._tick
                return
        self._entries.append(entry)
        self._last_use[id(entry)] = self._tick
        if len(self._entries) > self.max_entries:
            victim = min(
                self._entries, key=lambda e: self._last_use.get(id(e), 0)
            )
            self._entries.remove(victim)
            self._last_use.pop(id(victim), None)

    def replace(
        self, old: StoredConfiguration, new: StoredConfiguration
    ) -> None:
        """Swap ``old`` (matched by identity) for ``new`` in place.

        Unlike :meth:`store`, the slot keeps its recency: the eviction
        policy must not interpret an in-place rewrite (e.g. the shared
        store trimming observations to fit a budget) as a fresh use.
        """
        for i, entry in enumerate(self._entries):
            if entry is old:
                self._entries[i] = new
                self._last_use[id(new)] = self._last_use.pop(id(old), 0)
                return
        raise ConfigurationError("replace() target is not stored in this table")

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def entries(self) -> Tuple[StoredConfiguration, ...]:
        """Stored entries in least-recently-used-first order."""
        return tuple(
            sorted(self._entries, key=lambda e: self._last_use.get(id(e), 0))
        )

    # -------------------------------------------------------- persistence

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the table (entries in LRU order, plus hit counters) so
        fleet/session state survives across runs."""
        return {
            "max_entries": self.max_entries,
            "similarity_threshold": self.similarity_threshold,
            "hits": self.hits,
            "misses": self.misses,
            "entries": [stored_configuration_to_dict(e) for e in self.entries()],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LookupTable":
        """Rebuild a table from :meth:`to_dict` output. Entries are
        restored in the serialized (LRU) order, so eviction behaves the
        same after a reload."""
        table = cls(
            max_entries=int(data["max_entries"]),
            similarity_threshold=float(data["similarity_threshold"]),
        )
        for entry_data in data.get("entries", []):
            table.store(stored_configuration_from_dict(entry_data))
        table.hits = int(data.get("hits", 0))
        table.misses = int(data.get("misses", 0))
        return table

    def save(self, path: PathLike) -> None:
        """Write the table to ``path`` as pretty-printed JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: PathLike) -> "LookupTable":
        """Read a table previously written by :meth:`save`."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{path}: expected a JSON object at top level"
            )
        return cls.from_dict(data)


@dataclass
class LookupDecision:
    """What the lookup-aware controller did on one activation request."""

    from_table: bool
    measurement: Measurement
    run_result: Optional[HBORunResult] = None  # set on misses
    entry: Optional[StoredConfiguration] = None  # set on hits


class LookupAwareController:
    """HBO with the §VI environment lookup table in front of it."""

    def __init__(
        self,
        controller: HBOController,
        table: Optional[LookupTable] = None,
    ) -> None:
        self.controller = controller
        self.table = table if table is not None else LookupTable()

    @property
    def system(self) -> MARSystem:
        return self.controller.system

    def activate(self) -> LookupDecision:
        """Table-first activation: apply a remembered configuration when
        the environment looks familiar, otherwise run full HBO and
        remember the outcome."""
        signature = EnvironmentSignature.of(self.system)
        entry = self.table.lookup(signature)
        if entry is not None:
            # A hit costs one control period (apply + verify) instead of
            # a whole exploration phase.
            self.system.apply(dict(entry.allocation), entry.triangle_ratio)
            measurement = self.system.measure()
            return LookupDecision(
                from_table=True, measurement=measurement, entry=entry
            )

        result = self.controller.activate()
        measurement = (
            result.final_measurement
            if result.final_measurement is not None
            else result.best.measurement
        )
        self.table.store(
            StoredConfiguration(
                signature=signature,
                allocation=dict(result.best.allocation),
                triangle_ratio=result.best.triangle_ratio,
                reward=measurement.reward(self.controller.config.w),
            )
        )
        return LookupDecision(
            from_table=False, measurement=measurement, run_result=result
        )
