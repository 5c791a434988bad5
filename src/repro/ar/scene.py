"""The augmented scene: placed object instances and the user's position.

A :class:`Scene` holds per-object columns in insertion order
(:class:`SceneColumns`): ids, assets, ``(L, 3)`` positions, drawn ratios
and max triangles. User distances, the Eq. 1 columns taken at them and
the sorted-id permutation TD reads its columns through are recomputed
only in ``add``, ``remove`` and ``move_user``; a ratio change replaces
the ratio column alone. T^max, the drawn triangle count and the
Eq. 2 average quality are column expressions over that state; x and the
Eq. 2 quality are computed once per column snapshot (every mutation
installs a new :class:`SceneColumns` tuple).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.ar.degradation import Eq1Columns, eq1_columns
from repro.ar.objects import VirtualObject
from repro.ar.quality import eq2_quality
from repro.errors import SceneError

#: Objects closer than this are clamped — the quality model diverges at
#: D → 0 and real AR frameworks keep virtual objects out of the near plane.
MIN_DISTANCE_M = 0.3


def _checked_position(position: Sequence[float], what: str) -> np.ndarray:
    pos = np.array(position, dtype=float).ravel()  # a copy: distances are cached
    if pos.shape != (3,) or not np.all(np.isfinite(pos)):
        raise SceneError(f"{what} must be a finite 3-vector, got {position!r}")
    return pos


def _check_ratio(instance_id: str, ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise SceneError(f"{instance_id!r}: ratio must be in (0, 1], got {ratio}")


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum of a per-object column (0.0 if empty), bit-identical
    to accumulating object by object; ``np.sum`` is pairwise from 8 terms."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


@dataclass(frozen=True)
class PlacedObject:
    """Read-only view of one object instance in the scene."""

    instance_id: str
    obj: VirtualObject
    position: np.ndarray  # (3,) world coordinates, meters
    ratio: float = 1.0  # decimation ratio currently drawn

    def __post_init__(self) -> None:
        pos = _checked_position(self.position, f"{self.instance_id!r}: position")
        _check_ratio(self.instance_id, self.ratio)
        object.__setattr__(self, "position", pos)

    @property
    def drawn_triangles(self) -> float:
        return self.ratio * self.obj.max_triangles


class SceneColumns(NamedTuple):
    """Per-object state in insertion order; read-only arrays, replaced whole."""

    ids: Tuple[str, ...]
    objects: Tuple[VirtualObject, ...]
    positions: np.ndarray  # (L, 3) world coordinates, meters
    ratios: np.ndarray  # (L,) decimation ratio currently drawn
    max_triangles: np.ndarray  # (L,)
    distances: np.ndarray  # (L,) user distance, clamped to MIN_DISTANCE_M
    eq1: Eq1Columns  # Eq. 1 (a, b, c, D^d) at those distances
    order: np.ndarray  # (L,) insertion positions in sorted-id (TD) order

    def td_columns(self) -> Tuple[np.ndarray, Eq1Columns]:
        """Max triangles and Eq. 1 columns in sorted-id order, as TD
        (:func:`~repro.ar.distribution.distribute_triangles_columns`)
        takes them."""
        order = self.order
        return self.max_triangles[order], Eq1Columns(*(c[order] for c in self.eq1))


class Scene:
    """Mutable scene state: per-object columns + user position."""

    def __init__(self, user_position: Sequence[float] = (0.0, 0.0, 0.0)) -> None:
        self._user = _checked_position(user_position, "user position")
        self._set_geometry((), (), np.zeros((0, 3)), np.zeros(0))
        #: The column snapshot ``_memo`` holds aggregates of.
        self._memo_of = self._cols
        self._memo: Dict[str, float] = {}

    def _set_geometry(
        self,
        ids: Tuple[str, ...],
        objects: Tuple[VirtualObject, ...],
        positions: np.ndarray,
        ratios: np.ndarray,
    ) -> None:
        """Install object columns — the one place distances are computed.
        A per-row ``(1, 3) @ (3, 1)`` is the 1-D ``np.linalg.norm``'s dot
        product; ``norm(axis=1)`` and ``(d*d).sum(1)`` differ in the last bit."""
        delta = positions - self._user
        norms = np.sqrt((delta[:, np.newaxis, :] @ delta[:, :, np.newaxis]).reshape(-1))
        distances = np.maximum(MIN_DISTANCE_M, norms)
        max_tris = np.array([o.max_triangles for o in objects], dtype=np.float64)
        eq1 = eq1_columns([o.params for o in objects], distances.tolist())
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        for column in (positions, ratios, max_tris, distances, *eq1, order):
            column.flags.writeable = False
        self._cols = SceneColumns(
            ids, objects, positions, ratios, max_tris, distances, eq1, order
        )
        self._index = {iid: j for j, iid in enumerate(ids)}

    # -------------------------------------------------------------- objects

    @property
    def columns(self) -> SceneColumns:
        """The per-object columns (read-only, insertion order)."""
        return self._cols

    def __len__(self) -> int:
        return len(self._cols.ids)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._index

    def __iter__(self) -> Iterator[PlacedObject]:
        return iter(self.snapshot())

    def _position_of(self, instance_id: str) -> int:
        if instance_id not in self._index:
            raise SceneError(f"no object instance {instance_id!r} in scene")
        return self._index[instance_id]

    def get(self, instance_id: str) -> PlacedObject:
        j, cols = self._position_of(instance_id), self._cols
        return PlacedObject(instance_id, cols.objects[j], cols.positions[j], float(cols.ratios[j]))

    def add(
        self,
        instance_id: str,
        obj: VirtualObject,
        position: Sequence[float],
        ratio: float = 1.0,
    ) -> None:
        self.add_many([(instance_id, obj, position, ratio)])

    def add_many(
        self, instances: Iterable[Tuple[str, VirtualObject, Sequence[float], float]]
    ) -> None:
        """Place ``(instance_id, obj, position, ratio)`` instances in order
        with one column build. Every id, position and ratio is checked
        before anything is placed, and the columns are the ones adding
        the instances one at a time would leave."""
        new_ids: List[str] = []
        new_objects: List[VirtualObject] = []
        new_positions: List[np.ndarray] = []
        new_ratios: List[float] = []
        for instance_id, obj, position, ratio in instances:
            if instance_id in self._index or instance_id in new_ids:
                raise SceneError(f"instance id {instance_id!r} already placed")
            new_positions.append(_checked_position(position, f"{instance_id!r}: position"))
            _check_ratio(instance_id, ratio)
            new_ids.append(instance_id)
            new_objects.append(obj)
            new_ratios.append(ratio)
        ids, objects, positions, ratios = self._cols[:4]
        self._set_geometry(
            ids + tuple(new_ids), objects + tuple(new_objects),
            np.vstack([positions, *new_positions]), np.append(ratios, new_ratios),
        )

    def remove(self, instance_id: str) -> None:
        j = self._position_of(instance_id)
        ids, objects, positions, ratios = self._cols[:4]
        self._set_geometry(
            ids[:j] + ids[j + 1 :], objects[:j] + objects[j + 1 :],
            np.delete(positions, j, axis=0), np.delete(ratios, j),
        )

    # ----------------------------------------------------------------- user

    @property
    def user_position(self) -> np.ndarray:
        return self._user.copy()

    def move_user(self, position: Sequence[float]) -> None:
        self._user = _checked_position(position, "user position")
        self._set_geometry(*self._cols[:4])

    def distances(self) -> Dict[str, float]:
        return dict(zip(self._cols.ids, self._cols.distances.tolist()))

    # ---------------------------------------------------------------- ratios

    def apply_sorted_ratios(self, ratios: np.ndarray) -> Dict[str, float]:
        """Redraw every object from a ratio row in sorted-id (TD) order;
        returns it as an id → ratio map in that order. All or nothing."""
        ratios = np.asarray(ratios, dtype=np.float64)
        order = self._cols.order
        if ratios.shape != order.shape or not ((ratios > 0.0) & (ratios <= 1.0)).all():
            raise SceneError(f"need {order.size} ratios in (0, 1], got {ratios.tolist()}")
        column = np.empty_like(ratios)
        column[order] = ratios
        column.flags.writeable = False
        self._cols = self._cols._replace(ratios=column)
        return dict(zip([self._cols.ids[j] for j in order.tolist()], ratios.tolist()))

    def ratios(self) -> Dict[str, float]:
        return dict(zip(self._cols.ids, self._cols.ratios.tolist()))

    # ------------------------------------------------------------ aggregates

    @property
    def total_max_triangles(self) -> float:
        """T^max: full-quality triangle count across placed objects."""
        return ordered_sum(self._cols.max_triangles)

    @property
    def drawn_triangles(self) -> float:
        """Triangles currently submitted for rendering (before culling)."""
        return ordered_sum(self._cols.ratios * self._cols.max_triangles)

    def _memoised(self, key: str, compute: Callable[[], float]) -> float:
        """``compute()`` once per column snapshot: ``_cols`` is immutable
        and replaced whole on every mutation, so its identity keys it."""
        if self._memo_of is not self._cols:
            self._memo_of, self._memo = self._cols, {}
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def triangle_ratio(self) -> float:
        """Current overall ratio x = drawn / T^max (1.0 for empty scenes)."""

        def ratio() -> float:
            total = self.total_max_triangles
            return self.drawn_triangles / total if total > 0 else 1.0

        return self._memoised("triangle_ratio", ratio)

    def average_quality(self) -> float:
        """Eq. 2 over the on-screen objects at their drawn ratios."""
        return self._memoised(
            "quality",
            lambda: float(eq2_quality(self._cols.eq1, self._cols.ratios[np.newaxis])[0]),
        )

    def snapshot(self) -> List[PlacedObject]:
        """Immutable copy of the current placement list."""
        return [self.get(iid) for iid in self._cols.ids]
