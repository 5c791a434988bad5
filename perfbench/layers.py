"""Wall-time attribution from outside the program.

Nothing here edits ``src/``: every measurement comes from wrapping a
layer's public entry point (a method on its class, or a function in the
namespace of the module that calls it) for the duration of a pass, then
putting the original back.

Two instruments:

- :class:`TickTimer` keeps only the host time of each fleet tick (or of
  each Algorithm 1 period on the single-device grid). It is the one
  wrapper the untraced, end-to-end pass carries.
- :class:`LayerClock` times every layer boundary and keeps *self* time:
  a call's wall time minus the wall time of the wrapped calls nested in
  it, so the layers of one process add up to the time the wrappers
  cover, and ``unattributed`` is the rest of the traced wall.

Shard workers are forked from the coordinator after the wrappers are in
place, so they inherit them. A worker's first wrapped call notices the
new process id and starts its own totals; the totals ride back to the
coordinator inside the ``collect`` answer (``SessionTable.shard_payload``)
and are split off again before ``SessionTable.absorb`` sees the payload.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bo.optimizer import BayesianOptimizer
from repro.core.algorithm import HBOIteration
from repro.core.system import MARSystem
from repro.edge.topology import EdgeTopology
from repro.fleet import scheduler, session, shard
from repro.fleet.batch import SharedOptimizerService
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import FleetSession
from repro.fleet.shard import ShardedFleetScheduler
from repro.fleet.store import SharedConfigStore
from repro.fleet.table import SessionTable

#: Key under which a worker's totals travel inside its shard payload.
PAYLOAD_KEY = "__perfbench_layers__"

Counts = Dict[str, float]
#: ``(counts, args, result)`` hook that adds layer-specific counters;
#: ``args`` are the call's positional arguments, ``self`` included.
CountHook = Callable[[Counts, Tuple[Any, ...], Any], None]


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(current value)``; an attribute
        inherited from a base class is shadowed on ``owner`` itself."""
        own = vars(owner)
        self._saved.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class TickTimer:
    """Host seconds per fleet tick / Algorithm 1 period, nothing else."""

    TICK_ENTRY_POINTS = (
        (FleetScheduler, "step"),
        (ShardedFleetScheduler, "_step"),
        (HBOIteration, "run_once"),
    )

    def __init__(self) -> None:
        self.ticks_s: List[float] = []
        self._patches = Patches()

    def install(self) -> None:
        for owner, attr in self.TICK_ENTRY_POINTS:
            self._patches.replace(owner, attr, self._timed)

    def uninstall(self) -> None:
        self._patches.undo()

    def _timed(self, original: Callable[..., Any]) -> Callable[..., Any]:
        ticks = self.ticks_s
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = original(*args, **kwargs)
            ticks.append(clock() - start)
            return result

        return wrapper


def _rows_solved(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    # batched_steady returns None for thermal rows, which skip the solve.
    counts["backend.solve.rows"] += sum(1 for row in result if row is not None)


def _batch_rows(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["bo.propose_batch.rows"] += len(args[1])


def _store_hit(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    if result is not None:
        counts["store.hits"] += 1


def _placement_reject(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    if result.node is None:
        counts["edge.rejects"] += 1


#: (owner, attribute, layer, call counter, extra counters). The layer
#: names are the per-layer metric prefixes; module-level functions are
#: wrapped in the namespace of the module that calls them. backend.solve
#: is the fleet's batched steady-state pass; the solve a device runs for
#: itself (unbatched rows, thermal resampling) stays inside device.measure.
ENTRY_POINTS: Tuple[Tuple[Any, str, str, Optional[str], Optional[CountHook]], ...] = (
    (FleetScheduler, "step", "fleet.tick", None, None),
    (ShardedFleetScheduler, "_step", "fleet.tick", None, None),
    (FleetSession, "admit", "fleet.admit", None, None),
    (FleetSession, "admit_directed", "fleet.admit", None, None),
    (ShardedFleetScheduler, "_admit_arrivals", "fleet.admit", None, None),
    (FleetSession, "finish", "fleet.finish", None, None),
    (SessionTable, "build_reports", "fleet.report", None, None),
    (SessionTable, "aggregates", "fleet.report", None, None),
    (SessionTable, "histogram", "fleet.report", None, None),
    (SharedOptimizerService, "propose", "bo.propose_batch",
     "bo.propose_batch.calls", _batch_rows),
    (BayesianOptimizer, "ask", "bo.ask", "bo.ask.calls", None),
    (BayesianOptimizer, "tell", "bo.tell", "bo.tell.calls", None),
    (MARSystem, "apply", "ar.apply", "ar.apply.calls", None),
    (MARSystem, "measure", "device.measure", "device.measure.calls", None),
    (scheduler, "batched_steady", "backend.solve", "backend.solve.calls",
     _rows_solved),
    (shard, "batched_steady", "backend.solve", "backend.solve.calls",
     _rows_solved),
    (SharedConfigStore, "warm_start_for", "store", "store.lookup.calls",
     _store_hit),
    (SharedConfigStore, "donate", "store", "store.donate.calls", None),
    (session, "place", "edge", "edge.place.calls", _placement_reject),
    (shard, "place", "edge", "edge.place.calls", _placement_reject),
    (scheduler, "migration_candidate", "edge", "edge.migrate.calls", None),
    (shard, "migration_candidate", "edge", "edge.migrate.calls", None),
    (FleetSession, "migrate_edge", "edge", None, None),
    (EdgeTopology, "shed_candidates", "edge", "edge.shed.calls", None),
    (FleetSession, "fallback_to_device", "edge", None, None),
    (mp_connection.Connection, "send", "shard.send", None, None),
    (mp_connection.Connection, "recv", "shard.recv", None, None),
    (SessionTable, "absorb", "shard.absorb", None, None),
)


class LayerClock:
    """Self time and counters per layer, for this process and its
    forked shard workers."""

    def __init__(self) -> None:
        self._patches = Patches()
        self._pid = os.getpid()
        self.recording = False
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counts = defaultdict(float)
        #: Wall time covered by outermost wrapped calls.
        self.covered_s = 0.0
        #: Worker totals, one per shard, in absorb (= shard) order.
        self.workers: List[Dict[str, Dict[str, float]]] = []
        self._stack: List[float] = []

    def _live(self) -> bool:
        if os.getpid() != self._pid:
            # First wrapped call inside a freshly forked shard worker.
            self._pid = os.getpid()
            self.reset()
            self.recording = True
        return self.recording

    # ----------------------------------------------------------- install

    def install(self) -> None:
        for owner, attr, layer, calls, hook in ENTRY_POINTS:
            self._patches.replace(
                owner, attr,
                lambda original, layer=layer, calls=calls, hook=hook: self._wrap(
                    original, layer, calls, hook
                ),
            )
        self._patches.replace(SessionTable, "shard_payload", self._ship_totals)
        self._patches.replace(SessionTable, "absorb", self._split_totals)
        self._patches.replace(
            mp_connection.Connection, "_send_bytes", self._count_bytes_sent
        )
        self._patches.replace(
            mp_connection.Connection, "_recv_bytes", self._count_bytes_received
        )

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(
        self,
        original: Callable[..., Any],
        layer: str,
        calls: Optional[str],
        hook: Optional[CountHook],
    ) -> Callable[..., Any]:
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._live():
                return original(*args, **kwargs)
            stack = self._stack
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if calls is not None:
                self.counts[calls] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    # ------------------------------------------------- shard transport

    def _ship_totals(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def shard_payload(table: SessionTable) -> Dict[str, Any]:
            payload = dict(original(table))
            if self._live():
                payload[PAYLOAD_KEY] = {
                    "self_s": dict(self.self_s),
                    "counts": dict(self.counts),
                }
            return payload

        return shard_payload

    def _split_totals(self, original: Callable[..., Any]) -> Callable[..., Any]:
        # ``original`` here is the timing wrapper installed from
        # ENTRY_POINTS, so absorb itself still counts as shard.absorb.
        def absorb(table: SessionTable, start: int, payload: Dict[str, Any]) -> None:
            totals = payload.pop(PAYLOAD_KEY, None)
            if totals is not None and self._live():
                self.workers.append(totals)
            original(table, start, payload)

        return absorb

    def _count_bytes_sent(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def _send_bytes(conn: Any, buf: Any) -> None:
            if self._live():
                self.counts["shard.bytes"] += memoryview(buf).nbytes
            original(conn, buf)

        return _send_bytes

    def _count_bytes_received(
        self, original: Callable[..., Any]
    ) -> Callable[..., Any]:
        def _recv_bytes(conn: Any, maxsize: Optional[int] = None) -> Any:
            buf = original(conn, maxsize)
            if self._live():
                with buf.getbuffer() as view:
                    self.counts["shard.bytes"] += view.nbytes
            return buf

        return _recv_bytes


# ------------------------------------------------------------- metrics

#: Layers a shard worker runs, reported per shard.
WORKER_LAYERS = (
    "fleet.admit",
    "fleet.finish",
    "bo.propose_batch",
    "bo.ask",
    "bo.tell",
    "ar.apply",
    "device.measure",
    "backend.solve",
    "edge",
    "shard.recv",
)

_SHARD_RENAMES = {
    "shard.send.self_s": "shard.send_s",
    "shard.recv.self_s": "shard.recv_wait_s",
    "shard.absorb.self_s": "shard.absorb_s",
}


def layer_metrics(
    self_s: Dict[str, float],
    counts: Counts,
    workers: List[Dict[str, Dict[str, float]]],
    declared: List[str],
) -> Dict[str, float]:
    """Per-layer metric values under the ``declared`` names; a layer the
    run did not reach reads 0. A value with no declared name (a layer
    wrapped without a metric, or more shard workers than declared) is
    an error."""
    values: Dict[str, float] = {name: 0.0 for name in declared}
    for layer, seconds in self_s.items():
        name = f"{layer}.self_s"
        values[_SHARD_RENAMES.get(name, name)] = seconds
    for name, count in counts.items():
        if name in values:
            values[name] = count
    lookups = counts.get("store.lookup.calls", 0.0)
    values["store.hit_ratio"] = counts.get("store.hits", 0.0) / lookups if lookups else 0.0
    places = counts.get("edge.place.calls", 0.0)
    values["edge.reject_ratio"] = counts.get("edge.rejects", 0.0) / places if places else 0.0
    for k, totals in enumerate(workers):
        for layer in WORKER_LAYERS:
            values[f"shard.worker{k}.{layer}.self_s"] = totals["self_s"].get(layer, 0.0)
    unknown = set(values) - set(declared)
    if unknown:
        raise KeyError(f"undeclared layer metrics: {sorted(unknown)}")
    return values


def layer_shares(
    self_s: Dict[str, float], unattributed_s: float
) -> List[Tuple[str, float]]:
    """(layer, share of the process's traced wall), largest first."""
    parts = dict(self_s)
    parts["unattributed"] = unattributed_s
    wall = sum(parts.values())
    return sorted(
        ((layer, s / wall if wall else 0.0) for layer, s in parts.items()),
        key=lambda item: -item[1],
    )



class WorkerPeakMemory:
    """Peak resident memory of each shard worker, read just before the
    coordinator stops it (``ShardedFleetScheduler._shutdown``)."""

    def __init__(self) -> None:
        self.peak_kb = 0.0
        self._patches = Patches()

    def install(self) -> None:
        self._patches.replace(ShardedFleetScheduler, "_shutdown", self._probe)

    def uninstall(self) -> None:
        self._patches.undo()

    def _probe(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def _shutdown(coordinator: ShardedFleetScheduler) -> None:
            total = sum(_peak_rss_kb(proc.pid) for proc in coordinator._procs)
            self.peak_kb = max(self.peak_kb, total)
            original(coordinator)

        return _shutdown


def _peak_rss_kb(pid: int) -> float:
    """``VmHWM`` of a live process, in KiB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0
