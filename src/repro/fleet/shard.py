"""Shard workers: the session side of the fleet's one tick loop.

:class:`~repro.fleet.scheduler.FleetScheduler` is the coordinator. It
deals the spec list out by stride into cohorts (:func:`shard_rows`: shard
``k`` owns global rows ``k, k+S, k+2S, …``), one :class:`_ShardWorker`
each, so every worker carries an even share of each tick's arrivals. It
owns every piece of state sessions share across cohorts:

- the :class:`~repro.fleet.store.SharedConfigStore` (warm lookups at
  admission, donations at retirement),
- the authoritative :class:`~repro.edge.topology.EdgeTopology`
  (placement, admission, shedding, migration, and the registration-order
  external-demand sums),
- the :class:`~repro.sim.clock.SimClock`, every lifecycle decision and
  the edge decision counters.

Workers own what never crosses a cohort boundary: the heavyweight session
objects (system, optimizer, GP service) and — crucially — the per-session
RNG streams. :func:`repro.rng.spawn_shard_rngs` hands shard ``k``'s
``j``-th session exactly the ``spawn_rngs(seed, n)`` child of its global
row, the one it would have received unsharded, so every session consumes
bit-identical randomness at any shard count. ``FleetConfig.shards`` picks only the
transport: one shard is one worker the coordinator calls in-process,
more are forked worker processes driven over pipes with the same
messages.

Each tick runs in lockstep:

1. **Coordinator phase** — drift/outage upkeep, admissions (placement on
   the authoritative topology + warm-start lookup, shipped down as
   directives), shed and migration commands. Each decision is written
   once, into the coordinator's table; a migration command carries the
   session's migration ordinal from that table, which seeds the new
   link, so workers keep no count of their own.
2. **Worker begin** — apply commands, fire scene events and per-session
   link drift, one ``SharedOptimizerService.propose`` call per space dim
   (each session is priced by its own GP fit, so per-shard sub-batches
   equal the global batch bitwise), decode every stepped point, one TD
   call per object count, then each session's allocation, ratio write
   and load refresh in row order; publish edge demands.
3. **Demand barrier** (with a topology only) — the coordinator folds worker
   demands into the authoritative servers and returns each tenant's
   external-stream sum, computed in global registration order; demand is
   only written during begins and externs only read after, so one
   barrier per tick suffices for bitwise parity.
4. **Worker finish** — inject externs, one columnar
   :func:`~repro.backend.solve.solve` over the shard's stepped rows that
   need a price (row-independent, padding-invariant; a locked
   device-only session re-measures the steady state it kept at its
   verify), measure, retire; donations ride up as payloads.
5. **Coordinator close** — donations applied in global spec order,
   retiring tenancies released, phases advanced.

The final merge is columnar and ships only what workers own —
measurements and warm-start report fields: each forked worker's
:meth:`~repro.fleet.table.SessionTable.shard_payload` (the in-process
worker's own columns, read in place) is
:meth:`~repro.fleet.table.SessionTable.absorb`-ed into the coordinator's
table, and reports/aggregates come from the same column math at any
shard count.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# perfbench/layers.py resolves these names in this module.
from repro.edge.placement import migration_candidate, place  # noqa: F401
from repro.edge.server import EdgeServer
from repro.edge.topology import EdgeTopology
from repro.errors import FleetError, UnknownTenantError
from repro.fleet.batch import SharedOptimizerService
from repro.fleet.scheduler import (
    FleetConfig,
    FleetScheduler,
    batched_steady,
    maintain_topology,
    propose_and_begin,
)
from repro.fleet.session import FleetSession, SessionSpec
from repro.fleet.table import SessionTable
from repro.obs import runtime as obs
from repro.sim.clock import SimClock
from repro.sim.scenarios import apply_network_drift


def shard_sizes(n_specs: int, shards: int) -> List[int]:
    """Near-equal split: earlier shards take the remainder (the sizes of
    :func:`shard_rows`' cohorts)."""
    if n_specs < 1:
        raise FleetError(f"need at least one spec, got {n_specs}")
    if shards < 1:
        raise FleetError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n_specs)
    base, extra = divmod(n_specs, shards)
    return [base + (1 if k < extra else 0) for k in range(shards)]


def shard_rows(n_specs: int, shards: int) -> List[np.ndarray]:
    """Strided cohorts: shard ``k`` of ``S`` owns global rows ``k, k+S, …``
    (``shard_sizes`` of them), so global row ``r`` is local row ``r // S``
    of shard ``r % S``. Specs are sorted by arrival, so every shard gets
    an even share of each tick's sessions."""
    stride = len(shard_sizes(n_specs, shards))
    return [np.arange(k, n_specs, stride) for k in range(stride)]


class _MirrorEdgeServer(EdgeServer):
    """Worker-side stand-in for a coordinator-owned :class:`EdgeServer`.

    Holds only the shard's own tenants, so its native external-demand sum
    would miss every other shard; the coordinator computes externs on the
    authoritative server (full tenant set, registration order) and
    injects them here at the per-tick demand barrier.
    """

    def __init__(self, config: Any) -> None:
        super().__init__(config)
        self.extern_override: Dict[str, float] = {}

    def extern_streams(self, tenant_id: str) -> float:
        if tenant_id not in self._demand_streams:
            raise UnknownTenantError(
                tenant_id, self.config.name, "extern_streams"
            )
        return self.extern_override.get(tenant_id, 0.0)


def _mirror_topology(config: FleetConfig) -> Optional[EdgeTopology]:
    """A worker's topology: real nodes, servers swapped for mirrors."""
    if config.topology is None:
        return None
    topology = EdgeTopology(config.topology)
    for node in topology.nodes:
        node.server = _MirrorEdgeServer(node.config.server)
    return topology


class _ShardWorker:
    """One shard's session rows: executes the coordinator's commands."""

    def __init__(
        self,
        specs: Sequence[SessionSpec],
        config: FleetConfig,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        self.config = config
        self.clock = SimClock()
        self.table = SessionTable(specs, config.hbo)
        self.service = SharedOptimizerService()
        self.topology = _mirror_topology(config)
        self.sessions = [
            FleetSession(
                spec,
                config.hbo,
                rng,
                topology=self.topology,
                table=self.table,
                index=i,
                thermal=config.thermal,
            )
            for i, (spec, rng) in enumerate(zip(specs, rngs))
        ]
        self._session_of = {s.spec.session_id: s for s in self.sessions}
        #: Per-session cursor into its event script (events fire once).
        self._event_cursors: Dict[str, int] = {}
        self._stepped: List[Tuple[int, Any]] = []
        self._dims: List[int] = []
        self._n_guided = 0

    def tick_begin(self, msg: Dict[str, Any]) -> Dict[str, float]:
        """Apply coordinator commands, propose, begin; return demands."""
        if self.topology is not None:
            # Outage fallbacks touch only this shard's own tenants, so the
            # cross-shard detach order is irrelevant.
            for session_id in maintain_topology(
                self.topology, self.config, self.clock.now_s
            ):
                self._session_of[session_id].fallback_to_device()
        for local_idx, directive, entry in msg["admit"]:
            self.sessions[local_idx].admit(directive, warm_entry=entry)
        for local_idx in msg["shed"]:
            session = self.sessions[local_idx]
            assert self.topology is not None
            self.topology.detach(session.spec.session_id)
            session.fallback_to_device()
        for local_idx, node_name, ordinal in msg["migrate"]:
            self.sessions[local_idx].migrate_edge(node_name, ordinal)
        if self.config.session_events or self.config.link_drift:
            self._apply_scenario_hooks()
        self._stepped, self._dims, self._n_guided = propose_and_begin(
            self.service, self.table, self.sessions
        )
        demands: Dict[str, float] = {}
        if self.topology is not None:
            for node in self.topology.nodes:
                demands.update(node.server.snapshot())
        return demands

    def _apply_scenario_hooks(self) -> None:
        """Fire due scene events and scheduled per-session link drift.

        Runs after the coordinator's commands and before the batched
        proposals, so a scene or link change takes effect inside the same
        tick's evaluation. A scene event ends a lock-in (or drops a
        pending verify): the stored solution was for the old scene. Sessions are visited in spec order and each
        event fires exactly once (a per-session cursor); events due while
        a session was still waiting all fire on its first active tick.
        Per-session drift is applied after topology-level cell drift
        (:func:`maintain_topology`), so a mobility schedule wins over
        its node's backhaul schedule for that session's own link. Both
        are pure functions of sim time and session id, so every worker
        decides them for its own sessions.
        """
        now_s = self.clock.now_s
        events = self.config.session_events or {}
        drift = self.config.link_drift or {}
        for session in self.sessions:
            if not session.active or session.system is None:
                continue
            sid = session.spec.session_id
            script = events.get(sid)
            if script:
                cursor = self._event_cursors.get(sid, 0)
                while cursor < len(script) and script[cursor].time_s <= now_s:
                    script[cursor].apply(session.system.scene)
                    session.unlock()
                    obs.counter("fleet_scene_events").inc()
                    cursor += 1
                self._event_cursors[sid] = cursor
            schedule = drift.get(sid)
            runtime = session.system.device.edge
            if schedule and runtime is not None:
                apply_network_drift(runtime.link, now_s, tuple(schedule))

    def inject_externs(self, externs: Dict[str, float]) -> None:
        assert self.topology is not None
        for node in self.topology.nodes:
            node.server.extern_override = externs

    def tick_finish(self) -> Dict[str, Any]:
        """Solve, measure, retire; ship worker-truth events up.

        Only rows without a :attr:`~FleetSession.held_steady` state go
        into the solve: begun rows and locked edge rows."""
        stepped, sessions = self._stepped, self.sessions
        held = [sessions[i].held_steady for i, _ in stepped]
        priced = iter(
            batched_steady(
                sessions, [i for (i, _), row in zip(stepped, held) if row is None]
            )
        )
        for (i, pending), row in zip(stepped, held):
            sessions[i].finish_step(
                pending, steady_latencies=row if row is not None else next(priced)
            )
        retired: List[int] = []
        donations: List[Tuple[int, Optional[Dict[str, Any]]]] = []
        for i in self.table.exhausted_indices():
            donation = self.sessions[int(i)].finish()
            retired.append(int(i))
            donations.append((int(i), donation))
        self.clock.advance(self.config.tick_s)
        return {
            "n_guided": self._n_guided,
            "dims": self._dims,
            "retired": retired,
            "donations": donations,
        }


def _openblas_thread_controls() -> List[Tuple[Any, Any]]:
    """``(get, set)`` thread-count calls of every OpenBLAS that the loaded
    NumPy and SciPy wheels bundle (``scipy_openblas``, 64- and 32-bit
    integer builds); other BLAS builds are not found and stay as they
    are."""
    controls: List[Tuple[Any, Any]] = []
    if not hasattr(os, "RTLD_NOLOAD"):  # no dlopen: no fork either
        return controls
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None or module.__file__ is None:
            continue
        site = os.path.dirname(os.path.dirname(module.__file__))
        for path in sorted(glob.glob(os.path.join(site, f"{package}.libs", "*openblas*"))):
            try:  # the copy the package loaded, never a second one
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return controls


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Fork shard workers inside this block to give each one BLAS thread.

    A forked child starts OpenBLAS's thread pool on its first BLAS call,
    sized by the count it inherited. Two workers' pools spinning on the
    same two cores made a two-shard run two to three times slower than
    with one thread each. The count is one while the block forks and is
    put back for this process after it.
    """
    controls = _openblas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


def _shard_worker_main(
    conn: Any,
    specs: Sequence[SessionSpec],
    config: FleetConfig,
    rngs: Sequence[np.random.Generator],
) -> None:
    """Worker process entry point: lockstep command loop until ``stop``."""
    worker = _ShardWorker(specs, config, rngs)
    try:
        while True:
            msg = conn.recv()
            op = msg["op"]
            if op == "tick":
                demands = worker.tick_begin(msg)
                if worker.topology is not None:
                    conn.send({"demands": demands})
                    worker.inject_externs(conn.recv()["externs"])
                conn.send(worker.tick_finish())
            elif op == "collect":
                conn.send(worker.table.shard_payload())
            elif op == "stop":
                break
            else:  # pragma: no cover - protocol guard
                raise FleetError(f"unknown shard op {op!r}")
    finally:
        conn.close()


ShardedFleetScheduler = FleetScheduler  # perfbench/layers.py resolves this name
