"""Shard-parallel fleet cohorts: N worker processes, one deterministic run.

``FleetConfig.shards > 1`` splits the spec list into contiguous cohorts,
each stepped by a persistent worker process, with a coordinator owning
every piece of state sessions share across shard boundaries:

- the :class:`~repro.fleet.store.SharedConfigStore` (warm lookups at
  admission, donations at retirement),
- the authoritative :class:`~repro.edge.topology.EdgeTopology`
  (placement, admission, shedding, migration, and the registration-order
  external-demand sums),
- the :class:`~repro.sim.clock.SimClock` and every lifecycle decision.

Workers own what never crosses a shard boundary: the heavyweight session
objects (system, optimizer, GP service) and — crucially — the per-session
RNG streams. :func:`repro.rng.spawn_shard_rngs` hands shard ``k`` exactly
the contiguous block of ``spawn_rngs(seed, n)`` children its specs would
have received unsharded, and :meth:`~repro.fleet.session.FleetSession.
admit_directed` replays :meth:`~repro.fleet.session.FleetSession.admit`'s
draw order, so every session consumes bit-identical randomness at any
shard count.

Each tick runs in lockstep:

1. **Coordinator phase** — drift/outage upkeep, admissions (placement on
   the authoritative topology + warm-start lookup, shipped down as
   directives), shed and migration commands, all in the exact order the
   in-process scheduler would apply them.
2. **Worker begin** — apply commands, one batched GP pass per space dim
   (batch-composition invariant, so per-shard sub-batches equal the
   global batch bitwise), apply configurations, publish edge demands.
3. **Demand barrier** (with a topology only) — the coordinator folds worker
   demands into the authoritative servers and returns each tenant's
   external-stream sum, computed in global registration order; demand is
   only written during begins and externs only read after, so one
   barrier per tick suffices for bitwise parity.
4. **Worker finish** — inject externs, one columnar
   :func:`~repro.backend.solve.solve` over the shard's stepped rows
   (row-independent, padding-invariant), measure, retire; donations ride
   up as payloads.
5. **Coordinator close** — donations applied in global spec order,
   retiring tenancies released, phases advanced.

The final merge is columnar: each worker ships its
:meth:`~repro.fleet.table.SessionTable.shard_payload`, the coordinator
:meth:`~repro.fleet.table.SessionTable.absorb`-s the contiguous blocks,
and reports/aggregates come from the same column math as ``shards=1``.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lookup import EnvironmentSignature
from repro.edge.link import WirelessLink
from repro.edge.placement import (
    PlacementOutcome,
    PlacementRequest,
    migration_candidate,
    place,
)
from repro.edge.server import EdgeServer
from repro.edge.topology import EdgeTopology
from repro.errors import FleetError, UnknownTenantError
from repro.fleet.batch import SharedOptimizerService
from repro.fleet.scheduler import (
    FleetConfig,
    FleetResult,
    batched_steady,
    drain,
    maintain_topology,
    propose_and_begin,
    topology_stats,
    validate_specs,
)
from repro.fleet.session import FleetSession, SessionSpec, offload_demand
from repro.fleet.store import SharedConfigStore, WarmStartEntry
from repro.fleet.table import PHASE_ACTIVE, PHASE_DONE, SessionTable
from repro.obs import runtime as obs
from repro.rng import SeedLike, spawn_shard_rngs
from repro.sim.clock import SimClock
from repro.sim.scenarios import build_system, place_catalog, scenario_catalog

#: Seed of the coordinator's placeholder links. The coordinator never
#: samples a link (workers own the drift traces, seeded from their own
#: session streams), so the value is irrelevant — it only satisfies the
#: topology's attach signature.
_PLACEHOLDER_LINK_SEED = 0


def shard_sizes(n_specs: int, shards: int) -> List[int]:
    """Contiguous near-equal split: earlier shards take the remainder.

    Pure function of its arguments, shared by the coordinator and the
    RNG-stream partition so both always agree on the block boundaries.
    """
    if n_specs < 1:
        raise FleetError(f"need at least one spec, got {n_specs}")
    if shards < 1:
        raise FleetError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n_specs)
    base, extra = divmod(n_specs, shards)
    return [base + (1 if k < extra else 0) for k in range(shards)]


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
    """One shard's in-process state machine (runs inside the worker)."""

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
                placement=config.placement,
                table=self.table,
                index=i,
                thermal=config.thermal,
            )
            for i, (spec, rng) in enumerate(zip(specs, rngs))
        ]
        self._session_of = {s.spec.session_id: s for s in self.sessions}
        self._stepped: List[Tuple[int, Any]] = []
        self._dims: List[int] = []
        self._n_guided = 0

    def tick_begin(self, msg: Dict[str, Any]) -> Dict[str, float]:
        """Apply coordinator commands, propose, begin; return demands."""
        tick = int(msg["tick"])
        if self.topology is not None:
            # Outage fallbacks touch only this shard's own tenants, so the
            # cross-shard detach order is irrelevant.
            for session_id in maintain_topology(
                self.topology, self.config, self.clock.now_s
            ):
                self._session_of[session_id].fallback_to_device("outage")
        for local_idx, directive, entry in msg["admit"]:
            self.sessions[local_idx].admit_directed(
                tick, directive, warm_entry=entry
            )
        for local_idx in msg["shed"]:
            session = self.sessions[local_idx]
            assert self.topology is not None
            self.topology.detach(session.spec.session_id)
            session.fallback_to_device("shed")
        for local_idx, node_name in msg["migrate"]:
            self.sessions[local_idx].migrate_edge(node_name, tick)
        self._stepped, self._dims, self._n_guided = propose_and_begin(
            self.service, self.table, self.sessions
        )
        demands: Dict[str, float] = {}
        if self.topology is not None:
            for node in self.topology.nodes:
                demands.update(node.server.snapshot())
        return demands

    def inject_externs(self, externs: Dict[str, float]) -> None:
        assert self.topology is not None
        for node in self.topology.nodes:
            node.server.extern_override = externs

    def tick_finish(self, tick: int) -> Dict[str, Any]:
        """Solve, measure, retire; ship worker-truth events up."""
        stepped = self._stepped
        for (i, pending), steady in zip(
            stepped,
            batched_steady(self.table, self.sessions, [i for i, _ in stepped]),
        ):
            self.sessions[i].finish_step(pending, steady_latencies=steady)
        retired: List[int] = []
        donations: List[Tuple[int, Optional[Dict[str, Any]]]] = []
        for i in self.table.exhausted_indices():
            donation = self.sessions[int(i)].finish(tick, store=None)
            retired.append(int(i))
            donations.append((int(i), donation))
        self.clock.advance(self.config.tick_s)
        return {
            "n_guided": self._n_guided,
            "dims": self._dims,
            "retired": retired,
            "donations": donations,
        }


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
                conn.send(worker.tick_finish(int(msg["tick"])))
            elif op == "collect":
                conn.send(worker.table.shard_payload())
            elif op == "stop":
                break
            else:  # pragma: no cover - protocol guard
                raise FleetError(f"unknown shard op {op!r}")
    finally:
        conn.close()


class ShardedFleetScheduler:
    """Coordinator for a shard-parallel fleet run.

    Drop-in for :class:`~repro.fleet.scheduler.FleetScheduler.run` —
    same constructor shape, same :class:`FleetResult`, byte-identical
    output at any shard count for a fixed seed.
    """

    def __init__(
        self,
        specs: Sequence[SessionSpec],
        seed: SeedLike = None,
        config: Optional[FleetConfig] = None,
        store: Optional[SharedConfigStore] = None,
    ) -> None:
        specs = validate_specs(specs)
        self.specs = specs
        self.config = config if config is not None else FleetConfig()
        self.store = store if store is not None else SharedConfigStore()
        self.clock = SimClock()
        self.table = SessionTable(specs, self.config.hbo)
        self.topology: Optional[EdgeTopology] = (
            EdgeTopology(self.config.topology)
            if self.config.topology is not None
            else None
        )
        self._row_of = {spec.session_id: i for i, spec in enumerate(specs)}
        #: Pure per-spec (est_streams, heaviest profile) inputs placement
        #: and the migration guard need (the in-process scheduler reads
        #: them off live sessions; they depend only on the spec).
        self._demand = [offload_demand(spec) for spec in specs]
        self._signatures: Dict[
            Tuple[str, str, str, int], EnvironmentSignature
        ] = {}
        self._placement_outcomes: List[Optional[PlacementOutcome]] = [
            None
        ] * len(specs)
        self._shed_fallbacks = 0
        self._outage_fallbacks = 0
        self._batches = 0
        self._proposals = 0

        sizes = shard_sizes(len(specs), self.config.shards)
        self._starts: List[int] = []
        start = 0
        for size in sizes:
            self._starts.append(start)
            start += size
        self._sizes = sizes
        shard_rngs = spawn_shard_rngs(seed, sizes)
        method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        ctx = mp.get_context(method)
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        for k, (block_start, size) in enumerate(zip(self._starts, sizes)):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(
                    child,
                    specs[block_start : block_start + size],
                    self.config,
                    shard_rngs[k],
                ),
                name=f"fleet-shard-{k}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    # ----------------------------------------------------------- addressing

    def _shard_local(self, row: int) -> Tuple[int, int]:
        """(shard index, local row) of a global table row."""
        for k in range(len(self._starts) - 1, -1, -1):
            if row >= self._starts[k]:
                return k, row - self._starts[k]
        raise FleetError(f"row {row} outside every shard")  # pragma: no cover

    # --------------------------------------------------- coordinator phase A

    def _note_fallback(self, row: int) -> None:
        self.table.edge_node[row] = ""
        self.table.attached_tick[row] = -1

    def _signature_of(self, spec: SessionSpec) -> EnvironmentSignature:
        """The spec's environment signature, cached per cohort.

        The signature depends on the scene (scenario + placement seed)
        and the taskset — never on the session's measurement-noise seed —
        so the coordinator computes it from a throwaway system without
        touching any session RNG stream.
        """
        key = (spec.scenario, spec.taskset, spec.device, spec.placement_seed)
        cached = self._signatures.get(key)
        if cached is not None:
            return cached
        system = build_system(
            spec.scenario,
            spec.taskset,
            device=spec.device,
            seed=0,
            noise_sigma=spec.noise_sigma,
            samples_per_period=spec.samples_per_period,
            place_objects=False,
        )
        place_catalog(
            system.scene,
            scenario_catalog(spec.scenario),
            seed=spec.placement_seed,
        )
        signature = EnvironmentSignature.of(system)
        self._signatures[key] = signature
        return signature

    def _place_session(self, row: int, spec: SessionSpec, tick: int) -> Tuple:
        """Run placement on the authoritative topology; returns the
        admission directive for the owning worker."""
        assert self.topology is not None
        est, profile = self._demand[row]
        if profile is None:
            return ("device",)
        outcome = place(
            self.topology,
            PlacementRequest(
                session_id=spec.session_id,
                est_streams=est,
                position=spec.position,
                profile=profile,
            ),
            self.config.placement,
        )
        self._placement_outcomes[row] = outcome
        if outcome.node is None:
            obs.counter(
                "edge_admission_rejections", policy=self.config.placement
            ).inc()
            return ("rejected",)
        node = self.topology.node(outcome.node)
        self.topology.attach(
            spec.session_id,
            outcome.node,
            WirelessLink(node.config.link, _PLACEHOLDER_LINK_SEED),
        )
        self.table.edge_node[row] = outcome.node
        self.table.attached_tick[row] = tick
        obs.counter(
            "edge_placements",
            policy=self.config.placement,
            node=outcome.node,
        ).inc()
        return ("node", outcome.node)

    def _admit_arrivals(
        self, tick: int, commands: List[Dict[str, Any]]
    ) -> None:
        for i in self.table.due_indices(self.clock.now_s):
            spec = self.specs[i]
            entry: Optional[WarmStartEntry] = None
            if self.config.warm_start:
                entry = self.store.warm_start_for(
                    self._signature_of(spec), scope=spec.device
                )
            directive: Tuple = (
                self._place_session(int(i), spec, tick)
                if self.topology is not None
                else ("device",)
            )
            self.table.phase[i] = PHASE_ACTIVE
            self.table.start_tick[i] = tick
            shard, local = self._shard_local(int(i))
            commands[shard]["admit"].append((local, directive, entry))

    def _shed_overloaded(self, commands: List[Dict[str, Any]]) -> None:
        assert self.topology is not None
        for node in self.topology.nodes:
            for session_id in self.topology.shed_candidates(node.name):
                self.topology.detach(session_id)
                row = self._row_of[session_id]
                self._note_fallback(row)
                self._shed_fallbacks += 1
                shard, local = self._shard_local(row)
                commands[shard]["shed"].append(local)

    def _migrate_sessions(
        self, tick: int, commands: List[Dict[str, Any]]
    ) -> None:
        assert self.topology is not None
        migration = self.topology.config.migration
        if not migration.enabled:
            return
        table = self.table
        for row in range(table.n):
            if table.phase[row] != PHASE_ACTIVE or not table.edge_node[row]:
                continue
            attached = int(table.attached_tick[row])
            if attached < 0 or tick - attached < migration.dwell_ticks:
                continue
            est, profile = self._demand[row]
            if profile is None:
                continue
            session_id = self.specs[row].session_id
            node = self.topology.node(table.edge_node[row])
            demand = node.server.demand_of(session_id)
            target = migration_candidate(
                self.topology,
                session_id,
                profile,
                demand if demand > 0 else est,
            )
            if target is None:
                continue
            previous = self.topology.detach(session_id)
            target_node = self.topology.node(target)
            self.topology.attach(
                session_id,
                target,
                WirelessLink(target_node.config.link, _PLACEHOLDER_LINK_SEED),
            )
            # Carry the published demand across, exactly like the live
            # runtime's migrate path, so same-tick utilization reads on
            # the authoritative servers match the in-process scheduler.
            target_node.server.set_demand(session_id, demand)
            table.edge_node[row] = target
            table.attached_tick[row] = tick
            table.migrations[row] += 1
            shard, local = self._shard_local(row)
            commands[shard]["migrate"].append((local, target))
            obs.counter("edge_migrations", src=previous, dst=target).inc()

    # -------------------------------------------------------------- barrier

    def _recv(self, shard: int, stage: str) -> Any:
        """One worker's answer; a dead worker raises :class:`FleetError`
        naming the shard and the stage instead of a bare ``EOFError``."""
        try:
            return self._conns[shard].recv()
        except (EOFError, OSError) as exc:
            proc = self._procs[shard]
            proc.join(timeout=5)
            raise FleetError(
                f"fleet shard {shard} ({proc.name}) died during {stage} "
                f"(exit code {proc.exitcode})"
            ) from exc

    def _server_of(self, session_id: str) -> EdgeServer:
        assert self.topology is not None
        node_name = self.topology.assignment_of(session_id)
        if node_name is None:  # pragma: no cover - protocol guard
            raise FleetError(f"{session_id}: demand from unattached session")
        return self.topology.node(node_name).server

    def _demand_barrier(self, tick: int) -> None:
        """Fold worker demands into the authoritative servers, answer
        with every tenant's external-stream sum."""
        merged: Dict[str, float] = {}
        for k in range(len(self._conns)):
            merged.update(self._recv(k, f"tick {tick}")["demands"])
        for session_id, demand in merged.items():
            self._server_of(session_id).set_demand(session_id, demand)
        externs = {
            session_id: self._server_of(session_id).extern_streams(session_id)
            for session_id in merged
        }
        for conn in self._conns:
            conn.send({"externs": externs})

    # ------------------------------------------------------------- stepping

    def _step(self, tick: int) -> None:
        with obs.span("fleet.tick", category="fleet", tick=tick) as span:
            commands: List[Dict[str, Any]] = [
                {"admit": [], "shed": [], "migrate": []} for _ in self._conns
            ]
            if self.topology is not None:
                for session_id in maintain_topology(
                    self.topology, self.config, self.clock.now_s
                ):
                    self._note_fallback(self._row_of[session_id])
                    self._outage_fallbacks += 1
            self._admit_arrivals(tick, commands)
            if self.topology is not None:
                self._shed_overloaded(commands)
                self._migrate_sessions(tick, commands)
            for conn, command in zip(self._conns, commands):
                conn.send({"op": "tick", "tick": tick, **command})
            if self.topology is not None:
                self._demand_barrier(tick)
            table = self.table
            active_idx = table.active_indices()
            dims_union: set = set()
            n_guided = 0
            reported_retired: List[int] = []
            donations: List[Tuple[int, Optional[Dict[str, Any]]]] = []
            for k, start in enumerate(self._starts):
                events = self._recv(k, f"tick {tick}")
                n_guided += int(events["n_guided"])
                dims_union.update(events["dims"])
                reported_retired.extend(
                    start + local for local in events["retired"]
                )
                donations.extend(
                    (start + local, payload)
                    for local, payload in events["donations"]
                )
            self._batches += len(dims_union)
            self._proposals += n_guided
            # Every active row steps exactly once per tick; retirement is
            # the same budget comparison the workers ran, asserted below.
            table.n_results[active_idx] += 1
            retiring = table.exhausted_indices()
            if sorted(reported_retired) != [int(i) for i in retiring]:
                raise FleetError(
                    f"tick {tick}: worker retirements {sorted(reported_retired)} "
                    f"disagree with coordinator budget accounting "
                    f"{[int(i) for i in retiring]}"
                )
            for row, payload in sorted(donations, key=lambda item: item[0]):
                if payload is not None:
                    self.store.donate(**payload)
            for i in retiring:
                session_id = self.specs[int(i)].session_id
                if (
                    self.topology is not None
                    and self.topology.assignment_of(session_id) is not None
                ):
                    self.topology.detach(session_id)
                table.phase[i] = PHASE_DONE
                table.end_tick[i] = tick
            span.set(n_active=len(active_idx), n_guided=n_guided)
            if self.topology is not None:
                for node in self.topology.nodes:
                    obs.gauge("edge_server_load", node=node.name).set(
                        node.utilization
                    )
            self.clock.advance(self.config.tick_s)
        obs.counter("fleet_ticks").inc()
        obs.gauge("fleet_active_sessions").set(len(active_idx))

    def run(self) -> FleetResult:
        """Drive the sharded fleet until every session has drained."""
        table = self.table
        try:
            ticks = drain(table, self.config.tick_s, self._step)
            for conn in self._conns:
                conn.send({"op": "collect"})
            for k, start in enumerate(self._starts):
                table.absorb(start, self._recv(k, "the final collect"))
        finally:
            self._shutdown()
        reports = table.build_reports(self._placement_outcomes)
        return FleetResult(
            reports=reports,
            aggregates=table.aggregates(),
            histogram=table.histogram(),
            store_stats=self.store.stats(),
            service_stats={
                "batches": self._batches,
                "proposals_served": self._proposals,
            },
            ticks=ticks,
            tick_s=self.config.tick_s,
            topology_stats=topology_stats(
                self.topology,
                self.config.placement,
                self._placement_outcomes,
                table,
                self._shed_fallbacks,
                self._outage_fallbacks,
            ),
        )

    def _shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send({"op": "stop"})
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker guard
                proc.terminate()
                proc.join(timeout=5)
