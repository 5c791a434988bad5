"""The fleet scheduler: many MAR sessions against one edge optimizer.

The paper tunes one device; an edge server actually serves *fleets* —
many users, mixed device models, mixed scenes, arriving and leaving at
different times. :class:`FleetScheduler` simulates that: sessions are
admitted from their specs as the shared :class:`~repro.sim.clock.
SimClock` passes their arrival time, every active session runs one
control period per tick, and guided-phase proposals for all sessions come
out of one :class:`~repro.fleet.batch.SharedOptimizerService` call per
tick, each priced by the session's own exact GP.

The tick loop is one coordinator (:class:`FleetScheduler`) over shard
workers (:mod:`repro.fleet.shard`): the coordinator makes every decision
sessions share, the workers step the sessions; ``FleetConfig.shards``
only picks whether the one worker runs in-process or N run forked.

Determinism contract: ``spawn_rngs(seed, n)`` hands each session its own
decorrelated stream in spec order, sessions are admitted and stepped in
spec order, and nothing draws from a shared stream — so one seed
reproduces the whole fleet trace bit-for-bit regardless of how sessions
interleave.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backend.solve import price_placement_rows
from repro.ar.distribution import distribute_triangles_grouped
from repro.core.algorithm import DecodedPoint, PendingEvaluation
from repro.core.controller import HBOConfig
from repro.core.lookup import EnvironmentSignature
from repro.edge.link import WirelessLink
from repro.edge.placement import (
    PlacementOutcome,
    migration_candidate,
    resolve_policy,
)
from repro.edge.server import EdgeServer
from repro.edge.topology import EdgeTopology, EdgeTopologyConfig
from repro.errors import FleetError
from repro.fleet.batch import SharedOptimizerService
from repro.fleet.session import FleetSession, SessionSpec, offload_demand, place_spec
from repro.fleet.store import SharedConfigStore, WarmStartEntry
from repro.fleet.table import PHASE_ACTIVE, PHASE_DONE, SessionTable
from repro.fleet.telemetry import FleetAggregates, FleetSessionReport
from repro.obs import runtime as obs
from repro.rng import SeedLike, spawn_shard_rngs
from repro.device.thermal import ThermalSpec
from repro.sim.clock import SimClock
from repro.sim.events import SceneEvent
from repro.sim.scenarios import (
    ServerOutage,
    build_system,
    network_drift_scale,
    place_catalog,
    scenario_catalog,
)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (per-session BO knobs live in ``hbo``)."""

    tick_s: float = 1.0  # one control period per session per tick
    warm_start: bool = True  # consult the shared store on admission
    hbo: HBOConfig = field(default_factory=HBOConfig)
    #: Edge offloading (off by default): sessions are placed onto one of
    #: N nodes at arrival, admission can reject them onto their devices,
    #: saturated nodes shed tenants, and drift can migrate them — see
    #: :mod:`repro.edge.topology`. :meth:`EdgeTopologyConfig.single` is
    #: one shared server every session contends on (CLI ``--edge``).
    topology: Optional[EdgeTopologyConfig] = None
    #: Placement policy name for topology mode (see
    #: :data:`repro.edge.placement.PLACEMENT_POLICIES`).
    placement: str = "price-aware"
    #: Per-node scheduled bandwidth drift, node name → (time_s, scale)
    #: breakpoints (topology mode only).
    edge_drift: Optional[Mapping[str, Tuple[Tuple[float, float], ...]]] = None
    #: Scheduled server outages (topology mode only).
    edge_outages: Tuple[ServerOutage, ...] = ()
    #: Worker count of the tick loop: the spec list is dealt out by
    #: stride into this many cohorts (shard k owns rows k, k+S, …), one
    #: worker each (see :mod:`repro.fleet.shard`).
    #: ``1`` steps its one worker in-process; more fork one process per
    #: worker. Any value reproduces the ``shards=1`` output byte-for-byte
    #: at the same seed.
    shards: int = 1
    #: Thermal-throttling gate (off by default): when set, sessions whose
    #: spec carries ``thermal=True`` get a fresh
    #: :class:`~repro.device.thermal.ThermalModel` built from these
    #: parameters on admission. ``None`` keeps every device athermal
    #: regardless of spec flags — the legacy byte-identical path.
    thermal: Optional[ThermalSpec] = None
    #: Per-session scene-event scripts, session id → time-sorted events
    #: (absolute fleet sim time). The session's worker fires its due
    #: events once, right before that tick's proposals, so the §IV-E
    #: distance→culling→latency mechanism runs inside fleet runs. Built
    #: by the scenario engine's mobility axis; ``None`` (default) is the
    #: legacy static-scene path.
    session_events: Optional[Mapping[str, Tuple[SceneEvent, ...]]] = None
    #: Per-session wireless-link bandwidth schedules, session id →
    #: (time_s, scale) breakpoints — the mobility axis's link half (a
    #: user walking away from their serving cell). Applied to the
    #: session's own link each tick; scales must respect the link's
    #: ``[min_scale, max_scale]`` band. Requires a topology.
    link_drift: Optional[Mapping[str, Tuple[Tuple[float, float], ...]]] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tick_s) and self.tick_s > 0):
            raise FleetError(f"tick_s must be finite and > 0, got {self.tick_s}")
        if isinstance(self.shards, bool) or not isinstance(
            self.shards, numbers.Integral
        ):
            raise FleetError(f"shards must be an integer, got {self.shards!r}")
        if self.shards < 1:
            raise FleetError(f"shards must be >= 1, got {self.shards}")
        resolve_policy(self.placement)
        if self.topology is None and (self.edge_drift or self.edge_outages):
            raise FleetError(
                "edge_drift/edge_outages require a topology to schedule "
                "against"
            )
        if self.topology is not None:
            names = {node.name for node in self.topology.nodes}
            for name in self.edge_drift or {}:
                if name not in names:
                    raise FleetError(
                        f"edge_drift names unknown node {name!r} "
                        f"(topology has {sorted(names)})"
                    )
            for episode in self.edge_outages:
                if episode.node not in names:
                    raise FleetError(
                        f"edge_outages names unknown node {episode.node!r} "
                        f"(topology has {sorted(names)})"
                    )
        if self.link_drift and self.topology is None:
            raise FleetError(
                "link_drift needs an edge topology — device-only sessions "
                "have no wireless link to drift"
            )
        for sid, script in (self.session_events or {}).items():
            times = [event.time_s for event in script]
            if times != sorted(times):
                raise FleetError(
                    f"session_events[{sid!r}] must be time-sorted"
                )
        # network_drift_scale takes the last *listed* breakpoint at or
        # before now, so an unsorted schedule silently applies a stale
        # scale; a NaN time never comes due, and a NaN scale only fails
        # mid-run when the link applies it.
        for field_name in ("edge_drift", "link_drift"):
            for key, schedule in (getattr(self, field_name) or {}).items():
                if not all(
                    math.isfinite(time_s) and math.isfinite(scale)
                    for time_s, scale in schedule
                ):
                    raise FleetError(
                        f"{field_name}[{key!r}] breakpoints must be finite, "
                        f"got {tuple(schedule)}"
                    )
                times = [time_s for time_s, _ in schedule]
                if not times or times != sorted(times):
                    raise FleetError(
                        f"{field_name}[{key!r}] must be a non-empty, "
                        "time-sorted schedule"
                    )


def propose_and_begin(
    service: SharedOptimizerService,
    table: SessionTable,
    sessions: Sequence[FleetSession],
) -> Tuple[List[Tuple[int, PendingEvaluation]], List[int], int]:
    """Batched ask + apply for every active table row, in row order.

    Rows whose live optimizer is past its random phase are grouped by
    that optimizer's space dimension (ascending) and each group takes one
    :meth:`SharedOptimizerService.propose` call; initial-phase rows ask
    their own samplers. Every row's point is decoded, TD runs once per
    object count over all rows
    (:func:`~repro.ar.distribution.distribute_triangles_grouped`), and
    then each session applies its row, in row order, so edge demand
    accumulates as if the sessions had begun one by one. Returns the
    begun ``(row, pending)`` pairs, the dims proposed, and the guided
    count.
    """
    # Sessions that fell back to the device run a 3-simplex next to their
    # 4-simplex peers; one propose() call takes one space dimension, so
    # group by space dim (one group — the identical legacy call — when
    # homogeneous).
    groups: Dict[int, List[int]] = {}
    initial: List[int] = []
    for i in table.active_indices():
        session = sessions[i]
        if session.needs_guided_proposal:
            assert session.optimizer is not None
            groups.setdefault(session.optimizer.space.dim, []).append(int(i))
        else:
            initial.append(int(i))
    decoded: List[Tuple[int, DecodedPoint]] = []
    for dim in sorted(groups):
        group = groups[dim]
        proposals = service.propose(
            [sessions[i].optimizer for i in group],
            [sessions[i].rng for i in group],
        )
        for i, z in zip(group, proposals):
            decoded.append((i, sessions[i].decode(z)))
    n_guided = len(decoded)
    for i in initial:
        decoded.append((i, sessions[i].decode()))
    systems = [sessions[i].system for i, _ in decoded]
    td_rows = distribute_triangles_grouped(
        [system.scene.columns for system in systems],  # type: ignore[union-attr]
        [point.triangle_ratio for _, point in decoded],
        [system.td_reference_ratio for system in systems],  # type: ignore[union-attr]
    )
    stepped = [
        (i, sessions[i].begin(point, row))
        for (i, point), row in zip(decoded, td_rows)
    ]
    return stepped, sorted(groups), n_guided


def batched_steady(
    sessions: Sequence[FleetSession],
    stepped: Sequence[int],
) -> List[Dict[str, float]]:
    """Steady-state latencies for all stepped session rows, one solve.

    Each stepped session contributes its live device's placement row to
    one :func:`~repro.backend.solve.price_placement_rows` call. Rows are
    unthrottled: a thermal device applies its per-sample throttle factor
    inside ``measure_period``.
    """
    if not stepped:
        return []
    rows = []
    for i in stepped:
        system = sessions[i].system
        assert system is not None
        rows.append(system.device.placement_row())
    return price_placement_rows(rows)


def validate_specs(specs: Sequence[SessionSpec]) -> Tuple[SessionSpec, ...]:
    """The specs as a tuple; raises unless non-empty with unique ids."""
    specs = tuple(specs)
    if not specs:
        raise FleetError("a fleet needs at least one session spec")
    ids = [spec.session_id for spec in specs]
    duplicates = sorted({s for s in ids if ids.count(s) > 1})
    if duplicates:
        raise FleetError(f"duplicate session ids: {duplicates}")
    return specs


def maintain_topology(
    topology: EdgeTopology, config: FleetConfig, now_s: float
) -> List[str]:
    """Apply the scheduled cell drift and outage windows due at ``now_s``.

    Runs before admissions so arrivals are placed against the state they
    would actually experience. A node *entering* an outage detaches
    every tenant; a node leaving one simply starts admitting again.
    Returns the detached session ids in detach order — the caller moves
    each onto its device (graceful fallback) or marks its row. Drift and
    outages are pure functions of sim time and config, so shard workers
    replay this on their mirror topologies instead of receiving commands.
    """
    orphaned: List[str] = []
    drift = config.edge_drift
    for node in topology.nodes:
        if drift and node.name in drift:
            node.set_bandwidth_scale(
                network_drift_scale(now_s, tuple(drift[node.name]))
            )
        down = any(
            episode.node == node.name and episode.covers(now_s)
            for episode in config.edge_outages
        )
        if down != node.in_outage:
            node.set_outage(down)
            if down:
                for session_id in node.server.tenant_ids:
                    topology.detach(session_id)
                    orphaned.append(session_id)
    return orphaned


def drain(
    table: SessionTable, tick_s: float, step: Callable[[int], None]
) -> int:
    """Call ``step(tick)`` until every table row is done; returns the
    tick count. Raises :class:`FleetError` naming the stuck sessions if
    the fleet outlives its last arrival plus the longest budget."""
    max_ticks = (
        int(math.ceil(float(table.arrival_s.max()) / tick_s))
        + table.max_budget
        + 4
    )
    tick = 0
    while not table.all_done():
        if tick > max_ticks:
            stuck = [
                table.session_ids[i]
                for i in np.nonzero(table.phase != PHASE_DONE)[0]
            ]
            raise FleetError(
                f"fleet did not drain within {max_ticks} ticks; "
                f"stuck sessions: {stuck}"
            )
        step(tick)
        tick += 1
    return tick


def topology_stats(
    topology: Optional[EdgeTopology],
    placement: str,
    outcomes: Sequence[Optional[PlacementOutcome]],
    table: SessionTable,
) -> Optional[Dict[str, Any]]:
    """Roll up placement/admission/migration outcomes for reporting.

    ``None`` without a topology and for a singleton one (the ``--edge``
    shape), whose run renders no topology block.
    """
    if topology is None or topology.config.is_singleton:
        return None
    placements = {node.name: 0 for node in topology.nodes}
    rejections = 0
    for outcome in outcomes:
        if outcome is not None:
            if outcome.node is None:
                rejections += 1
            else:
                placements[outcome.node] += 1
    return {
        "n_nodes": len(topology.nodes),
        "placement_policy": placement,
        "placements": placements,
        "rejections": rejections,
        # A session falls back at most once: it has no tenancy after.
        "sheds": table.fallback_reason.count("shed"),
        "outage_fallbacks": table.fallback_reason.count("outage"),
        "migrations": int(table.migrations.sum()),
        "final_utilization": {
            node.name: node.utilization for node in topology.nodes
        },
    }


@dataclass
class FleetResult:
    """Outcome of one fleet run (see :mod:`repro.fleet.telemetry`)."""

    reports: Tuple[FleetSessionReport, ...]
    aggregates: FleetAggregates
    histogram: Dict[int, int]
    store_stats: Dict[str, Any]
    service_stats: Dict[str, Any]
    ticks: int
    tick_s: float
    #: Placement/admission/migration roll-up for topology runs. ``None``
    #: for device-only runs AND for a singleton topology (the one shared
    #: server of ``--edge``), see :func:`topology_stats`.
    topology_stats: Optional[Dict[str, Any]] = None

    def report_for(self, session_id: str) -> FleetSessionReport:
        for report in self.reports:
            if report.session_id == session_id:
                return report
        raise FleetError(f"no session {session_id!r} in this fleet run")


#: Seed of the coordinator's placeholder links. The coordinator never
#: samples a link (workers own the drift traces, seeded from their own
#: session streams), so the value is irrelevant — it only satisfies the
#: topology's attach signature.
_PLACEHOLDER_LINK_SEED = 0


class FleetScheduler:
    """The fleet's one tick loop: a coordinator over shard workers.

    The coordinator owns every piece of state sessions share: the clock,
    the :class:`SharedConfigStore` (warm lookups at admission, donations
    at retirement), the authoritative :class:`EdgeTopology` (placement,
    admission, shedding, migration, the demand barrier's external-stream
    sums), retirement, the edge decision counters and the
    :class:`FleetResult`. Workers (:class:`repro.fleet.shard._ShardWorker`)
    own the session objects and their RNG streams and execute its
    directives. ``config.shards`` picks only the transport: one shard is
    one worker called in-process, more are forked worker processes driven
    over pipes, and every count reproduces the same bytes at one seed.
    """

    def __init__(
        self,
        specs: Sequence[SessionSpec],
        seed: SeedLike = None,
        config: Optional[FleetConfig] = None,
        store: Optional[SharedConfigStore] = None,
    ) -> None:
        # Imported here: repro.fleet.shard builds on this module's
        # row-pass helpers, so a module-level import would be a cycle.
        from repro.fleet.shard import _shard_worker_main, _ShardWorker, shard_rows

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
        for field_name in ("session_events", "link_drift"):
            mapping = getattr(self.config, field_name) or {}
            unknown = sorted(set(mapping) - set(self._row_of))
            if unknown:
                raise FleetError(
                    f"{field_name} names unknown session ids: {unknown}"
                )
        #: Pure per-spec (est_streams, heaviest profile) inputs placement
        #: and the migration guard need.
        self._demand = [offload_demand(spec) for spec in specs]
        self._signatures: Dict[
            Tuple[str, str, str, int], EnvironmentSignature
        ] = {}
        self._placement_outcomes: List[Optional[PlacementOutcome]] = [
            None
        ] * len(specs)
        self._batches = 0
        self._proposals = 0

        #: Shard k's global rows (strided: k, k+S, …); local row j of
        #: shard k is global row ``self._rows[k][j]``.
        self._rows = shard_rows(len(specs), self.config.shards)
        shard_rngs = spawn_shard_rngs(seed, self._rows)
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        #: The one worker, stepped in this process, at a single shard.
        self._worker: Optional[_ShardWorker] = None
        if len(self._rows) == 1:
            self._worker = _ShardWorker(specs, self.config, shard_rngs[0])
            return
        method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        ctx = mp.get_context(method)
        for k, rows in enumerate(self._rows):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(
                    child,
                    [specs[r] for r in rows],
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
        local, shard = divmod(row, len(self._rows))
        return shard, local

    # ----------------------------------------------------- coordinator phase

    def _note_fallback(self, row: int, reason: str) -> None:
        self.table.edge_node[row] = ""
        self.table.attached_tick[row] = -1
        self.table.fallback_reason[row] = reason
        obs.counter("edge_fallbacks", reason=reason).inc()

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

    def _place_session(self, row: int, tick: int) -> Tuple:
        """Run placement on the authoritative topology; returns the
        admission directive for the owning worker."""
        assert self.topology is not None
        spec = self.specs[row]
        est, profile = self._demand[row]
        if profile is None:
            return ("device",)
        outcome = place_spec(
            self.topology, spec, est, profile, self.config.placement
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
        # Due-mask selection over the table's arrival/phase columns; the
        # due rows come back in spec order.
        for i in self.table.due_indices(self.clock.now_s):
            spec = self.specs[i]
            entry: Optional[WarmStartEntry] = None
            if self.config.warm_start:
                entry = self.store.warm_start_for(
                    self._signature_of(spec), scope=spec.device
                )
            directive: Tuple = (
                self._place_session(int(i), tick)
                if self.topology is not None
                else ("device",)
            )
            self.table.phase[i] = PHASE_ACTIVE
            self.table.start_tick[i] = tick
            shard, local = self._shard_local(int(i))
            commands[shard]["admit"].append((local, directive, entry))

    def _shed_overloaded(self, commands: List[Dict[str, Any]]) -> None:
        """Push the newest tenants of any saturated node back onto their
        devices until its utilization re-enters the admission band."""
        assert self.topology is not None
        for node in self.topology.nodes:
            for session_id in self.topology.shed_candidates(node.name):
                self.topology.detach(session_id)
                row = self._row_of[session_id]
                self._note_fallback(row, "shed")
                shard, local = self._shard_local(row)
                commands[shard]["shed"].append(local)

    def _migrate_sessions(
        self, tick: int, commands: List[Dict[str, Any]]
    ) -> None:
        """Move sessions whose node drifted expensive, hysteresis-bounded.

        A session migrates only after the configured dwell on its current
        node and only to a candidate pricing the offload at least the
        hysteresis fraction cheaper — both read from the topology's
        :class:`~repro.edge.topology.MigrationConfig`.
        """
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
            # Carry the published demand across, exactly like the worker's
            # runtime migrate, so same-tick utilization reads on the
            # authoritative servers match the workers'.
            target_node.server.set_demand(session_id, demand)
            ordinal = int(table.migrations[row])
            table.edge_node[row] = target
            table.attached_tick[row] = tick
            table.migrations[row] = ordinal + 1
            shard, local = self._shard_local(row)
            commands[shard]["migrate"].append((local, target, ordinal))
            obs.counter("edge_migrations", src=previous, dst=target).inc()

    # -------------------------------------------------------------- workers

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

    def _externs(self, demands: Dict[str, float]) -> Dict[str, float]:
        """The demand barrier: fold worker demands into the authoritative
        servers, answer with every tenant's external-stream sum."""
        for session_id, demand in demands.items():
            self._server_of(session_id).set_demand(session_id, demand)
        return {
            session_id: self._server_of(session_id).extern_streams(session_id)
            for session_id in demands
        }

    def _tick_workers(
        self, tick: int, commands: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Run every worker's row pass; their answers in shard order.

        Forked workers all get their tick message before any answer is
        awaited, so they step in parallel.
        """
        if self._worker is not None:
            worker = self._worker
            demands = worker.tick_begin({"tick": tick, **commands[0]})
            if self.topology is not None:
                worker.inject_externs(self._externs(demands))
            return [worker.tick_finish()]
        stage = f"tick {tick}"
        for conn, command in zip(self._conns, commands):
            conn.send({"op": "tick", "tick": tick, **command})
        if self.topology is not None:
            demands = {}
            for k in range(len(self._conns)):
                demands.update(self._recv(k, stage)["demands"])
            externs = self._externs(demands)
            for conn in self._conns:
                conn.send({"externs": externs})
        return [self._recv(k, stage) for k in range(len(self._conns))]

    # ------------------------------------------------------------- stepping

    def step(self, tick: int) -> None:
        """One fleet tick: coordinator decisions, worker rows, close.

        The coordinator applies drift/outage upkeep, admits arrivals
        (placement + warm lookup), sheds and migrates, and ships the
        decisions down as commands. Each worker applies them, fires its
        sessions' scene events and link drift, proposes (one propose() call
        per space dim), publishes edge demands, takes the external
        demand sums from the barrier, prices every stepped row in one
        :func:`repro.backend.solve`, measures, and retires. The
        coordinator then donates in spec order and releases retiring
        tenancies.
        """
        with obs.span("fleet.tick", category="fleet", tick=tick) as span:
            commands: List[Dict[str, Any]] = [
                {"admit": [], "shed": [], "migrate": []} for _ in self._rows
            ]
            if self.topology is not None:
                for session_id in maintain_topology(
                    self.topology, self.config, self.clock.now_s
                ):
                    self._note_fallback(self._row_of[session_id], "outage")
            self._admit_arrivals(tick, commands)
            if self.topology is not None:
                self._shed_overloaded(commands)
                self._migrate_sessions(tick, commands)
            answers = self._tick_workers(tick, commands)
            table = self.table
            active_idx = table.active_indices()
            dims_union: set = set()
            n_guided = 0
            reported_retired: List[int] = []
            donations: List[Tuple[int, Optional[Dict[str, Any]]]] = []
            for rows, answer in zip(self._rows, answers):
                n_guided += int(answer["n_guided"])
                dims_union.update(answer["dims"])
                reported_retired.extend(
                    int(rows[local]) for local in answer["retired"]
                )
                donations.extend(
                    (int(rows[local]), payload)
                    for local, payload in answer["donations"]
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
            # Advance inside the span so a tick renders with its real
            # sim-time width (tick_s) instead of as a zero-width slice.
            self.clock.advance(self.config.tick_s)
        obs.counter("fleet_ticks").inc()
        obs.gauge("fleet_active_sessions").set(len(active_idx))

    _step = step  # perfbench/layers.py resolves this name

    def run(self) -> FleetResult:
        """Drive the fleet until every session has drained."""
        table = self.table
        try:
            ticks = drain(table, self.config.tick_s, self.step)
            if self._worker is not None:
                # No transport in-process: the payload keys are the
                # worker table's own column names, read in place.
                table.absorb(self._rows[0], vars(self._worker.table))
            else:
                for conn in self._conns:
                    conn.send({"op": "collect"})
                for k, rows in enumerate(self._rows):
                    table.absorb(rows, self._recv(k, "the final collect"))
        finally:
            self._shutdown()
        # Reports, aggregates, and the convergence histogram all come
        # from trajectory columns; the cohort convergence target is the
        # table's vectorized per-cohort best (value-identical to the
        # per-session reduction, asserted in the test suite).
        return FleetResult(
            reports=table.build_reports(self._placement_outcomes),
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


def run_fleet(
    specs: Sequence[SessionSpec],
    seed: SeedLike = None,
    config: Optional[FleetConfig] = None,
    store: Optional[SharedConfigStore] = None,
) -> FleetResult:
    """Build a scheduler, run the fleet, return the result."""
    return FleetScheduler(specs, seed=seed, config=config, store=store).run()
