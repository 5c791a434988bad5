"""The fleet scheduler: many MAR sessions against one edge optimizer.

The paper tunes one device; an edge server actually serves *fleets* —
many users, mixed device models, mixed scenes, arriving and leaving at
different times. :class:`FleetScheduler` simulates that: sessions are
admitted from their specs as the shared :class:`~repro.sim.clock.
SimClock` passes their arrival time, every active session runs one
control period per tick, and guided-phase proposals for all sessions come
out of one batched GP pass (:class:`~repro.fleet.batch.
SharedOptimizerService`) instead of per-session fits.

Determinism contract: ``spawn_rngs(seed, n)`` hands each session its own
decorrelated stream in spec order, sessions are admitted and stepped in
spec order, and nothing draws from a shared stream — so one seed
reproduces the whole fleet trace bit-for-bit regardless of how sessions
interleave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backend.solve import solve
from repro.core.algorithm import PendingEvaluation
from repro.core.controller import HBOConfig
from repro.edge.placement import (
    PlacementOutcome,
    migration_candidate,
    resolve_policy,
)
from repro.edge.topology import EdgeTopology, EdgeTopologyConfig
from repro.errors import FleetError
from repro.fleet.batch import SharedOptimizerService
from repro.fleet.session import FleetSession, SessionSpec
from repro.fleet.store import SharedConfigStore
from repro.fleet.table import PHASE_DONE, SessionTable
from repro.fleet.telemetry import FleetAggregates, FleetSessionReport
from repro.obs import runtime as obs
from repro.rng import SeedLike, spawn_rngs
from repro.device.thermal import ThermalSpec
from repro.sim.clock import SimClock
from repro.sim.events import SceneEvent
from repro.sim.scenarios import ServerOutage, apply_network_drift, network_drift_scale


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
    #: Shard-parallel cohorts: split the spec list into this many
    #: contiguous blocks, each stepped in its own worker process (see
    #: :mod:`repro.fleet.shard`). Any value reproduces the ``shards=1``
    #: output byte-for-byte at the same seed.
    shards: int = 1
    #: Thermal-throttling gate (off by default): when set, sessions whose
    #: spec carries ``thermal=True`` get a fresh
    #: :class:`~repro.device.thermal.ThermalModel` built from these
    #: parameters on admission. ``None`` keeps every device athermal
    #: regardless of spec flags — the legacy byte-identical path.
    thermal: Optional[ThermalSpec] = None
    #: Per-session scene-event scripts, session id → time-sorted events
    #: (absolute fleet sim time). The scheduler fires each session's due
    #: events once, right before that tick's proposals, so the §IV-E
    #: distance→culling→latency mechanism runs inside fleet runs. Built
    #: by the scenario engine's mobility axis; ``None`` (default) is the
    #: legacy static-scene path. Requires ``shards == 1``.
    session_events: Optional[Mapping[str, Tuple[SceneEvent, ...]]] = None
    #: Per-session wireless-link bandwidth schedules, session id →
    #: (time_s, scale) breakpoints — the mobility axis's link half (a
    #: user walking away from their serving cell). Applied to the
    #: session's own link each tick; scales must respect the link's
    #: ``[min_scale, max_scale]`` band. Requires a topology and
    #: ``shards == 1``.
    link_drift: Optional[Mapping[str, Tuple[Tuple[float, float], ...]]] = None

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise FleetError(f"tick_s must be > 0, got {self.tick_s}")
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
        if self.shards > 1 and (self.session_events or self.link_drift):
            raise FleetError(
                "session_events/link_drift run in the coordinator's tick "
                "loop and are not shard-aware; use shards=1"
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


def propose_and_begin(
    service: SharedOptimizerService,
    table: SessionTable,
    sessions: Sequence[FleetSession],
) -> Tuple[List[Tuple[int, PendingEvaluation]], List[int], int]:
    """Batched ask + apply for every active table row, in row order.

    Guided rows are grouped by the ``space_dim`` column (ascending) and
    each group takes one :class:`SharedOptimizerService` GP pass;
    initial-phase rows ask their own samplers. Returns the begun
    ``(row, pending)`` pairs, the dims proposed, and the guided count —
    shared verbatim by the in-process scheduler and the shard workers so
    both paths step bit-identically.
    """
    active_idx = table.active_indices()
    guided_mask = table.guided_mask()
    n_guided = int(np.count_nonzero(guided_mask))
    stepped: List[Tuple[int, PendingEvaluation]] = []
    dims_used: List[int] = []
    if n_guided:
        # Sessions that fell back to the device run a 3-simplex next to
        # their 4-simplex peers; the batched GP pass can only mix equal
        # dimensions, so group by space dim (one group — the identical
        # legacy call — when homogeneous).
        guided_idx = np.nonzero(guided_mask)[0]
        dims = table.space_dim[guided_idx]
        for dim in np.unique(dims):
            group = guided_idx[dims == dim]
            dims_used.append(int(dim))
            proposals = service.propose(
                [sessions[i].optimizer for i in group],
                [sessions[i].rng for i in group],
            )
            for i, z in zip(group, proposals):
                stepped.append((int(i), sessions[i].begin_guided(z)))
    for i in active_idx:
        if not guided_mask[i]:
            stepped.append((int(i), sessions[i].begin_initial()))
    return stepped, dims_used, n_guided


def batched_steady(
    table: SessionTable,
    sessions: Sequence[FleetSession],
    stepped: Sequence[int],
) -> List[Optional[Dict[str, float]]]:
    """Steady-state latencies for all stepped table rows, one solve.

    The per-tick pricing columns are refreshed for each stepped row and
    the multi-row :class:`~repro.backend.plan.EvalPlan` is sliced
    straight out of the table (no per-session ``TaskPlacement``
    dataclass hop). Sessions with a thermal model get ``None`` — their
    steady state drifts within the period, so the device resamples it
    locally.
    """
    rows: List[int] = []
    for i in stepped:
        if table.thermal[i]:
            continue
        session = sessions[i]
        assert session.system is not None
        table.refresh_plan_row(i, session.system.device)
        rows.append(i)
    if not rows:
        return [None] * len(stepped)
    plan = table.build_plan(rows)
    result = solve(plan, exact=True)
    row_of = {i: r for r, i in enumerate(rows)}
    return [
        plan.latency_map(result.latency_ms, row_of[i]) if i in row_of else None
        for i in stepped
    ]


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
    sheds: int,
    outage_fallbacks: int,
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
        "sheds": sheds,
        "outage_fallbacks": outage_fallbacks,
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


class FleetScheduler:
    """Admits, steps, and drains a fleet of MAR sessions."""

    def __init__(
        self,
        specs: Sequence[SessionSpec],
        seed: SeedLike = None,
        config: Optional[FleetConfig] = None,
        store: Optional[SharedConfigStore] = None,
        service: Optional[SharedOptimizerService] = None,
    ) -> None:
        specs = validate_specs(specs)
        self.specs = specs
        self.config = config if config is not None else FleetConfig()
        self.store = store if store is not None else SharedConfigStore()
        self.service = service if service is not None else SharedOptimizerService()
        self.clock = SimClock()
        #: The live edge topology all sessions share (None when edge is
        #: off): tenants of one node contend for its compute, so one
        #: session's offloaded demand slows every other's there.
        self.topology: Optional[EdgeTopology] = (
            EdgeTopology(self.config.topology)
            if self.config.topology is not None
            else None
        )
        rngs = spawn_rngs(seed, len(specs))
        #: Columnar source of truth for lifecycle/trajectory/pricing state;
        #: every FleetSession below is a row view into it.
        self.table = SessionTable(specs, self.config.hbo)
        self.sessions: List[FleetSession] = [
            FleetSession(
                spec,
                self.config.hbo,
                rng,
                topology=self.topology,
                placement=self.config.placement,
                table=self.table,
                index=i,
                thermal=self.config.thermal,
            )
            for i, (spec, rng) in enumerate(zip(specs, rngs))
        ]
        self._session_of: Dict[str, FleetSession] = {
            s.spec.session_id: s for s in self.sessions
        }
        known = set(self._session_of)
        for field_name in ("session_events", "link_drift"):
            mapping = getattr(self.config, field_name) or {}
            unknown = sorted(set(mapping) - known)
            if unknown:
                raise FleetError(
                    f"{field_name} names unknown session ids: {unknown}"
                )
        #: Per-session cursor into its event script (events fire once).
        self._event_cursors: Dict[str, int] = {}
        self._shed_fallbacks = 0
        self._outage_fallbacks = 0

    # ------------------------------------------------------------- stepping

    def _admit_arrivals(self, tick: int) -> None:
        # Due-mask selection over the table's arrival/phase columns; the
        # due rows come back in spec order, matching the legacy scan.
        for i in self.table.due_indices(self.clock.now_s):
            self.sessions[i].admit(
                tick, store=self.store, warm_start=self.config.warm_start
            )

    def step(self, tick: int) -> None:
        """One fleet tick: admit, propose (batched), evaluate, retire.

        Evaluation is batched end to end: guided proposals come out of
        one :class:`SharedOptimizerService` GP pass, every stepped
        session's configuration is applied (``begin``), all their steady
        states are computed in **one** :func:`repro.backend.solve` over a
        multi-row :class:`~repro.backend.plan.EvalPlan` (heterogeneous
        devices and tasksets ride in the same batch), and each session
        then finishes its control period from its row. Sessions own
        decorrelated RNG streams and the backend's rows are independent,
        so the result is bit-identical to stepping sessions one at a
        time.
        """
        with obs.span("fleet.tick", category="fleet", tick=tick) as span:
            if self.topology is not None:
                for session_id in maintain_topology(
                    self.topology, self.config, self.clock.now_s
                ):
                    self._session_of[session_id].fallback_to_device("outage")
                    self._outage_fallbacks += 1
            self._admit_arrivals(tick)
            if self.topology is not None:
                self._shed_overloaded()
                self._migrate_sessions(tick)
            if self.config.session_events or self.config.link_drift:
                self._apply_scenario_hooks()
            # Columnar selection: active / guided / initial come from
            # phase + observation-count masks, not attribute scans.
            # Every active row steps, so len(stepped) is the active count.
            table = self.table
            stepped, _, n_guided = propose_and_begin(
                self.service, table, self.sessions
            )
            for (i, pending), steady in zip(
                stepped,
                batched_steady(table, self.sessions, [i for i, _ in stepped]),
            ):
                self.sessions[i].finish_step(pending, steady_latencies=steady)
            # Batched phase transition: the budget column names this
            # tick's retirements; per-session finish() does the heavy
            # lifting (donation, tenancy release) in spec order.
            for i in table.exhausted_indices():
                self.sessions[i].finish(tick, store=self.store)
            span.set(n_active=len(stepped), n_guided=n_guided)
            if self.topology is not None:
                for node in self.topology.nodes:
                    obs.gauge("edge_server_load", node=node.name).set(
                        node.utilization
                    )
            # Advance inside the span so a tick renders with its real
            # sim-time width (tick_s) instead of as a zero-width slice.
            self.clock.advance(self.config.tick_s)
        obs.counter("fleet_ticks").inc()
        obs.gauge("fleet_active_sessions").set(len(stepped))

    # ----------------------------------------------------- scenario hooks

    def _apply_scenario_hooks(self) -> None:
        """Fire due scene events and scheduled per-session link drift.

        Runs after admissions/shed/migrate and before the batched
        proposals, so a scene or link change takes effect inside the same
        tick's evaluation. Sessions are visited in spec order and each
        event fires exactly once (a per-session cursor); events due while
        a session was still waiting all fire on its first active tick.
        Per-session drift is applied after topology-level cell drift
        (:func:`maintain_topology`), so a mobility schedule wins over
        its node's backhaul schedule for that session's own link.
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
                    obs.counter("fleet_scene_events").inc()
                    cursor += 1
                self._event_cursors[sid] = cursor
            schedule = drift.get(sid)
            runtime = session.system.device.edge
            if schedule and runtime is not None:
                apply_network_drift(runtime.link, now_s, tuple(schedule))

    # ----------------------------------------------------- topology upkeep

    def _shed_overloaded(self) -> None:
        """Push the newest tenants of any saturated node back onto their
        devices until its utilization re-enters the admission band."""
        assert self.topology is not None
        for node in self.topology.nodes:
            for session_id in self.topology.shed_candidates(node.name):
                self.topology.detach(session_id)
                self._session_of[session_id].fallback_to_device("shed")
                self._shed_fallbacks += 1

    def _migrate_sessions(self, tick: int) -> None:
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
        for session in self.sessions:
            if not session.active or not session.edge_node:
                continue
            if (
                session.attached_tick is None
                or tick - session.attached_tick < migration.dwell_ticks
            ):
                continue
            profile = session._edge_profile
            runtime = session.system.device.edge if session.system else None
            if profile is None or runtime is None:
                continue
            demand = runtime.server.demand_of(session.spec.session_id)
            target = migration_candidate(
                self.topology,
                session.spec.session_id,
                profile,
                demand if demand > 0 else session._est_streams,
            )
            if target is not None:
                session.migrate_edge(target, tick)

    def run(self) -> FleetResult:
        """Drive the fleet until every session has drained."""
        table = self.table
        ticks = drain(table, self.config.tick_s, self.step)
        # Reports, aggregates, and the convergence histogram all come
        # from trajectory columns; the cohort convergence target is the
        # table's vectorized per-cohort best (value-identical to the
        # per-session reduction, asserted in the test suite).
        reports = table.build_reports(
            [s.placement_outcome for s in self.sessions]
        )
        return FleetResult(
            reports=reports,
            aggregates=table.aggregates(),
            histogram=table.histogram(),
            store_stats=self.store.stats(),
            service_stats={
                "batches": self.service.batches,
                "proposals_served": self.service.proposals_served,
            },
            ticks=ticks,
            tick_s=self.config.tick_s,
            topology_stats=topology_stats(
                self.topology,
                self.config.placement,
                [s.placement_outcome for s in self.sessions],
                table,
                self._shed_fallbacks,
                self._outage_fallbacks,
            ),
        )


def run_fleet(
    specs: Sequence[SessionSpec],
    seed: SeedLike = None,
    config: Optional[FleetConfig] = None,
    store: Optional[SharedConfigStore] = None,
) -> FleetResult:
    """Build a scheduler, run the fleet, return the result.

    ``config.shards > 1`` routes through the shard-parallel coordinator
    (:mod:`repro.fleet.shard`); any shard count reproduces the
    ``shards=1`` result byte-for-byte at the same seed.
    """
    cfg = config if config is not None else FleetConfig()
    if cfg.shards > 1:
        from repro.fleet.shard import ShardedFleetScheduler

        return ShardedFleetScheduler(
            specs, seed=seed, config=cfg, store=store
        ).run()
    return FleetScheduler(specs, seed=seed, config=cfg, store=store).run()
