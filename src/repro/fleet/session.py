"""One MAR session inside a fleet run.

A :class:`FleetSession` is the per-user slice of the fleet: a device +
scenario + taskset (one :class:`~repro.core.system.MARSystem`), its own
BO optimizer, and a lifecycle driven by the shared
:class:`~repro.fleet.scheduler.FleetScheduler` clock:

``WAITING`` (not yet arrived) → ``ACTIVE`` (one control period per fleet
tick, until the evaluation budget is spent) → ``DONE`` (best
configuration locked in, observations donated to the shared store).

On admission the session asks the :class:`~repro.fleet.store.
SharedConfigStore` for a warm start: if a similar environment was already
solved on the same device model, the donor's observations seed the
optimizer and the random initialization phase is skipped (see
:meth:`~repro.bo.optimizer.BayesianOptimizer.warm_start`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.bo.kernels import Matern
from repro.bo.optimizer import BayesianOptimizer
from repro.bo.space import HBOSpace
from repro.core.algorithm import HBOIteration, IterationResult, PendingEvaluation
from repro.core.controller import HBOConfig
from repro.core.lookup import EnvironmentSignature
from repro.core.system import MARSystem
from repro.device.profiles import PIXEL7, StaticProfile
from repro.device.resources import Resource
from repro.device.thermal import ThermalSpec
from repro.edge.link import WirelessLink
from repro.edge.placement import PlacementOutcome, PlacementRequest, place
from repro.edge.runtime import EdgeConfig, EdgeRuntime
from repro.edge.share import edge_demand
from repro.edge.topology import EdgeTopology
from repro.errors import FleetError
from repro.fleet.store import SharedConfigStore, WarmStartEntry
from repro.fleet.table import SessionTable
from repro.obs import runtime as obs
from repro.rng import derive_seed
from repro.sim.scenarios import (
    build_system,
    place_catalog,
    scenario_catalog,
    scenario_taskset,
)


class SessionPhase(enum.Enum):
    """Lifecycle state of a fleet session."""

    WAITING = "waiting"
    ACTIVE = "active"
    DONE = "done"


#: SessionTable integer phase codes ↔ enum members (index = code).
_PHASES = (SessionPhase.WAITING, SessionPhase.ACTIVE, SessionPhase.DONE)
_PHASE_CODE = {p: code for code, p in enumerate(_PHASES)}


@dataclass(frozen=True)
class SessionSpec:
    """Static description of one fleet session.

    ``placement_seed`` controls object placement *independently* of the
    session's measurement-noise stream: sessions sharing a placement seed
    see bit-identical scenes (hence identical environment signatures),
    which is what makes cross-session warm starting fire.
    """

    session_id: str
    device: str = PIXEL7
    scenario: str = "SC1"
    taskset: str = "CF1"
    arrival_s: float = 0.0
    placement_seed: int = 7
    noise_sigma: float = 0.04
    samples_per_period: int = 20
    #: The user's 1-D coordinate in the edge topology's distance space
    #: (only the ``nearest`` placement policy reads it).
    position: float = 0.0
    #: Override the per-session evaluation budget (defaults to the HBO
    #: config's ``total_evaluations``).
    n_evaluations: Optional[int] = None
    #: Mark this session as running hot: when the fleet config also sets
    #: ``thermal`` (the gate), the session's device gets a
    #: :class:`~repro.device.thermal.ThermalModel` built from it and its
    #: on-SoC latencies inflate as sustained load heats the chip.
    thermal: bool = False

    def __post_init__(self) -> None:
        if not self.session_id:
            raise FleetError("session_id must be non-empty")
        if self.arrival_s < 0:
            raise FleetError(
                f"{self.session_id}: arrival_s must be >= 0, got {self.arrival_s}"
            )
        if self.n_evaluations is not None and self.n_evaluations < 1:
            raise FleetError(
                f"{self.session_id}: n_evaluations must be >= 1, "
                f"got {self.n_evaluations}"
            )


def offload_demand(spec: SessionSpec) -> Tuple[float, Optional[StaticProfile]]:
    """The session's estimated edge demand: the summed streams of its
    CPU-capable task profiles (the ones an edge server could host), and
    the heaviest of them (``None`` when nothing can offload)."""
    profiles = [
        task.profile
        for task in scenario_taskset(spec.taskset, spec.device)
        if task.profile.supports(Resource.CPU)
    ]
    est = 0.0
    for profile in profiles:
        est += edge_demand(profile)
    return est, (max(profiles, key=edge_demand) if profiles else None)


def _device_fallback_resource(profile: StaticProfile) -> Resource:
    """Fastest on-device resource for a task coming back from the edge
    (mirrors the device's own failed-delegate fallback ranking)."""
    options = [
        (profile.latency(res), i, res)
        for i, res in enumerate(Resource)
        if res is not Resource.EDGE and profile.supports(res)
    ]
    return min(options)[2]


class FleetSession:
    """Runtime state of one session; stepped by the scheduler."""

    def __init__(
        self,
        spec: SessionSpec,
        config: HBOConfig,
        rng: np.random.Generator,
        topology: Optional[EdgeTopology] = None,
        placement: str = "price-aware",
        table: Optional[SessionTable] = None,
        index: int = 0,
        thermal: Optional[ThermalSpec] = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.rng = rng
        self._topology = topology
        self._placement_policy = placement
        # Double gate: the fleet config supplies the parameters AND the
        # spec opts this session in — either alone leaves the device
        # athermal, so legacy configs are byte-identical.
        self._thermal_spec = thermal if spec.thermal else None
        # The session is a row view: lifecycle scalars (phase, ticks,
        # budget cursor, best cost, trajectories) live in SessionTable
        # columns. A standalone session owns a private 1-row table so
        # the per-session API works without a scheduler.
        if table is None:
            table = SessionTable((spec,), config)
            index = 0
        if table.session_ids[index] != spec.session_id:
            raise FleetError(
                f"{spec.session_id}: bound to table row {index} which "
                f"belongs to {table.session_ids[index]!r}"
            )
        self.table = table
        self.index = int(index)
        #: Where this session landed (set on admission in topology mode).
        self.placement_outcome: Optional[PlacementOutcome] = None
        self._link_seed: Optional[int] = None
        self._est_streams = 0.0
        self._edge_profile: Optional[StaticProfile] = None
        self.system: Optional[MARSystem] = None
        self.optimizer: Optional[BayesianOptimizer] = None
        self.iteration: Optional[HBOIteration] = None
        self.signature: Optional[EnvironmentSignature] = None
        self.results: List[IterationResult] = []
        self.warm_entry: Optional[WarmStartEntry] = None

    # ------------------------------------------------------------ row views

    @property
    def phase(self) -> SessionPhase:
        return _PHASES[int(self.table.phase[self.index])]

    @phase.setter
    def phase(self, value: SessionPhase) -> None:
        self.table.phase[self.index] = _PHASE_CODE[value]

    @property
    def start_tick(self) -> Optional[int]:
        tick = int(self.table.start_tick[self.index])
        return None if tick < 0 else tick

    @start_tick.setter
    def start_tick(self, value: Optional[int]) -> None:
        self.table.start_tick[self.index] = -1 if value is None else value

    @property
    def end_tick(self) -> Optional[int]:
        tick = int(self.table.end_tick[self.index])
        return None if tick < 0 else tick

    @end_tick.setter
    def end_tick(self, value: Optional[int]) -> None:
        self.table.end_tick[self.index] = -1 if value is None else value

    @property
    def attached_tick(self) -> Optional[int]:
        """Tick of the most recent attach (admission or migration); the
        scheduler's migration dwell guard counts from here."""
        tick = int(self.table.attached_tick[self.index])
        return None if tick < 0 else tick

    @attached_tick.setter
    def attached_tick(self, value: Optional[int]) -> None:
        self.table.attached_tick[self.index] = -1 if value is None else value

    @property
    def migrations(self) -> int:
        return int(self.table.migrations[self.index])

    @migrations.setter
    def migrations(self, value: int) -> None:
        self.table.migrations[self.index] = value

    @property
    def edge_node(self) -> str:
        """Name of the node currently serving the session ("" when none)."""
        return self.table.edge_node[self.index]

    @edge_node.setter
    def edge_node(self, value: str) -> None:
        self.table.edge_node[self.index] = value

    @property
    def fallback_reason(self) -> str:
        """Why the session fell back to device-only mid-run ("" if never)."""
        return self.table.fallback_reason[self.index]

    @fallback_reason.setter
    def fallback_reason(self, value: str) -> None:
        self.table.fallback_reason[self.index] = value

    @property
    def budget(self) -> int:
        return int(self.table.budget[self.index])

    # --------------------------------------------------------------- states

    @property
    def active(self) -> bool:
        return self.phase is SessionPhase.ACTIVE

    @property
    def done(self) -> bool:
        return self.phase is SessionPhase.DONE

    @property
    def warm_started(self) -> bool:
        return self.optimizer is not None and self.optimizer.warm_started

    @property
    def needs_guided_proposal(self) -> bool:
        """True when this tick's proposal should come from the shared
        batched GP pass instead of the session's own random sampler."""
        return (
            self.active
            and self.optimizer is not None
            and not self.optimizer.in_initial_phase
        )

    # ------------------------------------------------------------ lifecycle

    def admit(
        self,
        tick: int,
        store: Optional[SharedConfigStore] = None,
        warm_start: bool = True,
    ) -> None:
        """Bring the session up: place it on the topology (if any), build
        its system, consult the store, and construct a (possibly
        warm-started) optimizer."""
        if self.phase is not SessionPhase.WAITING:
            raise FleetError(f"{self.spec.session_id}: admitted twice")
        self._admit(
            tick,
            self._place() if self._topology is not None else ("device",),
            store=store if warm_start else None,
            entry=None,
        )

    def admit_directed(
        self,
        tick: int,
        directive: Tuple,
        warm_entry: Optional[WarmStartEntry] = None,
    ) -> None:
        """Shard-worker admission with coordinator-made decisions.

        The coordinator owns the store and the authoritative topology, so
        placement and warm lookup arrive as inputs; the admission itself
        runs the same :meth:`_admit` as :meth:`admit`, which is what
        keeps a sharded run byte-identical to ``shards=1``.

        ``directive``: ``("device",)`` (no edge), ``("node", name)``
        (admitted to a topology node), or ``("rejected",)`` (placement
        rejected — device fallback, no link draw).
        """
        if self.phase is not SessionPhase.WAITING:
            raise FleetError(f"{self.spec.session_id}: admitted twice")
        if directive[0] not in ("device", "node", "rejected"):
            raise FleetError(
                f"{self.spec.session_id}: unknown admission directive "
                f"{directive[0]!r}"
            )
        self._admit(tick, directive, store=None, entry=warm_entry)

    def _place(self) -> Tuple:
        """Run the placement policy on the topology; returns the
        admission directive :meth:`_admit` executes."""
        assert self._topology is not None
        spec = self.spec
        est, profile = offload_demand(spec)
        if profile is None:
            return ("device",)
        outcome = place(
            self._topology,
            PlacementRequest(
                session_id=spec.session_id,
                est_streams=est,
                position=spec.position,
                profile=profile,
            ),
            self._placement_policy,
        )
        self.placement_outcome = outcome
        if outcome.node is None:
            obs.counter(
                "edge_admission_rejections", policy=self._placement_policy
            ).inc()
            return ("rejected",)
        obs.counter(
            "edge_placements", policy=self._placement_policy, node=outcome.node
        ).inc()
        return ("node", outcome.node)

    def _attach(self, node_name: str, tick: int) -> EdgeRuntime:
        """Draw the link seed and bind this session's tenancy on a node."""
        spec = self.spec
        if self._topology is None:
            raise FleetError(f"{spec.session_id}: no topology to admit to")
        self._est_streams, self._edge_profile = offload_demand(spec)
        link_seed = int(self.rng.integers(0, 2**31))
        self._link_seed = link_seed
        node = self._topology.node(node_name)
        link = WirelessLink(node.config.link, link_seed)
        self._topology.attach(spec.session_id, node_name, link)
        self.edge_node = node_name
        self.attached_tick = tick
        return EdgeRuntime(
            EdgeConfig(server=node.config.server, link=node.config.link),
            node.server,
            link,
            session_id=spec.session_id,
            register=False,
        )

    def _admit(
        self,
        tick: int,
        directive: Tuple,
        store: Optional[SharedConfigStore],
        entry: Optional[WarmStartEntry],
    ) -> None:
        """Execute an admission directive: system, optimizer, warm seed,
        columns.

        The session seed is drawn first and the link seed only when a
        node admitted the session, so device-only and rejected sessions
        consume exactly the pre-edge draws from their stream (fixed-seed
        byte identity).
        """
        spec = self.spec
        # Placement is keyed by the spec (shared within a cohort); the
        # noise stream comes from the session's own decorrelated rng.
        session_seed = int(self.rng.integers(0, 2**31))
        edge_runtime = (
            self._attach(directive[1], tick) if directive[0] == "node" else None
        )
        self.system = build_system(
            spec.scenario,
            spec.taskset,
            device=spec.device,
            seed=session_seed,
            noise_sigma=spec.noise_sigma,
            samples_per_period=spec.samples_per_period,
            place_objects=False,
            edge=edge_runtime,
            thermal=(
                self._thermal_spec.build()
                if self._thermal_spec is not None
                else None
            ),
        )
        place_catalog(
            self.system.scene,
            scenario_catalog(spec.scenario),
            seed=spec.placement_seed,
        )
        self.signature = EnvironmentSignature.of(self.system)

        cfg = self.config
        space = HBOSpace(self.system.n_resources, r_min=cfg.r_min)
        self.optimizer = BayesianOptimizer(
            space=space,
            n_initial=cfg.n_initial,
            kernel=Matern(length_scale=cfg.kernel_length_scale, nu=2.5),
            noise=cfg.noise,
            seed=self.rng,
            gp_tier=cfg.gp_tier,
            sparse_threshold=cfg.gp_sparse_threshold,
        )
        if store is not None:
            entry = store.warm_start_for(self.signature, scope=spec.device)
        # A donor whose observations live in a different-dimensional
        # space (a device-fallback session donating 3-simplex points
        # into a 4-simplex fleet, or vice versa) cannot seed this
        # optimizer; treat the hit as cold instead of corrupting the GP.
        if (
            entry is not None
            and entry.observations
            and len(entry.observations[0][0]) == space.dim
        ):
            self.optimizer.warm_start(entry.to_observations())
            self.warm_entry = entry
        self.iteration = HBOIteration(
            self.system, self.optimizer, w=cfg.w, latency_only=cfg.latency_only
        )
        self.phase = SessionPhase.ACTIVE
        self.start_tick = tick
        table, i = self.table, self.index
        table.space_dim[i] = space.dim
        table.n_warm[i] = self.optimizer.n_warm
        table.warm_started[i] = self.optimizer.warm_started
        table.warm_source[i] = (
            self.warm_entry.source_session if self.warm_entry else ""
        )
        table.obs_count[i] = len(self.optimizer.state.observations)
        table.init_plan_row(i, self.system.device)

    def fallback_to_device(self, reason: str) -> None:
        """Collapse the session from the 4-simplex to the device 3-simplex
        mid-run — shed by a saturated server or orphaned by an outage.

        The caller has already detached the tenancy from the topology.
        EDGE-placed tasks move to their fastest on-device resource, the
        optimizer is rebuilt over the 3-resource space (continuing this
        session's own RNG stream, so the whole fleet stays deterministic),
        and the accumulated cost trajectory keeps growing — no crash, no
        budget reset.
        """
        if self.system is None or self.optimizer is None:
            raise FleetError(
                f"{self.spec.session_id}: device fallback before admission"
            )
        device = self.system.device
        runtime = device.edge
        if runtime is None:
            raise FleetError(
                f"{self.spec.session_id}: device fallback without an edge "
                "runtime"
            )
        runtime.abandon()
        device.edge = None
        profile_of = {task.task_id: task.profile for task in self.system.taskset}
        for task_id, resource in device.allocation.items():
            if resource is Resource.EDGE:
                device.set_allocation(
                    task_id, _device_fallback_resource(profile_of[task_id])
                )
        cfg = self.config
        space = HBOSpace(self.system.n_resources, r_min=cfg.r_min)
        self.optimizer = BayesianOptimizer(
            space=space,
            n_initial=cfg.n_initial,
            kernel=Matern(length_scale=cfg.kernel_length_scale, nu=2.5),
            noise=cfg.noise,
            seed=self.rng,
            gp_tier=cfg.gp_tier,
            sparse_threshold=cfg.gp_sparse_threshold,
        )
        self.iteration = HBOIteration(
            self.system, self.optimizer, w=cfg.w, latency_only=cfg.latency_only
        )
        self.edge_node = ""
        self.attached_tick = None
        self.fallback_reason = reason
        # The rebuilt optimizer starts cold over the 3-simplex: mirror
        # that in the table's guided-selection and warm columns.
        table, i = self.table, self.index
        table.space_dim[i] = space.dim
        table.n_warm[i] = 0
        table.warm_started[i] = False
        table.obs_count[i] = 0
        obs.counter("edge_fallbacks", reason=reason).inc()

    def migrate_edge(self, node_name: str, tick: int) -> None:
        """Move this session's tenancy to ``node_name`` mid-run.

        The new link's drift trace is seeded from the admission link seed
        and the migration ordinal, so migration timing — not hidden
        state — is the only input to the new trace.
        """
        if self._topology is None:
            raise FleetError(
                f"{self.spec.session_id}: migration without a topology"
            )
        if self.system is None or self.system.device.edge is None:
            raise FleetError(
                f"{self.spec.session_id}: migration without an edge runtime"
            )
        runtime = self.system.device.edge
        session_id = self.spec.session_id
        demand = runtime.server.demand_of(session_id)
        previous = self._topology.detach(session_id)
        node = self._topology.node(node_name)
        assert self._link_seed is not None
        link = WirelessLink(
            node.config.link,
            derive_seed(self._link_seed, "migrate", str(self.migrations)),
        )
        self._topology.attach(session_id, node_name, link)
        runtime.migrate(
            EdgeConfig(server=node.config.server, link=node.config.link),
            node.server,
            link,
        )
        runtime.set_demand_streams(demand)
        self.migrations += 1
        self.edge_node = node_name
        self.attached_tick = tick
        obs.counter("edge_migrations", src=previous, dst=node_name).inc()

    def step_initial(self) -> IterationResult:
        """One control period with the session's own (random-phase) ask."""
        return self.finish_step(self.begin_initial())

    def step_guided(self, z: np.ndarray) -> IterationResult:
        """One control period evaluating a proposal computed by the shared
        batched optimizer service."""
        return self.finish_step(self.begin_guided(z))

    def begin_initial(self) -> PendingEvaluation:
        """Ask the session's own optimizer and apply the configuration."""
        if not self.active or self.iteration is None or self.optimizer is None:
            raise FleetError(f"{self.spec.session_id}: stepped while not active")
        return self.iteration.begin(self.optimizer.ask())

    def begin_guided(self, z: np.ndarray) -> PendingEvaluation:
        """Record and apply a proposal from the shared batched service."""
        if not self.active or self.iteration is None or self.optimizer is None:
            raise FleetError(f"{self.spec.session_id}: stepped while not active")
        z = np.asarray(z, dtype=float).ravel()
        self.optimizer.state.proposals.append(z.copy())
        return self.iteration.begin(z)

    def finish_step(
        self,
        pending: PendingEvaluation,
        steady_latencies: Optional[Mapping[str, float]] = None,
    ) -> IterationResult:
        """Measure + record a begun control period.

        The scheduler computes every stepped session's steady state in
        one :func:`repro.backend.solve` pass and injects each row here;
        passing ``None`` recomputes it locally (identical bits).
        """
        if not self.active or self.iteration is None:
            raise FleetError(f"{self.spec.session_id}: stepped while not active")
        result = self.iteration.finish(pending, steady_latencies=steady_latencies)
        self.results.append(result)
        self.table.record_result(
            self.index,
            result.cost,
            result.measurement.mean_latency_ms,
            result.measurement.quality,
            result.measurement.epsilon,
        )
        return result

    @property
    def budget_exhausted(self) -> bool:
        return len(self.results) >= self.budget

    def finish(
        self, tick: int, store: Optional[SharedConfigStore] = None
    ) -> Optional[Dict[str, Any]]:
        """Lock in the best configuration and donate to the shared store.

        Returns the donation payload (the exact ``store.donate`` kwargs)
        so a shard worker without the authoritative store can ship it to
        the coordinator; ``None`` when the session has no signature.
        """
        if not self.active:
            raise FleetError(f"{self.spec.session_id}: finished while not active")
        if not self.results or self.system is None or self.optimizer is None:
            raise FleetError(
                f"{self.spec.session_id}: finished with no evaluations"
            )
        best = min(self.results, key=lambda r: r.cost)
        allocation = dict(best.allocation)
        if self.system.device.edge is None:
            # A fallen-back session may still prefer a pre-fallback result
            # whose allocation placed tasks on EDGE; those tasks land on
            # their fastest on-device resource instead.
            profile_of = {
                task.task_id: task.profile for task in self.system.taskset
            }
            allocation = {
                task_id: (
                    _device_fallback_resource(profile_of[task_id])
                    if resource is Resource.EDGE
                    else resource
                )
                for task_id, resource in allocation.items()
            }
        self.system.apply(allocation, best.triangle_ratio)
        donation: Optional[Dict[str, Any]] = None
        if self.signature is not None:
            # Donate only this session's own measurements — warm-start
            # observations would otherwise echo through the fleet forever.
            own = self.optimizer.state.observations[self.optimizer.n_warm :]
            donation = dict(
                signature=self.signature,
                allocation=allocation,
                triangle_ratio=best.triangle_ratio,
                reward=-best.cost,
                observations=own,
                scope=self.spec.device,
                session_id=self.spec.session_id,
            )
            if store is not None:
                store.donate(**donation)
        # Leave the edge node: a finished session's offloaded demand must
        # stop slowing the tenants still running. edge_node is kept for
        # reporting: it names the node that served the session through
        # its final control period.
        if self.system.device.edge is not None:
            assert self._topology is not None
            self._topology.detach(self.spec.session_id)
            self.system.device.edge.abandon()
        self.phase = SessionPhase.DONE
        self.end_tick = tick
        return donation

    # ------------------------------------------------------------ reporting

    def costs(self) -> List[float]:
        """Measured cost per control period, in evaluation order."""
        return [r.cost for r in self.results]

    def best_cost(self) -> float:
        if not self.results:
            raise FleetError(f"{self.spec.session_id}: no evaluations yet")
        return min(r.cost for r in self.results)
