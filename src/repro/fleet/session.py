"""One MAR session inside a fleet run.

A :class:`FleetSession` is the per-user slice of the fleet: a device +
scenario + taskset (one :class:`~repro.core.system.MARSystem`), its own
BO optimizer, and a lifecycle driven by the shared
:class:`~repro.fleet.scheduler.FleetScheduler` clock:

``WAITING`` (not yet arrived) → ``ACTIVE`` (one control period per fleet
tick, until the evaluation budget is spent) → ``DONE`` (best
configuration locked in, observations donated to the shared store).

On admission the scheduler hands the session the
:class:`~repro.fleet.store.SharedConfigStore`'s warm start, if any: when a
similar environment was already solved on the same device model, the
donor's observations seed the optimizer and the random initialization
phase is skipped (see
:meth:`~repro.bo.optimizer.BayesianOptimizer.warm_start`).

§VI's lookup hit, inside the fleet: when the warm entry's signature is
within :data:`~repro.core.lookup.APPLY_THRESHOLD` and the entry is
``confirmed`` (a warm-started search of the environment failed to beat
it, see :meth:`~repro.fleet.store.SharedConfigStore.donate`), the
session's first period applies the donor's best ``z`` as a *verify*.
Unless its reward falls below the entry's by more than §IV-E's decrease
band (:func:`~repro.core.activation.reward_drifted`), the session locks
in: every later period only measures that configuration (no ask, fit,
tell, decode, TD or apply) and it donates nothing. A device-only session
also keeps the verify period's unthrottled steady state
(:attr:`FleetSession.held_steady`), so its later periods are not priced
again; an edge session's price moves with its server's demand, so it is
priced every period. A scene event, a shed, an outage fallback or a
migration ends the lock-in (:meth:`FleetSession.unlock`), and
warm-started BO runs the rest of the budget.

Every per-session fact has one writer. The coordinator's
:class:`~repro.fleet.table.SessionTable` records lifecycle ticks and
edge decisions (serving node, migrations, fallback reason); the session
writes its worker table row's phase, measurements and warm-start report
fields; its live optimizer alone knows whether the next proposal is
guided and over which space dimension. The session itself holds only
live objects (system, optimizer, link seed) plus ``best``, the result
``finish`` locks in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.bo.optimizer import BayesianOptimizer
from repro.core.activation import reward_drifted
from repro.core.algorithm import (
    DecodedPoint,
    HBOIteration,
    IterationResult,
    PendingEvaluation,
)
from repro.core.controller import FLEET_POOL, HBOConfig, build_iteration
from repro.core.lookup import APPLY_THRESHOLD, EnvironmentSignature
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
from repro.fleet.store import WarmStartEntry
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
        if not (math.isfinite(self.arrival_s) and self.arrival_s >= 0):
            raise FleetError(
                f"{self.session_id}: arrival_s must be finite and >= 0, "
                f"got {self.arrival_s}"
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


def place_spec(
    topology: EdgeTopology,
    spec: SessionSpec,
    est_streams: float,
    profile: StaticProfile,
    policy: str,
) -> PlacementOutcome:
    """Run placement ``policy`` for ``spec`` with its :func:`offload_demand`
    estimate (``est_streams``, heaviest ``profile``)."""
    return place(
        topology,
        PlacementRequest(
            session_id=spec.session_id,
            est_streams=est_streams,
            position=spec.position,
            profile=profile,
        ),
        policy,
    )


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
        topology: Optional[EdgeTopology],
        table: SessionTable,
        index: int,
        thermal: Optional[ThermalSpec] = None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.rng = rng
        self._topology = topology
        # Double gate: the fleet config supplies the parameters AND the
        # spec opts this session in — either alone leaves the device
        # athermal, so legacy configs are byte-identical.
        self._thermal_spec = thermal if spec.thermal else None
        if table.session_ids[index] != spec.session_id:
            raise FleetError(
                f"{spec.session_id}: bound to table row {index} which "
                f"belongs to {table.session_ids[index]!r}"
            )
        self.table = table
        self.index = int(index)
        self._link_seed: Optional[int] = None
        self.system: Optional[MARSystem] = None
        self.optimizer: Optional[BayesianOptimizer] = None
        self.iteration: Optional[HBOIteration] = None
        self.signature: Optional[EnvironmentSignature] = None
        #: First lowest-cost result so far (what ``finish`` locks in).
        self.best: Optional[IterationResult] = None
        self.warm_entry: Optional[WarmStartEntry] = None
        #: The donor's best ``z`` while the verify period is still due.
        self._verify_z: Optional[np.ndarray] = None
        #: The verified configuration a locked session keeps measuring.
        self._held: Optional[PendingEvaluation] = None
        #: Its verify period's unthrottled steady state (device-only).
        self._held_steady: Optional[Mapping[str, float]] = None

    # --------------------------------------------------------------- states

    @property
    def phase(self) -> SessionPhase:
        return _PHASES[int(self.table.phase[self.index])]

    @phase.setter
    def phase(self, value: SessionPhase) -> None:
        self.table.phase[self.index] = _PHASE_CODE[value]

    @property
    def active(self) -> bool:
        return self.phase is SessionPhase.ACTIVE

    @property
    def done(self) -> bool:
        return self.phase is SessionPhase.DONE

    @property
    def locked(self) -> bool:
        """True while the session only measures its verified stored
        configuration."""
        return bool(self.table.locked_at[self.index])

    @property
    def held(self) -> PendingEvaluation:
        """The configuration a locked session keeps running."""
        if not self.locked or self._held is None:
            raise FleetError(f"{self.spec.session_id}: not locked in")
        return self._held

    @property
    def held_steady(self) -> Optional[Mapping[str, float]]:
        """The unthrottled steady state a locked device-only session keeps
        from its verify period: its placement, load and (absent) edge
        share stay fixed while it is locked, so the row is priced once.
        ``None`` while unlocked, on an edge session, or when the verify
        period was priced locally."""
        return self._held_steady

    @property
    def needs_guided_proposal(self) -> bool:
        """True when this tick's proposal should come from the shared
        proposal service instead of the session itself (its random
        sampler, or its pending lookup verify)."""
        return (
            self.active
            and self.optimizer is not None
            and not self.optimizer.in_initial_phase
            and self._verify_z is None
            and not self.locked
        )

    # ------------------------------------------------------------ lifecycle

    def _attach(self, node_name: str) -> EdgeRuntime:
        """Draw the link seed and bind this session's tenancy on a node."""
        spec = self.spec
        if self._topology is None:
            raise FleetError(f"{spec.session_id}: no topology to admit to")
        link_seed = int(self.rng.integers(0, 2**31))
        self._link_seed = link_seed
        node = self._topology.node(node_name)
        link = WirelessLink(node.config.link, link_seed)
        self._topology.attach(spec.session_id, node_name, link)
        return EdgeRuntime(
            EdgeConfig(server=node.config.server, link=node.config.link),
            node.server,
            link,
            session_id=spec.session_id,
            register=False,
        )

    def admit(
        self,
        directive: Tuple,
        warm_entry: Optional[WarmStartEntry] = None,
    ) -> None:
        """Bring the session up on a coordinator-made decision: system,
        optimizer, warm seed, columns.

        The coordinator owns the store and the authoritative topology, so
        placement and the warm-start lookup arrive as inputs.
        ``directive``: ``("device",)`` (no edge), ``("node", name)``
        (admitted to a topology node), or ``("rejected",)`` (placement
        rejected — device fallback, no link draw).

        The session seed is drawn first and the link seed only when a
        node admitted the session, so device-only and rejected sessions
        consume exactly the pre-edge draws from their stream (fixed-seed
        byte identity).
        """
        if self.phase is not SessionPhase.WAITING:
            raise FleetError(f"{self.spec.session_id}: admitted twice")
        if directive[0] not in ("device", "node", "rejected"):
            raise FleetError(
                f"{self.spec.session_id}: unknown admission directive "
                f"{directive[0]!r}"
            )
        spec = self.spec
        # Placement is keyed by the spec (shared within a cohort); the
        # noise stream comes from the session's own decorrelated rng.
        session_seed = int(self.rng.integers(0, 2**31))
        edge_runtime = (
            self._attach(directive[1]) if directive[0] == "node" else None
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

        optimizer = self._start_optimizer()
        # A donor whose observations live in a different-dimensional
        # space (a device-fallback session donating 3-simplex points
        # into a 4-simplex fleet, or vice versa) cannot seed this
        # optimizer; treat the hit as cold instead of corrupting the GP.
        if (
            warm_entry is not None
            and warm_entry.observations
            and len(warm_entry.observations[0][0]) == optimizer.space.dim
        ):
            n_warm = optimizer.warm_start(warm_entry.to_observations())
            self.warm_entry = warm_entry
            if (
                warm_entry.confirmed
                and self.signature.distance_to(warm_entry.signature)
                <= APPLY_THRESHOLD
            ):
                donor = optimizer.state.observations[:n_warm]
                self._verify_z = min(donor, key=lambda o: o.cost).z.copy()
        self.phase = SessionPhase.ACTIVE
        table, i = self.table, self.index
        table.n_warm[i] = optimizer.n_warm
        table.warm_started[i] = optimizer.warm_started
        table.warm_source[i] = (
            self.warm_entry.source_session if self.warm_entry else ""
        )

    admit_directed = admit  # perfbench/layers.py resolves this name

    def _start_optimizer(self) -> BayesianOptimizer:
        """A cold optimizer over the system's current space, continuing
        this session's own stream, and the iteration that drives it.

        Its guided picks come from the fleet's batched
        :class:`~repro.fleet.batch.SharedOptimizerService` over
        :data:`~repro.core.controller.FLEET_POOL`.
        """
        assert self.system is not None
        self.iteration = build_iteration(self.system, self.config, self.rng, FLEET_POOL)
        self.optimizer = self.iteration.optimizer
        return self.optimizer

    def fallback_to_device(self) -> None:
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
        self.unlock()
        self._start_optimizer()
        # The rebuilt optimizer starts cold over the 3-simplex, and the
        # session's report says so.
        table, i = self.table, self.index
        table.n_warm[i] = 0
        table.warm_started[i] = False

    def migrate_edge(self, node_name: str, ordinal: int) -> None:
        """Move this session's tenancy to ``node_name`` mid-run.

        The new link's drift trace is seeded from the admission link seed
        and ``ordinal``, the coordinator's count of this session's earlier
        migrations, so migration timing — not hidden state — is the only
        input to the new trace.
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
        self._topology.detach(session_id)
        node = self._topology.node(node_name)
        assert self._link_seed is not None
        link = WirelessLink(
            node.config.link,
            derive_seed(self._link_seed, "migrate", str(ordinal)),
        )
        self._topology.attach(session_id, node_name, link)
        runtime.migrate(
            EdgeConfig(server=node.config.server, link=node.config.link),
            node.server,
            link,
        )
        runtime.set_demand_streams(demand)
        self.unlock()

    def unlock(self) -> None:
        """End a lock-in, or drop a verify not yet run: the session's
        conditions changed (scene event, shed, outage, migration), so the
        stored solution no longer describes them. BO resumes from the
        session's warm-started optimizer on its next period."""
        self._verify_z = None
        self._held = None
        self._held_steady = None
        self.table.locked_at[self.index] = 0

    def _live_iteration(self) -> HBOIteration:
        if not self.active or self.iteration is None:
            raise FleetError(f"{self.spec.session_id}: stepped while not active")
        return self.iteration

    def decode(self, z: Optional[np.ndarray] = None) -> DecodedPoint:
        """Record and decode a proposal from the shared batched service,
        or (``None``) the session's own: its pending lookup verify, else
        its optimizer's ask."""
        iteration = self._live_iteration()
        if z is None:
            z = self._verify_z
        if z is None:
            return iteration.decode(iteration.optimizer.ask())
        z = np.asarray(z, dtype=float).ravel()
        iteration.optimizer.state.proposals.append(z.copy())
        return iteration.decode(z)

    def begin(
        self, point: DecodedPoint, td_ratios: Optional[np.ndarray] = None
    ) -> PendingEvaluation:
        """Apply a decoded point: with the TD row the fleet tick chose for
        it, or (``None``) by running TD on this session's own scene."""
        return self._live_iteration().apply(point, td_ratios)

    def finish_step(
        self,
        pending: PendingEvaluation,
        steady_latencies: Optional[Mapping[str, float]] = None,
    ) -> IterationResult:
        """Measure + record a begun control period.

        The scheduler computes every stepped session's steady state in
        one :func:`repro.backend.solve` pass and injects each row here;
        passing ``None`` recomputes it locally (identical bits). A locked
        session's period is measured and recorded only: no tell, and it
        does not compete for ``best``. The verify period decides the
        lock-in; a device-only session locking in keeps its row as
        :attr:`held_steady`.
        """
        iteration = self._live_iteration()
        if self.locked:
            result = iteration.evaluate(pending, steady_latencies)
        else:
            result = iteration.finish(pending, steady_latencies)
            # Strict < keeps the earliest of equal-cost results.
            if self.best is None or result.cost < self.best.cost:
                self.best = result
        table, i = self.table, self.index
        table.record_result(
            i,
            result.cost,
            result.measurement.mean_latency_ms,
            result.measurement.quality,
            result.measurement.epsilon,
        )
        if self._verify_z is not None:
            self._verify_z = None
            assert self.warm_entry is not None
            if reward_drifted(
                -result.cost,
                self.warm_entry.reward,
                increase_threshold=math.inf,
            ):
                obs.counter("fleet_verify_failures").inc()
            else:
                table.locked_at[i] = table.n_results[i]
                self._held = pending
                assert self.system is not None
                if self.system.device.edge is None:
                    self._held_steady = steady_latencies
                obs.counter("fleet_lockins").inc()
        return result

    def finish(self) -> Optional[Dict[str, Any]]:
        """Lock in the best configuration and return the donation.

        The payload is the exact ``store.donate`` kwargs; the coordinator
        owns the store and applies it. ``None`` when the session has no
        signature, or is locked onto a stored solution: its donor's entry,
        which it only verified, keeps serving.
        """
        if not self.active:
            raise FleetError(f"{self.spec.session_id}: finished while not active")
        best = self.best
        if best is None or self.system is None or self.optimizer is None:
            raise FleetError(
                f"{self.spec.session_id}: finished with no evaluations"
            )
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
        locked = self.locked
        if not locked:  # a locked session is already running its best
            self.system.apply(allocation, best.triangle_ratio)
        donation: Optional[Dict[str, Any]] = None
        if self.signature is not None and not locked:
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
                warm_started=bool(self.table.warm_started[self.index]),
            )
        # Leave the edge node: a finished session's offloaded demand must
        # stop slowing the tenants still running. The coordinator's table
        # still names the node that served the final control period.
        if self.system.device.edge is not None:
            assert self._topology is not None
            self._topology.detach(self.spec.session_id)
            self.system.device.edge.abandon()
        self.phase = SessionPhase.DONE
        return donation
