"""The replayable scenario catalog: named spec → seed → identical fleet.

A :class:`ScenarioSpec` is a frozen, JSON-serializable description of a
fleet workload along the generator's axes (arrival process, device mix,
workload mix/churn, mobility, thermal episodes, serving mode). The
catalog registry maps ~8 curated names to specs;
:func:`compile_scenario` turns ``(spec, seed)`` into concrete
:class:`~repro.fleet.session.SessionSpec` lists plus a ready
:class:`~repro.fleet.scheduler.FleetConfig` — event scripts, link
schedules, thermal gates and all.

Replay contract: ``compile_scenario`` is a pure function of its
arguments. The same ``(spec, seed, hbo)`` always produce byte-identical
session specs, schedules, and scripts, and running the compiled fleet
reproduces the same trace — that is what ``make replay-check`` and the
Hypothesis purity suite assert. The ``legacy-fleet`` entry compiles
through the original hand-written staggered-cohort schedule, so at seed
2024 it replays the pre-catalog ``repro fleet`` byte-for-byte.

Modeled on habitat-lab's episode/dataset structure: the spec is the
dataset definition, a compiled scenario is the episode list, and the
JSON form is the on-disk interchange format (same axes, same defaults,
reloadable with :func:`load_spec`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.controller import HBOConfig
from repro.device.profiles import GALAXY_A54, GALAXY_S22, PIXEL6A, PIXEL7
from repro.device.thermal import ThermalSpec
from repro.edge.topology import EdgeTopologyConfig, default_topology
from repro.errors import ScenarioError
from repro.fleet.scheduler import FleetConfig
from repro.fleet.session import SessionSpec
from repro.rng import derive_seed
from repro.scenarios.generator import (
    DEFAULT_SEED,
    default_fleet_specs,
    device_mix,
    diurnal_arrivals,
    flash_crowd_arrivals,
    mobility_events,
    mobility_flags,
    mobility_link_schedule,
    thermal_flags,
    user_positions,
    workload_mix,
)
from repro.sim.events import SceneEvent
from repro.sim.scenarios import ServerOutage, staggered_drift_schedules

#: Serving modes a scenario can compile into (the sweep's second axis).
SERVING_MODES: Tuple[str, ...] = ("device", "legacy-edge", "topology")

#: Arrival processes the generator implements.
ARRIVAL_PROCESSES: Tuple[str, ...] = (
    "diurnal",
    "flash-crowd",
    "staggered-cohort",
)


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival-process parameters (fields beyond the chosen ``process``
    are simply ignored, which keeps the JSON schema flat)."""

    process: str = "diurnal"
    period_s: float = 240.0
    peak_to_base: float = 4.0
    window_s: float = 90.0
    burst_time_s: float = 30.0
    burst_sigma_s: float = 4.0
    burst_fraction: float = 0.7
    follow_gap_s: float = 3.0

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ScenarioError(
                f"unknown arrival process {self.process!r}; "
                f"expected one of {ARRIVAL_PROCESSES}"
            )


@dataclass(frozen=True)
class DeviceMixSpec:
    """Weighted device-model mix, ordered for determinism."""

    weights: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ScenarioError("device mix needs at least one entry")


@dataclass(frozen=True)
class WorkloadMixSpec:
    """Weighted (scenario, taskset) mix with optional mid-run churn."""

    weights: Tuple[Tuple[str, str, float], ...]
    churn_time_s: float = -1.0  # negative disables churn
    churn_weights: Tuple[Tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.weights:
            raise ScenarioError("workload mix needs at least one entry")
        if self.churn_time_s >= 0 and not self.churn_weights:
            raise ScenarioError(
                "churn_time_s set but churn_weights empty — nothing to "
                "churn to"
            )


@dataclass(frozen=True)
class MobilitySpec:
    """User-mobility axis: link-scale schedules + DistanceChange scripts."""

    fraction: float = 1.0
    n_breakpoints: int = 3
    scale_floor: float = 0.3
    scale_ceil: float = 1.4
    n_moves: int = 2
    max_radius_m: float = 2.5

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ScenarioError(
                f"mobility fraction must be in (0, 1], got {self.fraction}"
            )


@dataclass(frozen=True)
class ThermalEpisodeSpec:
    """Thermal-throttling axis: which fraction runs hot, and how hot."""

    hot_fraction: float = 0.5
    model: ThermalSpec = field(default_factory=ThermalSpec)

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ScenarioError(
                f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )


@dataclass(frozen=True)
class ServingSpec:
    """How the compiled fleet is served (the sweep's second axis)."""

    mode: str = "device"
    n_servers: int = 3
    placement: str = "price-aware"
    #: When set (topology mode), nodes get staggered collapse schedules
    #: via :func:`repro.sim.scenarios.staggered_drift_schedules`.
    node_drift_stagger_s: float = -1.0  # negative disables node drift
    outages: Tuple[ServerOutage, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in SERVING_MODES:
            raise ScenarioError(
                f"unknown serving mode {self.mode!r}; "
                f"expected one of {SERVING_MODES}"
            )
        if self.n_servers < 1:
            raise ScenarioError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.mode != "topology" and (
            self.node_drift_stagger_s >= 0 or self.outages
        ):
            raise ScenarioError(
                "node drift and outages are topology-mode features"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, frozen, replayable fleet workload."""

    name: str
    description: str
    n_sessions: int
    #: Active-window hint for the per-session mobility axes (seconds of
    #: session lifetime the schedules spread over).
    duration_hint_s: float
    arrivals: ArrivalSpec
    devices: Optional[DeviceMixSpec] = None
    workload: Optional[WorkloadMixSpec] = None
    mobility: Optional[MobilitySpec] = None
    thermal: Optional[ThermalEpisodeSpec] = None
    serving: ServingSpec = field(default_factory=ServingSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.n_sessions < 1:
            raise ScenarioError(
                f"{self.name}: n_sessions must be >= 1, got {self.n_sessions}"
            )
        if self.duration_hint_s <= 0:
            raise ScenarioError(
                f"{self.name}: duration_hint_s must be > 0, "
                f"got {self.duration_hint_s}"
            )
        legacy = self.arrivals.process == "staggered-cohort"
        if legacy:
            if self.devices is not None or self.workload is not None:
                raise ScenarioError(
                    f"{self.name}: the staggered-cohort process uses the "
                    "fixed legacy cohort table; devices/workload must be None"
                )
            if self.mobility is not None or self.thermal is not None:
                raise ScenarioError(
                    f"{self.name}: the legacy schedule predates the "
                    "mobility/thermal axes; both must be None"
                )
        else:
            if self.devices is None or self.workload is None:
                raise ScenarioError(
                    f"{self.name}: generated scenarios need devices and "
                    "workload mixes"
                )


@dataclass(frozen=True)
class CompiledScenario:
    """``compile_scenario``'s output: everything a fleet run needs."""

    spec: ScenarioSpec
    seed: int
    session_specs: Tuple[SessionSpec, ...]
    fleet_config: FleetConfig
    #: Seed for :func:`repro.fleet.scheduler.run_fleet` — the same
    #: ``derive_seed(seed, "fleet")`` the legacy experiment driver uses.
    fleet_seed: int

    @property
    def arrival_schedule(self) -> Tuple[float, ...]:
        return tuple(s.arrival_s for s in self.session_specs)


def _short_device(device: str) -> str:
    """'Google Pixel 6a' → 'pixel6a' (the legacy session-id convention)."""
    return "".join(device.split()[1:]).lower()


def compile_scenario(
    spec: ScenarioSpec,
    seed: int = DEFAULT_SEED,
    hbo: Optional[HBOConfig] = None,
    n_sessions: Optional[int] = None,
) -> CompiledScenario:
    """Compile ``(spec, seed)`` into session specs + a fleet config.

    Pure function of its arguments (the replay contract): each axis draws
    from its own :func:`~repro.rng.derive_seed` stream, so compiling
    twice — in this process or any other — yields byte-identical output.
    ``n_sessions`` overrides the spec's population (the sweep and the
    smoke target shrink scenarios without forking specs).
    """
    cfg = hbo if hbo is not None else HBOConfig()
    n = n_sessions if n_sessions is not None else spec.n_sessions
    if n < 1:
        raise ScenarioError(f"n_sessions override must be >= 1, got {n}")
    serving = spec.serving

    if spec.arrivals.process == "staggered-cohort":
        session_specs = tuple(
            default_fleet_specs(
                n, cfg, seed=seed, follow_gap_s=spec.arrivals.follow_gap_s
            )
        )
        session_events: Dict[str, Tuple[SceneEvent, ...]] = {}
        link_drift: Dict[str, Tuple[Tuple[float, float], ...]] = {}
        thermal_gate: Optional[ThermalSpec] = None
    else:
        if spec.arrivals.process == "diurnal":
            arrivals_s = diurnal_arrivals(
                n,
                seed,
                period_s=spec.arrivals.period_s,
                peak_to_base=spec.arrivals.peak_to_base,
            )
        else:
            arrivals_s = flash_crowd_arrivals(
                n,
                seed,
                window_s=spec.arrivals.window_s,
                burst_time_s=spec.arrivals.burst_time_s,
                burst_sigma_s=spec.arrivals.burst_sigma_s,
                burst_fraction=spec.arrivals.burst_fraction,
            )
        assert spec.devices is not None and spec.workload is not None
        devices = device_mix(n, seed, spec.devices.weights)
        workloads = workload_mix(
            arrivals_s,
            seed,
            spec.workload.weights,
            churn_time_s=spec.workload.churn_time_s,
            churn_weights=spec.workload.churn_weights,
        )
        hot = (
            thermal_flags(n, seed, spec.thermal.hot_fraction)
            if spec.thermal is not None
            else (False,) * n
        )
        positions = user_positions(n, seed)
        specs: List[SessionSpec] = []
        for i in range(n):
            scenario, taskset = workloads[i]
            specs.append(
                SessionSpec(
                    session_id=(
                        f"u{i:03d}-{_short_device(devices[i])}-{scenario}"
                    ),
                    device=devices[i],
                    scenario=scenario,
                    taskset=taskset,
                    arrival_s=arrivals_s[i],
                    placement_seed=derive_seed(
                        seed, "scenario-placement", spec.name, scenario,
                        devices[i],
                    ),
                    position=positions[i],
                    thermal=hot[i],
                )
            )
        session_specs = tuple(specs)
        session_events = {}
        link_drift = {}
        if spec.mobility is not None:
            mob = spec.mobility
            mobile = mobility_flags(n, seed, mob.fraction)
            window_s = min(spec.duration_hint_s, float(cfg.total_evaluations))
            for i, session in enumerate(session_specs):
                if not mobile[i]:
                    continue
                session_events[session.session_id] = mobility_events(
                    seed,
                    session.session_id,
                    start_s=session.arrival_s + 1.0,
                    duration_s=window_s,
                    n_moves=mob.n_moves,
                    max_radius_m=mob.max_radius_m,
                )
                if serving.mode != "device":
                    link_drift[session.session_id] = mobility_link_schedule(
                        seed,
                        session.session_id,
                        start_s=session.arrival_s,
                        duration_s=window_s,
                        n_breakpoints=mob.n_breakpoints,
                        scale_floor=mob.scale_floor,
                        scale_ceil=mob.scale_ceil,
                    )
        thermal_gate = spec.thermal.model if spec.thermal is not None else None

    topo_cfg: Optional[EdgeTopologyConfig] = None
    if serving.mode == "legacy-edge":
        topo_cfg = EdgeTopologyConfig.single()
    elif serving.mode == "topology":
        topo_cfg = default_topology(serving.n_servers)
    edge_drift: Optional[Mapping[str, Tuple[Tuple[float, float], ...]]] = None
    if topo_cfg is not None and serving.node_drift_stagger_s >= 0:
        edge_drift = staggered_drift_schedules(
            tuple(node.name for node in topo_cfg.nodes),
            stagger_s=serving.node_drift_stagger_s,
        )
    fleet_config = FleetConfig(
        hbo=cfg,
        topology=topo_cfg,
        placement=serving.placement,
        edge_drift=edge_drift,
        edge_outages=serving.outages,
        thermal=thermal_gate,
        session_events=session_events or None,
        link_drift=link_drift or None,
    )
    return CompiledScenario(
        spec=spec,
        seed=seed,
        session_specs=session_specs,
        fleet_config=fleet_config,
        fleet_seed=derive_seed(seed, "fleet"),
    )


def with_serving_mode(
    spec: ScenarioSpec, mode: str, n_servers: Optional[int] = None
) -> ScenarioSpec:
    """The same scenario re-served: swap the serving axis, keep the rest.

    Topology-only features (node drift, outages) are dropped when leaving
    topology mode — the workload axes are untouched, which is what makes
    per-scenario serving-mode comparisons apples-to-apples.
    """
    if mode not in SERVING_MODES:
        raise ScenarioError(
            f"unknown serving mode {mode!r}; expected one of {SERVING_MODES}"
        )
    old = spec.serving
    keep_topology = mode == "topology"
    serving = ServingSpec(
        mode=mode,
        n_servers=n_servers if n_servers is not None else old.n_servers,
        placement=old.placement,
        node_drift_stagger_s=(
            old.node_drift_stagger_s if keep_topology else -1.0
        ),
        outages=old.outages if keep_topology else (),
    )
    return dataclasses.replace(spec, serving=serving)


# ------------------------------------------------------------- registry


def _build_catalog() -> Dict[str, ScenarioSpec]:
    flagship_mix = DeviceMixSpec(
        weights=((PIXEL7, 0.35), (GALAXY_S22, 0.35), (PIXEL6A, 0.2),
                 (GALAXY_A54, 0.1))
    )
    budget_mix = DeviceMixSpec(
        weights=((GALAXY_A54, 0.55), (PIXEL6A, 0.25), (PIXEL7, 0.1),
                 (GALAXY_S22, 0.1))
    )
    even_mix = DeviceMixSpec(
        weights=((PIXEL7, 0.25), (GALAXY_S22, 0.25), (PIXEL6A, 0.25),
                 (GALAXY_A54, 0.25))
    )
    light_workload = WorkloadMixSpec(
        weights=(("SC1", "CF1", 0.6), ("SC2", "CF2", 0.4))
    )
    specs = (
        ScenarioSpec(
            name="legacy-fleet",
            description=(
                "The original hand-written staggered-cohort schedule: one "
                "cold donor per (device, scenario) cohort, warm followers "
                "after. Replays the pre-catalog `repro fleet` "
                "byte-for-byte at seed 2024."
            ),
            n_sessions=16,
            duration_hint_s=60.0,
            arrivals=ArrivalSpec(process="staggered-cohort"),
        ),
        ScenarioSpec(
            name="diurnal-baseline",
            description=(
                "A calm day: one sinusoidal traffic wave over a mixed "
                "four-tier fleet, no mobility, no thermal stress. The "
                "reference point the stress scenarios are judged against."
            ),
            n_sessions=12,
            duration_hint_s=60.0,
            arrivals=ArrivalSpec(
                process="diurnal", period_s=240.0, peak_to_base=4.0
            ),
            devices=flagship_mix,
            workload=light_workload,
        ),
        ScenarioSpec(
            name="flash-crowd",
            description=(
                "A venue-door burst: 70% of the fleet arrives within a few "
                "seconds of t=30 s, stressing admission control and the "
                "batched GP pass with simultaneous cold starts."
            ),
            n_sessions=14,
            duration_hint_s=60.0,
            arrivals=ArrivalSpec(
                process="flash-crowd",
                window_s=90.0,
                burst_time_s=30.0,
                burst_sigma_s=4.0,
                burst_fraction=0.7,
            ),
            devices=flagship_mix,
            workload=light_workload,
            serving=ServingSpec(mode="topology", n_servers=3),
        ),
        ScenarioSpec(
            name="commuter-mobility",
            description=(
                "Every user is walking: per-session wireless bandwidth "
                "schedules plus DistanceChange scripts drive the paper's "
                "§IV-E distance→culling→latency mechanism inside a served "
                "fleet."
            ),
            n_sessions=10,
            duration_hint_s=45.0,
            arrivals=ArrivalSpec(
                process="diurnal", period_s=120.0, peak_to_base=2.0
            ),
            devices=flagship_mix,
            workload=light_workload,
            mobility=MobilitySpec(
                fraction=1.0,
                n_breakpoints=3,
                scale_floor=0.3,
                scale_ceil=1.4,
                n_moves=2,
                max_radius_m=2.5,
            ),
            serving=ServingSpec(mode="legacy-edge"),
        ),
        ScenarioSpec(
            name="hot-device",
            description=(
                "Summer sidewalk: 60% of a budget-heavy fleet runs "
                "thermally throttled, so on-SoC latencies drift upward "
                "within sessions and the controller must keep re-finding "
                "the frontier."
            ),
            n_sessions=10,
            duration_hint_s=60.0,
            arrivals=ArrivalSpec(
                process="diurnal", period_s=180.0, peak_to_base=1.5
            ),
            devices=budget_mix,
            workload=light_workload,
            thermal=ThermalEpisodeSpec(
                hot_fraction=0.6,
                model=ThermalSpec(
                    max_heat_c=25.0,
                    time_constant_steps=25.0,
                    throttle_start_c=40.0,
                    throttle_slope=0.03,
                ),
            ),
        ),
        ScenarioSpec(
            name="mixed-fleet-churn",
            description=(
                "App-mix churn: the fleet starts CF1-heavy and flips "
                "CF2-heavy mid-wave, so late arrivals bring a different "
                "model mix than the store's donors optimized for."
            ),
            n_sessions=14,
            duration_hint_s=60.0,
            arrivals=ArrivalSpec(
                process="diurnal", period_s=300.0, peak_to_base=3.0
            ),
            devices=even_mix,
            workload=WorkloadMixSpec(
                weights=(("SC1", "CF1", 0.8), ("SC2", "CF2", 0.2)),
                churn_time_s=120.0,
                churn_weights=(("SC1", "CF1", 0.2), ("SC2", "CF2", 0.8)),
            ),
        ),
        ScenarioSpec(
            name="network-collapse",
            description=(
                "Backhaul trouble: a four-node topology whose cells "
                "collapse on staggered schedules while one node takes a "
                "full outage — exercising migration, shedding, and "
                "graceful device fallback under load."
            ),
            n_sessions=12,
            duration_hint_s=60.0,
            arrivals=ArrivalSpec(
                process="flash-crowd",
                window_s=60.0,
                burst_time_s=15.0,
                burst_sigma_s=6.0,
                burst_fraction=0.5,
            ),
            devices=flagship_mix,
            workload=light_workload,
            serving=ServingSpec(
                mode="topology",
                n_servers=4,
                node_drift_stagger_s=10.0,
                outages=(ServerOutage(node="edge-1", start_s=20.0, end_s=35.0),),
            ),
        ),
        ScenarioSpec(
            name="low-tier-surge",
            description=(
                "A push notification lands on the budget fleet: an A54-"
                "dominated flash crowd, a third of it thermally stressed, "
                "served by a small two-node topology."
            ),
            n_sessions=14,
            duration_hint_s=60.0,
            arrivals=ArrivalSpec(
                process="flash-crowd",
                window_s=75.0,
                burst_time_s=20.0,
                burst_sigma_s=3.0,
                burst_fraction=0.85,
            ),
            devices=budget_mix,
            workload=WorkloadMixSpec(
                weights=(("SC1", "CF1", 0.7), ("SC2", "CF2", 0.3))
            ),
            thermal=ThermalEpisodeSpec(hot_fraction=0.35),
            serving=ServingSpec(mode="topology", n_servers=2),
        ),
    )
    return {spec.name: spec for spec in specs}


_CATALOG: Dict[str, ScenarioSpec] = _build_catalog()


def scenario_names() -> Tuple[str, ...]:
    """Catalog entries in registration order."""
    return tuple(_CATALOG)


def get_scenario(name: str) -> ScenarioSpec:
    if name not in _CATALOG:
        raise ScenarioError(
            f"unknown scenario {name!r}; catalog has {sorted(_CATALOG)}"
        )
    return _CATALOG[name]


# ------------------------------------------------------------------ JSON


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """JSON-able form of a spec (tuples become lists; see
    :func:`spec_from_dict` for the inverse)."""
    return dataclasses.asdict(spec)


def _pairs(rows: Any) -> Tuple[Tuple[Any, ...], ...]:
    return tuple(tuple(row) for row in rows)


def spec_from_dict(payload: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from its JSON form.

    Raises :class:`~repro.errors.ScenarioError` on unknown or missing
    fields — a truncated or hand-edited catalog file should fail loudly,
    not compile into a subtly different workload.
    """
    try:
        data = dict(payload)
        arrivals = ArrivalSpec(**data.pop("arrivals"))
        devices_raw = data.pop("devices")
        devices = (
            DeviceMixSpec(weights=_pairs(devices_raw["weights"]))
            if devices_raw is not None
            else None
        )
        workload_raw = data.pop("workload")
        workload = (
            WorkloadMixSpec(
                weights=_pairs(workload_raw["weights"]),
                churn_time_s=workload_raw["churn_time_s"],
                churn_weights=_pairs(workload_raw["churn_weights"]),
            )
            if workload_raw is not None
            else None
        )
        mobility_raw = data.pop("mobility")
        mobility = (
            MobilitySpec(**mobility_raw) if mobility_raw is not None else None
        )
        thermal_raw = data.pop("thermal")
        thermal = (
            ThermalEpisodeSpec(
                hot_fraction=thermal_raw["hot_fraction"],
                model=ThermalSpec(**thermal_raw["model"]),
            )
            if thermal_raw is not None
            else None
        )
        serving_raw = dict(data.pop("serving"))
        serving = ServingSpec(
            mode=serving_raw["mode"],
            n_servers=serving_raw["n_servers"],
            placement=serving_raw["placement"],
            node_drift_stagger_s=serving_raw["node_drift_stagger_s"],
            outages=tuple(
                ServerOutage(**outage) for outage in serving_raw["outages"]
            ),
        )
        return ScenarioSpec(
            arrivals=arrivals,
            devices=devices,
            workload=workload,
            mobility=mobility,
            thermal=thermal,
            serving=serving,
            **data,
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario payload: {exc}") from exc


def dump_spec(spec: ScenarioSpec) -> str:
    """Canonical JSON text of one spec (sorted keys, 2-space indent,
    trailing newline) — the byte-stable on-disk form."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, indent=2) + "\n"


def load_spec(text: str) -> ScenarioSpec:
    """Inverse of :func:`dump_spec`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario JSON does not parse: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScenarioError(
            f"scenario JSON must be an object, got {type(payload).__name__}"
        )
    return spec_from_dict(payload)
