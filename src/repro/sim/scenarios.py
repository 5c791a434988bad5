"""Builders for the paper's experimental set-ups.

Combines the Table II pieces into ready-to-run systems:

- ``build_system("SC1", "CF1")`` — a MAR system with the SC1 objects
  placed deterministically around the user and the CF1 taskset running.
- ``fig8_event_script()`` — the §V-D activation experiment: 10 objects
  placed between t = 0 and t = 255 s (the 10th a heavy ~150k-triangle
  asset), then the user stepping away from the objects around t = 320 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ar.objects import (
    VirtualObject,
    catalog_sc1,
    catalog_sc2,
    expand_instances,
    object_by_name,
)
from repro.ar.renderer import RenderLoadModel
from repro.ar.scene import Scene
from repro.core.system import MARSystem
from repro.device.executor import DeviceSimulator
from repro.device.profiles import GALAXY_A54, GALAXY_S22, PIXEL6A, PIXEL7
from repro.device.soc import (
    SoCSpec,
    galaxy_a54_soc,
    galaxy_s22_soc,
    pixel6a_soc,
    pixel7_soc,
)
from repro.device.thermal import ThermalModel
from repro.edge.link import WirelessLink
from repro.edge.runtime import EdgeRuntime, extend_taskset
from repro.errors import ConfigurationError
from repro.models.tasks import TaskSet, taskset_cf1, taskset_cf2
from repro.rng import SeedLike, derive_seed, make_rng
from repro.sim.events import DistanceChange, ObjectPlacement, SceneEvent, validate_script

ScenarioName = Literal["SC1", "SC2"]
TasksetName = Literal["CF1", "CF2"]

_SOC_FACTORIES = {
    PIXEL7: pixel7_soc,
    GALAXY_S22: galaxy_s22_soc,
    PIXEL6A: pixel6a_soc,
    GALAXY_A54: galaxy_a54_soc,
}


def scenario_catalog(name: str) -> List[Tuple[VirtualObject, int]]:
    """Table II object catalog for ``"SC1"`` or ``"SC2"``."""
    if name == "SC1":
        return catalog_sc1()
    if name == "SC2":
        return catalog_sc2()
    raise ConfigurationError(f"unknown scenario {name!r}; expected 'SC1' or 'SC2'")


def scenario_taskset(name: str, device: str = PIXEL7) -> TaskSet:
    """Table II taskset for ``"CF1"`` or ``"CF2"``."""
    if name == "CF1":
        return taskset_cf1(device)
    if name == "CF2":
        return taskset_cf2(device)
    raise ConfigurationError(f"unknown taskset {name!r}; expected 'CF1' or 'CF2'")


def place_catalog(
    scene: Scene,
    catalog: List[Tuple[VirtualObject, int]],
    seed: SeedLike = 7,
    center: Tuple[float, float, float] = (0.0, 0.0, 1.3),
    spread_m: float = 1.2,
) -> None:
    """Scatter every catalog instance around ``center`` deterministically.

    Positions are uniform in a cube of half-width ``spread_m`` around the
    center, which puts objects at user distances of roughly 0.5–2.5 m —
    the range the paper's screenshots show.
    """
    rng = make_rng(seed)
    scene.add_many(
        (instance_id, obj, np.asarray(center) + rng.uniform(-spread_m, spread_m, 3), 1.0)
        for instance_id, obj in expand_instances(catalog)
    )


def build_system(
    scenario: str,
    taskset: str,
    device: str = PIXEL7,
    seed: SeedLike = 7,
    noise_sigma: float = 0.04,
    samples_per_period: int = 20,
    soc: Optional[SoCSpec] = None,
    place_objects: bool = True,
    edge: Optional[EdgeRuntime] = None,
    thermal: Optional[ThermalModel] = None,
) -> MARSystem:
    """Assemble a ready-to-run MAR system for a paper scenario.

    ``seed`` drives both object placement and device measurement noise
    (through decorrelated child streams), so a single integer reproduces
    the whole experiment. Passing an :class:`~repro.edge.runtime.
    EdgeRuntime` extends every CPU-capable task with an ``EDGE`` latency
    row and attaches the runtime to the device (N becomes 4); ``None``
    (the default) leaves the build byte-identical to the pre-edge path.
    ``thermal`` attaches a :class:`~repro.device.thermal.ThermalModel` to
    the device (a beyond-the-paper extension used by the scenario
    engine's hot-device episodes); ``None`` keeps the device athermal and
    the build unchanged.
    """
    if device not in _SOC_FACTORIES:
        raise ConfigurationError(
            f"unknown device {device!r}; expected one of {sorted(_SOC_FACTORIES)}"
        )
    scene = Scene()
    if place_objects:
        place_catalog(
            scene, scenario_catalog(scenario), seed=derive_seed(seed, "placement")
        )
    else:
        scenario_catalog(scenario)  # validate the name even when deferred
    device_sim = DeviceSimulator(
        soc if soc is not None else _SOC_FACTORIES[device](),
        noise_sigma=noise_sigma,
        thermal=thermal,
        seed=derive_seed(seed, "device-noise"),
        edge=edge,
    )
    taskset_obj = scenario_taskset(taskset, device)
    if edge is not None:
        taskset_obj = extend_taskset(taskset_obj, edge.config)
    return MARSystem(
        taskset=taskset_obj,
        device=device_sim,
        scene=scene,
        render_model=RenderLoadModel(),
        samples_per_period=samples_per_period,
    )


#: The network-drift scenario: (time_s, bandwidth_scale) breakpoints.
#: The link starts nominal, collapses to a quarter of its bandwidth
#: mid-run (a user walking behind an obstruction), then partially
#: recovers — the collapse inflates offloaded tasks' transfer time and
#: should push a re-optimization back onto the device.
NETWORK_DRIFT_SCHEDULE: Tuple[Tuple[float, float], ...] = (
    (0.0, 1.0),
    (30.0, 0.25),
    (60.0, 0.6),
)


def network_drift_scale(
    now_s: float,
    schedule: Tuple[Tuple[float, float], ...] = NETWORK_DRIFT_SCHEDULE,
) -> float:
    """The scheduled bandwidth scale in force at ``now_s`` (step-wise
    constant; times before the first breakpoint use its scale)."""
    if not schedule:
        raise ConfigurationError("drift schedule must have >= 1 breakpoint")
    scale = schedule[0][1]
    for time_s, value in schedule:
        if now_s >= time_s:
            scale = value
    return scale


#: A per-server drift plan: node name → (time_s, bandwidth_scale)
#: breakpoints. Each server's cell degrades on its own schedule.
DriftScheduleMap = Mapping[str, Tuple[Tuple[float, float], ...]]


def apply_network_drift(
    link: WirelessLink,
    now_s: float,
    schedule: Union[
        Tuple[Tuple[float, float], ...], DriftScheduleMap
    ] = NETWORK_DRIFT_SCHEDULE,
    server: Optional[str] = None,
) -> float:
    """Force ``link`` onto the scheduled bandwidth scale for ``now_s``
    (overriding random drift) and return the applied scale.

    ``schedule`` is either a single breakpoint tuple (the original
    single-link form — every pre-topology call site is byte-identical)
    or a per-server map of them, in which case ``server`` selects the
    entry; a server absent from the map keeps a nominal scale of 1.0
    (its cell is simply not part of the episode).
    """
    if isinstance(schedule, Mapping):
        if server is None:
            raise ConfigurationError(
                "a per-server drift map needs the server= name to select "
                f"a schedule from {sorted(schedule)}"
            )
        if server not in schedule:
            scale = 1.0
            link.set_bandwidth_scale(scale)
            return scale
        scale = network_drift_scale(now_s, tuple(schedule[server]))
    else:
        scale = network_drift_scale(now_s, schedule)
    link.set_bandwidth_scale(scale)
    return scale


def staggered_drift_schedules(
    node_names: Sequence[str], stagger_s: float = 10.0
) -> Dict[str, Tuple[Tuple[float, float], ...]]:
    """One :data:`NETWORK_DRIFT_SCHEDULE`-shaped plan per server, each
    node's collapse arriving ``stagger_s`` later than the previous one.

    Pure function of its inputs, so fleets built from it stay
    deterministic. Staggering matters for migration tests: while node
    *i* is collapsed, node *i+1* is still nominal, so a price-aware
    migration has somewhere strictly cheaper to go.
    """
    schedules: Dict[str, Tuple[Tuple[float, float], ...]] = {}
    for i, name in enumerate(node_names):
        shift = stagger_s * i
        schedules[name] = tuple(
            (time_s + shift if time_s > 0 else time_s, scale)
            for time_s, scale in NETWORK_DRIFT_SCHEDULE
        )
    return schedules


@dataclass(frozen=True)
class ServerOutage:
    """One edge server dropping out of the topology for a time window.

    While ``start_s <= now < end_s`` the node admits nobody and the
    fleet scheduler pushes its tenants back onto their devices (graceful
    fallback, not a crash); after ``end_s`` the node serves again.
    """

    node: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.node:
            raise ConfigurationError("outage node name must be non-empty")
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ConfigurationError(
                f"outage window must satisfy 0 <= start < end, got "
                f"[{self.start_s}, {self.end_s})"
            )

    def covers(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s


def fig8_event_script(seed: SeedLike = 11) -> Tuple[Tuple[SceneEvent, ...], float]:
    """The §V-D activation experiment script.

    Returns (events, session duration in seconds): ten object placements
    from t = 0 to t = 255 s — mostly light objects, with the 10th a heavy
    ~150k-triangle asset (the paper calls out that only the 9th and 10th
    placements trigger re-optimization) — followed by the user stepping
    back from the objects around t = 320 s.
    """
    rng = make_rng(seed)
    light = [obj for obj, _count in catalog_sc2()]
    heavy_mid = object_by_name("Cocacola")  # ~94k triangles (9th object)
    heavy_final = object_by_name("plane")  # ~147k triangles (10th object)

    events: List[SceneEvent] = []
    times = np.linspace(0.0, 255.0, 10)
    for i, t in enumerate(times):
        if i == 8:
            obj = heavy_mid
        elif i == 9:
            obj = heavy_final
        else:
            obj = light[i % len(light)]
        position = tuple(rng.uniform(-1.0, 1.0, 3) + np.asarray((0.0, 0.0, 1.2)))
        events.append(
            ObjectPlacement(
                time_s=float(t),
                instance_id=f"obj_{i + 1}_{obj.name}",
                obj=obj,
                position=position,
            )
        )
    # User steps away: distances grow, quality improves for free, and the
    # event policy reacts to the reward *increase*.
    events.append(DistanceChange(time_s=320.0, user_position=(0.0, 0.0, -1.5)))
    return validate_script(events), 400.0
