"""Edge offloading experiment: does a fourth resource help, and when?

Beyond the paper: §VI sketches running the *optimizer* on an edge server;
this driver asks the stronger question — what happens when the edge can
also run the *AI tasks*. It compares two exhaustive frontier grids on the
heavy co-location scenario (SC1-CF1 on the Galaxy S22, where six
continuously-inferring tasks fight the render load for the SoC):

1. **device-only** — the paper's N = 3 lattice (CPU/GPU/NNAPI);
2. **edge-enabled** — the N = 4 lattice with ``EDGE`` as an allocation
   choice, priced through the wireless link + shared-server models.

Quality Q is a function of the triangle ratio x alone, so comparing the
two grids at *matched x* is an equal-quality comparison; the headline
number is the largest strict ε (Eq. 4) win the edge achieves at any
matched ratio. A second table replays the frontier under the
network-drift schedule (:data:`repro.sim.scenarios.NETWORK_DRIFT_SCHEDULE`)
to show the optimum retreating back on-device when the link collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.allocation import count_lattice
from repro.core.controller import HBOConfig
from repro.core.frontier import FrontierEvaluator, FrontierResult
from repro.device.profiles import GALAXY_S22
from repro.edge.admission import OPEN_ADMISSION, AdmissionConfig
from repro.edge.link import LinkConfig
from repro.edge.runtime import EdgeConfig, build_edge_runtime
from repro.edge.server import EdgeServerConfig
from repro.edge.topology import (
    EdgeNodeConfig,
    EdgeTopologyConfig,
    MigrationConfig,
)
from repro.errors import ExperimentError
from repro.experiments.common import DEFAULT_SEED
from repro.experiments.report import format_kv, format_table
from repro.fleet.scheduler import FleetConfig, FleetResult, FleetScheduler
from repro.fleet.session import SessionSpec
from repro.rng import derive_seed
from repro.sim.scenarios import (
    NETWORK_DRIFT_SCHEDULE,
    apply_network_drift,
    build_system,
)


@dataclass(frozen=True)
class FrontierPoint:
    """One grid's best row at a matched triangle ratio."""

    counts: Tuple[int, ...]
    epsilon: float
    quality: float
    phi: float


@dataclass(frozen=True)
class MatchedRatioRow:
    """Device-only vs edge-enabled optima at one triangle ratio."""

    triangle_ratio: float
    device_only: FrontierPoint
    edge: FrontierPoint

    @property
    def epsilon_win(self) -> float:
        """Strictly positive when the edge grid beats device-only ε at
        this (equal-quality) ratio."""
        return self.device_only.epsilon - self.edge.epsilon


@dataclass(frozen=True)
class DriftRow:
    """The edge-enabled frontier optimum under one drift breakpoint."""

    time_s: float
    bandwidth_scale: float
    n_offloaded: int
    epsilon: float
    phi: float


@dataclass(frozen=True)
class EdgeExperimentResult:
    device: str
    scenario: str
    taskset: str
    w: float
    n_device_candidates: int
    n_edge_candidates: int
    rows: List[MatchedRatioRow]
    drift: List[DriftRow]

    @property
    def best_win(self) -> MatchedRatioRow:
        """The matched ratio with the largest ε improvement."""
        if not self.rows:
            raise ExperimentError("edge experiment produced no matched rows")
        return max(self.rows, key=lambda r: r.epsilon_win)

    @property
    def n_strict_wins(self) -> int:
        return sum(1 for row in self.rows if row.epsilon_win > 0)


def _best_at_ratio(result: FrontierResult, ratio: float) -> FrontierPoint:
    mask = np.isclose(result.triangle_ratio, ratio)
    idx = np.flatnonzero(mask)
    best = idx[np.argmin(result.phi[idx])]
    return FrontierPoint(
        counts=tuple(int(k) for k in result.counts[best]),
        epsilon=float(result.epsilon[best]),
        quality=float(result.quality[best]),
        phi=float(result.phi[best]),
    )


def run_edge_experiment(
    scenario: str = "SC1",
    taskset: str = "CF1",
    device: str = GALAXY_S22,
    w: float = 2.5,
    n_ratios: int = 10,
    r_min: float = 0.1,
    seed: int = DEFAULT_SEED,
    edge_config: Optional[EdgeConfig] = None,
) -> EdgeExperimentResult:
    """Score both lattices and compare them at matched triangle ratios."""
    config = edge_config if edge_config is not None else EdgeConfig()
    build_seed = derive_seed(seed, "edge", scenario, taskset)

    device_system = build_system(scenario, taskset, device=device, seed=build_seed)
    runtime = build_edge_runtime(
        config=config, seed=derive_seed(seed, "edge-link"), session_id="edge-exp"
    )
    edge_system = build_system(
        scenario, taskset, device=device, seed=build_seed, edge=runtime
    )

    n_tasks = len(device_system.taskset)
    ratios = np.linspace(r_min, 1.0, n_ratios)
    zs_device = count_lattice(n_tasks, device_system.n_resources, ratios)
    zs_edge = count_lattice(n_tasks, edge_system.n_resources, ratios)

    device_result = FrontierEvaluator(device_system, w=w).evaluate(zs_device)
    edge_result = FrontierEvaluator(edge_system, w=w).evaluate(zs_edge)

    rows = [
        MatchedRatioRow(
            triangle_ratio=float(x),
            device_only=_best_at_ratio(device_result, float(x)),
            edge=_best_at_ratio(edge_result, float(x)),
        )
        for x in ratios
    ]

    # Drift replay: force the scheduled bandwidth scale, re-snapshot the
    # frontier (the evaluator prices through the live link state), and
    # record how many tasks the optimum still offloads.
    drift: List[DriftRow] = []
    for time_s, _scale in NETWORK_DRIFT_SCHEDULE:
        applied = apply_network_drift(runtime.link, time_s)
        result = FrontierEvaluator(edge_system, w=w).evaluate(zs_edge)
        best = result.best_index
        counts = tuple(int(k) for k in result.counts[best])
        drift.append(
            DriftRow(
                time_s=float(time_s),
                bandwidth_scale=float(applied),
                n_offloaded=int(counts[-1]),
                epsilon=float(result.epsilon[best]),
                phi=float(result.phi[best]),
            )
        )

    return EdgeExperimentResult(
        device=device,
        scenario=scenario,
        taskset=taskset,
        w=float(w),
        n_device_candidates=int(zs_device.shape[0]),
        n_edge_candidates=int(zs_edge.shape[0]),
        rows=rows,
        drift=drift,
    )


def render(result: EdgeExperimentResult) -> str:
    """Human-readable report: matched-ratio table + drift replay."""
    rows = [
        [
            row.triangle_ratio,
            ", ".join(str(k) for k in row.device_only.counts),
            row.device_only.epsilon,
            ", ".join(str(k) for k in row.edge.counts),
            row.edge.epsilon,
            row.epsilon_win,
        ]
        for row in result.rows
    ]
    best = result.best_win
    blocks = [
        format_kv(
            f"Edge offloading — {result.scenario}-{result.taskset} on "
            f"{result.device}, w={result.w:g}",
            [
                ["device-only candidates (N=3)", result.n_device_candidates],
                ["edge-enabled candidates (N=4)", result.n_edge_candidates],
                ["matched ratios with strict eps win", result.n_strict_wins],
                ["largest eps win", best.epsilon_win],
                ["  at triangle ratio x", best.triangle_ratio],
                ["  device-only eps", best.device_only.epsilon],
                ["  edge-enabled eps", best.edge.epsilon],
            ],
        ),
        format_table(
            ["x", "dev counts", "dev eps", "edge counts", "edge eps",
             "eps win"],
            rows,
            title="Equal-quality comparison (best grid point per ratio; "
            "counts are tasks per resource, edge last)",
        ),
        format_table(
            ["t (s)", "bw scale", "offloaded", "eps", "phi"],
            [
                [d.time_s, d.bandwidth_scale, d.n_offloaded, d.epsilon, d.phi]
                for d in result.drift
            ],
            title="Network-drift replay (frontier optimum per breakpoint)",
        ),
    ]
    return "\n\n".join(blocks)


def saturation_topology(
    n_servers: int = 2,
    capacity_streams: float = 2.5,
    queue_exponent: float = 2.5,
    admission: Optional[AdmissionConfig] = None,
) -> EdgeTopologyConfig:
    """A deliberately undersized topology for the saturation study.

    Every node keeps the default speedup but only ``capacity_streams``
    of processor-sharing headroom, and oversubscription thrashes — the
    ``queue_exponent`` is convex enough that running 3× over capacity is
    strictly worse than staying on-device — so a flash crowd
    oversubscribes it within a few arrivals. Migration is off: the study
    isolates admission control + shedding from migration effects.
    """
    if n_servers < 1:
        raise ExperimentError(f"n_servers must be >= 1, got {n_servers}")
    nodes = tuple(
        EdgeNodeConfig(
            server=EdgeServerConfig(
                capacity_streams=capacity_streams,
                queue_exponent=queue_exponent,
                name=f"edge-{i}",
            ),
            link=LinkConfig(rtt_ms=LinkConfig().rtt_ms + 2.0 * i),
            admission=admission if admission is not None else AdmissionConfig(),
            distance=10.0 * i,
        )
        for i in range(n_servers)
    )
    return EdgeTopologyConfig(nodes=nodes, migration=MigrationConfig(enabled=False))


def flash_crowd_specs(
    n_sessions: int, seed: int = DEFAULT_SEED, gap_s: float = 0.5
) -> List[SessionSpec]:
    """A homogeneous arrival wave on the heavy co-location workload.

    Every session is SC1-CF1 on the Galaxy S22 (six continuously
    inferring tasks — the heaviest offload demand in the catalog) and
    arrivals land ``gap_s`` apart, far faster than sessions drain, so
    server load only ever ratchets up.
    """
    if n_sessions < 1:
        raise ExperimentError(f"n_sessions must be >= 1, got {n_sessions}")
    placement_seed = derive_seed(seed, "saturation-placement")
    return [
        SessionSpec(
            session_id=f"w{index:02d}-galaxys22-SC1",
            device=GALAXY_S22,
            scenario="SC1",
            taskset="CF1",
            arrival_s=gap_s * index,
            placement_seed=placement_seed,
            position=10.0 * (index % 4),
        )
        for index in range(n_sessions)
    ]


@dataclass(frozen=True)
class SaturationStudyResult:
    """Admission-on vs open-admission fleets under the same flash crowd."""

    n_servers: int
    n_sessions: int
    admission: FleetResult
    open_admission: FleetResult

    @property
    def p95_epsilon_admission(self) -> float:
        if self.admission.aggregates.p95_epsilon is None:
            raise ExperimentError("admission run recorded no epsilons")
        return self.admission.aggregates.p95_epsilon

    @property
    def p95_epsilon_open(self) -> float:
        if self.open_admission.aggregates.p95_epsilon is None:
            raise ExperimentError("open-admission run recorded no epsilons")
        return self.open_admission.aggregates.p95_epsilon

    @property
    def epsilon_tail_win(self) -> float:
        """Strictly positive when admission control cuts the ε tail."""
        return self.p95_epsilon_open - self.p95_epsilon_admission


def run_saturation_study(
    seed: int = DEFAULT_SEED,
    config: Optional[HBOConfig] = None,
    n_servers: int = 2,
    n_sessions: int = 12,
    capacity_streams: float = 2.5,
    placement: str = "least-loaded",
) -> SaturationStudyResult:
    """Drive the same flash crowd through the same undersized topology
    twice — once with admission control + shedding, once wide open — and
    compare the pooled p95 of Eq. 4 normalized latency.

    Open admission lets every arrival pile onto the servers, so the
    processor-sharing slowdown blows up the ε tail; admission control
    bounces late arrivals (and sheds over-threshold tenants) back to
    their devices, trading their edge speedup for a bounded tail.
    """
    cfg = config if config is not None else HBOConfig()

    def run(admission: Optional[AdmissionConfig]) -> FleetResult:
        topology = saturation_topology(
            n_servers, capacity_streams=capacity_streams, admission=admission
        )
        scheduler = FleetScheduler(
            flash_crowd_specs(n_sessions, seed=seed),
            seed=derive_seed(seed, "saturation"),
            config=FleetConfig(
                hbo=cfg,
                warm_start=False,
                topology=topology,
                placement=placement,
            ),
        )
        return scheduler.run()

    return SaturationStudyResult(
        n_servers=n_servers,
        n_sessions=n_sessions,
        admission=run(None),
        open_admission=run(OPEN_ADMISSION),
    )


def render_saturation(result: SaturationStudyResult) -> str:
    """Human-readable saturation report (the BENCH_pr7 headline pair)."""
    admitted = result.admission.topology_stats or {}
    rows = [
        ["servers x sessions", f"{result.n_servers} x {result.n_sessions}"],
        ["p95 eps (open admission)", result.p95_epsilon_open],
        ["p95 eps (admission + fallback)", result.p95_epsilon_admission],
        ["eps tail win", result.epsilon_tail_win],
        ["admission rejections", admitted.get("rejections", 0)],
        ["shed fallbacks", admitted.get("sheds", 0)],
    ]
    return format_kv("Edge saturation — flash crowd vs admission control", rows)


if __name__ == "__main__":
    print(render(run_edge_experiment()))
