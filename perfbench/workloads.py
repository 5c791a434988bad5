"""The benchmark's workloads: fixed amounts of simulated work from a seed.

Each workload is a batch job, not a server: one process runs a stated
number of sessions, each for its control-period budget, and the harness
reports the work done per host second. A workload splits into three
steps so the harness can time them apart:

- ``setup()`` — generate the inputs from the seed and build a ready
  runner (scheduler construction, shard worker start-up, system
  construction); counted as set-up time.
- ``execute(ready)`` — the timed run through the public API.
- ``outcome(ready, raw)`` — untimed: the canonical export, its hash,
  the correctness gate, and the simulated outcome metrics.

Why these three (the layer each one stresses is what an optimisation of
that layer should move):

- ``fleet-256`` — the legacy staggered-cohort fleet, device-only, one
  process. Batched GP propose and AR apply dominate; warm starts make
  the store matter.
- ``tune-grid`` — the paper's own single-device loop
  (``HBOController.activate``) over every device and workload. The
  unbatched per-session GP ``ask`` dominates; the batched pass, fleet,
  edge and shard code do no work.
- ``surge-sharded`` — the ``low-tier-surge`` catalog entry at two shards:
  thermal rows skip the batched solve and resample inside
  ``MARSystem.measure``; it is the only workload with edge admission,
  shedding and the shard IPC path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.controller import HBOConfig, HBOController, HBORunResult
from repro.device.profiles import device_names
from repro.fleet import (
    FleetConfig,
    FleetResult,
    FleetScheduler,
    SessionSpec,
    SharedConfigStore,
    fleet_result_to_dict,
    run_fleet,
)
from repro.fleet.shard import ShardedFleetScheduler
from repro.rng import derive_seed
from repro.scenarios import CompiledScenario, compile_scenario, get_scenario
from repro.scenarios.generator import DEFAULT_SEED, default_fleet_specs
from repro.scenarios.runner import ScenarioRun, export_json
from repro.sim.export import run_result_to_dict
from repro.sim.scenarios import build_system

@dataclass
class Outcome:
    """What one execution produced, checked."""

    sessions: int
    failed: int
    #: Session control periods completed.
    steps: int
    export_sha256: str
    p95_epsilon: float
    #: Eq. 2 Q, mean over every evaluated period of every session.
    mean_quality: float
    mean_best_cost: float
    problems: List[str] = field(default_factory=list)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fleet_outcome(
    specs: Sequence[SessionSpec], hbo: HBOConfig, result: FleetResult, export: str
) -> Outcome:
    """Correctness gate shared by the fleet workloads: every session
    finished its budget with finite costs, and steps = Σ budgets."""
    budgets = {
        spec.session_id: spec.n_evaluations or hbo.total_evaluations
        for spec in specs
    }
    problems: List[str] = []
    failed = 0
    for report in result.reports:
        costs = np.asarray(report.costs, dtype=float)
        if costs.size != budgets[report.session_id] or not np.all(np.isfinite(costs)):
            failed += 1
    if failed:
        problems.append(f"{failed} sessions missed their budget or had non-finite costs")
    steps = int(result.aggregates.n_evaluations)
    if steps != sum(budgets.values()):
        problems.append(f"session-steps {steps} != sum of budgets {sum(budgets.values())}")
    agg = result.aggregates
    if agg.p95_epsilon is None:
        problems.append("fleet reported no epsilon trajectory")
    qualities = np.concatenate([np.asarray(r.qualities, dtype=float) for r in result.reports])
    return Outcome(
        sessions=len(specs),
        failed=failed,
        steps=steps,
        export_sha256=_sha256(export),
        p95_epsilon=float(agg.p95_epsilon or math.nan),
        mean_quality=float(np.mean(qualities)),
        mean_best_cost=float(agg.mean_best_cost),
        problems=problems,
    )


class FleetWorkload:
    """``fleet-256``: the legacy staggered-cohort fleet, device-only."""

    name = "fleet-256"
    shards = 1

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        if size == "full":
            self.n_sessions, self.hbo = 256, HBOConfig()
        else:
            self.n_sessions, self.hbo = 12, HBOConfig(n_initial=2, n_iterations=3)

    def setup(self) -> FleetScheduler:
        specs = default_fleet_specs(self.n_sessions, self.hbo, seed=self.seed)
        return FleetScheduler(
            specs,
            seed=derive_seed(self.seed, "fleet"),
            config=FleetConfig(hbo=self.hbo),
            store=SharedConfigStore(),
        )

    def execute(self, ready: FleetScheduler) -> FleetResult:
        return ready.run()

    def outcome(self, ready: FleetScheduler, raw: FleetResult) -> Outcome:
        export = json.dumps(fleet_result_to_dict(raw), sort_keys=True, indent=2)
        return _fleet_outcome(ready.specs, self.hbo, raw, export)

    def check_once(self) -> Tuple[int, List[str]]:
        return 0, []


class TuneGridWorkload:
    """``tune-grid``: single-session activations over devices × SC × CF."""

    name = "tune-grid"
    shards = 1
    SCENARIOS = ("SC1", "SC2")
    TASKSETS = ("CF1", "CF2")

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        if size == "full":
            self.devices, self.repeats, self.hbo = device_names(), 2, HBOConfig()
        else:
            self.devices = device_names()[:1]
            self.repeats, self.hbo = 1, HBOConfig(n_initial=2, n_iterations=3)
        self.n_sessions = (
            len(self.devices) * len(self.SCENARIOS) * len(self.TASKSETS) * self.repeats
        )

    def setup(self) -> List[HBOController]:
        controllers = []
        for device in self.devices:
            for scenario in self.SCENARIOS:
                for taskset in self.TASKSETS:
                    for k in range(self.repeats):
                        seed = derive_seed(self.seed, "tune-grid", device, scenario, taskset, k)
                        system = build_system(
                            scenario,
                            taskset,
                            device=device,
                            seed=derive_seed(seed, scenario, taskset),
                        )
                        controllers.append(HBOController(system, self.hbo, seed=seed))
        return controllers

    def execute(self, ready: List[HBOController]) -> List[HBORunResult]:
        return [controller.activate() for controller in ready]

    def outcome(self, ready: List[HBOController], raw: List[HBORunResult]) -> Outcome:
        # Each activation is one session whose budget is the configured
        # evaluations plus the incumbent it re-measures first.
        budget = self.hbo.total_evaluations + int(self.hbo.seed_incumbent)
        failed = 0
        for run in raw:
            costs = np.asarray([it.cost for it in run.iterations], dtype=float)
            if costs.size != budget or not np.all(np.isfinite(costs)):
                failed += 1
        problems = (
            [f"{failed} activations missed their budget or had non-finite costs"]
            if failed
            else []
        )
        steps = sum(len(run.iterations) for run in raw)
        if steps != budget * len(ready):
            problems.append(f"periods {steps} != sum of budgets {budget * len(ready)}")
        epsilons = [it.measurement.epsilon for run in raw for it in run.iterations]
        qualities = [it.measurement.quality for run in raw for it in run.iterations]
        export = json.dumps(
            [run_result_to_dict(run) for run in raw], sort_keys=True, indent=2
        )
        return Outcome(
            sessions=len(ready),
            failed=failed,
            steps=steps,
            export_sha256=_sha256(export),
            p95_epsilon=float(np.percentile(epsilons, 95)),
            mean_quality=float(np.mean(qualities)),
            mean_best_cost=float(np.mean([run.best.cost for run in raw])),
            problems=problems,
        )

    def check_once(self) -> Tuple[int, List[str]]:
        return 0, []


class SurgeWorkload:
    """``surge-sharded``: ``low-tier-surge`` on a 2-node topology, 2 shards.

    The scenario is compiled at its catalog seed, so the arrival burst,
    device mix and thermal flags — which set how many sessions each tick
    carries — are the same on every run; the benchmark seed drives the
    fleet's session streams (measurement noise, BO draws, link traces).
    A seed-dependent burst would move the tick-time medians by more than
    any regression bound.
    """

    name = "surge-sharded"
    SCENARIO = "low-tier-surge"
    shards = 2

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        if size == "full":
            self.n_sessions, self.hbo = 96, HBOConfig()
        else:
            self.n_sessions, self.hbo = 12, HBOConfig(n_initial=2, n_iterations=3)
        self._export = ""

    def _compile(self) -> CompiledScenario:
        compiled = compile_scenario(
            get_scenario(self.SCENARIO), DEFAULT_SEED, hbo=self.hbo, n_sessions=self.n_sessions
        )
        return dataclasses.replace(compiled, fleet_seed=derive_seed(self.seed, "fleet"))

    def setup(self) -> Tuple[CompiledScenario, ShardedFleetScheduler]:
        compiled = self._compile()
        config = dataclasses.replace(compiled.fleet_config, shards=self.shards)
        return compiled, ShardedFleetScheduler(
            compiled.session_specs,
            seed=compiled.fleet_seed,
            config=config,
            store=SharedConfigStore(),
        )

    def execute(self, ready: Tuple[CompiledScenario, ShardedFleetScheduler]) -> FleetResult:
        return ready[1].run()

    def outcome(
        self, ready: Tuple[CompiledScenario, ShardedFleetScheduler], raw: FleetResult
    ) -> Outcome:
        compiled, scheduler = ready
        self._export = export_json(ScenarioRun(compiled=compiled, result=raw))
        out = _fleet_outcome(compiled.session_specs, self.hbo, raw, self._export)
        assert scheduler.topology is not None
        for node in scheduler.topology.nodes:
            if node.server.tenant_ids or node.server.total_streams != 0.0:
                out.problems.append(
                    f"{node.name}: demand {node.server.total_streams} from "
                    f"{len(node.server.tenant_ids)} tenants left after the run"
                )
        return out

    def check_once(self) -> Tuple[int, List[str]]:
        """Untimed: the same scenario at shards = 1 exports the same bytes
        as the last sharded execution. Returns (sessions run, problems)."""
        compiled = self._compile()
        result = run_fleet(
            compiled.session_specs, seed=compiled.fleet_seed, config=compiled.fleet_config
        )
        reference = export_json(ScenarioRun(compiled=compiled, result=result))
        if reference != self._export:
            return self.n_sessions, [
                f"shards={self.shards} export {_sha256(self._export)[:12]} != "
                f"shards=1 export {_sha256(reference)[:12]}"
            ]
        return self.n_sessions, []


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (FleetWorkload, TuneGridWorkload, SurgeWorkload)
}
