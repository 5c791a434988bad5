"""HBO: joint AI task allocation and virtual object quality manipulation
for improved MAR app performance.

A full reproduction of the ICDCS 2024 paper as a Python library. The
paper's contribution — a Bayesian-optimization controller (HBO) that
jointly picks per-AI-task compute allocations and the total virtual-object
triangle budget — lives in :mod:`repro.core`; everything it runs on is
built here too:

- :mod:`repro.bo` — Gaussian-process Bayesian optimization from scratch
  (Matérn-5/2 kernel, Expected Improvement, simplex-constrained space).
- :mod:`repro.device` — a heterogeneous mobile-SoC contention simulator
  calibrated to the paper's Table I (Pixel 7, Galaxy S22) plus two
  scaled mid/low tiers (Pixel 6a, Galaxy A54).
- :mod:`repro.models` — the AI model zoo and the CF1/CF2 tasksets.
- :mod:`repro.ar` — meshes, decimation, the eAR quality model (Eq. 1/2),
  the SC1/SC2 object catalogs, rendering load, and the TD heuristic.
- :mod:`repro.baselines` — SMQ, SML, BNT, AllN.
- :mod:`repro.sim` — scripted sessions and the §IV-E monitoring loop.
- :mod:`repro.fleet` — multi-session fleet serving with a shared edge
  optimizer, one guided-proposal call per tick, and cross-session warm
  starting.
- :mod:`repro.scenarios` — seeded workload generators and a replayable
  catalog of named fleet scenarios (name + seed → identical trace).
- :mod:`repro.obs` — observability: deterministic sim-time tracing,
  a metrics registry, and Perfetto-loadable trace export.
- :mod:`repro.experiments` — a driver per paper table/figure.
- :mod:`repro.userstudy` — the simulated §V-E rater panel.

Quickstart::

    from repro import HBOConfig, HBOController, build_system

    system = build_system("SC1", "CF1", seed=7)
    controller = HBOController(system, HBOConfig(w=2.5), seed=7)
    result = controller.activate()
    best = result.best
    print(best.allocation, best.triangle_ratio, best.measurement.quality)
"""

from repro.ar.objects import VirtualObject, catalog_sc1, catalog_sc2
from repro.ar.scene import Scene
from repro.baselines import (
    AllNNAPIBaseline,
    BayesianNoTriangleBaseline,
    StaticMatchLatencyBaseline,
    StaticMatchQualityBaseline,
)
from repro.bo import BayesianOptimizer, ExpectedImprovement, GaussianProcess, HBOSpace, Matern
from repro.core import (
    EventBasedPolicy,
    HBOConfig,
    HBOController,
    HBORunResult,
    LookupAwareController,
    LookupTable,
    MARSystem,
    Measurement,
    PeriodicPolicy,
)
from repro.device import DeviceSimulator, Resource, galaxy_s22_soc, pixel7_soc
from repro.edge.link import NetworkLink
from repro.errors import ReproError
from repro.fleet import (
    FleetConfig,
    FleetResult,
    FleetScheduler,
    SessionSpec,
    SharedConfigStore,
    run_fleet,
)
from repro.models import ModelZoo, TaskSet, taskset_cf1, taskset_cf2
from repro.scenarios import (
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.obs import MetricsRegistry, Tracer, instrumented
from repro.sim import MonitoringEngine
from repro.sim.scenarios import build_system, fig8_event_script
from repro.units import Ms, Seconds
from repro.userstudy import RaterPanel

__version__ = "1.0.0"

__all__ = [
    "AllNNAPIBaseline",
    "BayesianNoTriangleBaseline",
    "BayesianOptimizer",
    "DeviceSimulator",
    "EventBasedPolicy",
    "ExpectedImprovement",
    "FleetConfig",
    "FleetResult",
    "FleetScheduler",
    "GaussianProcess",
    "HBOConfig",
    "HBOController",
    "HBORunResult",
    "HBOSpace",
    "LookupAwareController",
    "LookupTable",
    "MARSystem",
    "Matern",
    "Measurement",
    "MetricsRegistry",
    "ModelZoo",
    "Ms",
    "NetworkLink",
    "MonitoringEngine",
    "PeriodicPolicy",
    "RaterPanel",
    "ReproError",
    "Resource",
    "Scene",
    "ScenarioSpec",
    "Seconds",
    "SessionSpec",
    "SharedConfigStore",
    "StaticMatchLatencyBaseline",
    "StaticMatchQualityBaseline",
    "TaskSet",
    "Tracer",
    "VirtualObject",
    "__version__",
    "build_system",
    "catalog_sc1",
    "catalog_sc2",
    "compile_scenario",
    "fig8_event_script",
    "galaxy_s22_soc",
    "get_scenario",
    "instrumented",
    "pixel7_soc",
    "run_fleet",
    "run_scenario",
    "scenario_names",
    "taskset_cf1",
    "taskset_cf2",
]
