"""Multi-session fleet serving: N concurrent MAR sessions, one shared
edge optimizer, cross-session warm starting.

See :mod:`repro.fleet.scheduler` for the run loop, :mod:`repro.fleet.
store` for the warm-start store, :mod:`repro.fleet.batch` for the guided
proposal service, and ``docs/fleet.md`` for the architecture overview.
"""

from repro.fleet.batch import SharedOptimizerService
from repro.fleet.export import fleet_report_to_dict, fleet_result_to_dict
from repro.fleet.scheduler import (
    FleetConfig,
    FleetResult,
    FleetScheduler,
    run_fleet,
)
from repro.fleet.session import FleetSession, SessionPhase, SessionSpec
from repro.fleet.store import (
    SharedConfigStore,
    WarmStartEntry,
    warm_start_entry_to_dict,
)
from repro.fleet.telemetry import (
    FleetAggregates,
    FleetSessionReport,
    convergence_histogram,
    fleet_aggregates,
    iterations_to_converge,
)

__all__ = [
    "SharedOptimizerService",
    "FleetConfig",
    "FleetResult",
    "fleet_report_to_dict",
    "fleet_result_to_dict",
    "FleetScheduler",
    "run_fleet",
    "FleetSession",
    "SessionPhase",
    "SessionSpec",
    "SharedConfigStore",
    "WarmStartEntry",
    "warm_start_entry_to_dict",
    "FleetAggregates",
    "FleetSessionReport",
    "convergence_histogram",
    "fleet_aggregates",
    "iterations_to_converge",
]
