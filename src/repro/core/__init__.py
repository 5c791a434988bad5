"""HBO core: the paper's primary contribution.

- :mod:`repro.core.cost` — reward/cost functions (Eq. 3–5) and the
  normalized latency metric (Eq. 4).
- :mod:`repro.core.system` — the MAR system facade binding taskset,
  device, scene and renderer; the "plant" both HBO and the baselines
  control.
- :mod:`repro.core.allocation` — the heuristic translating BO's
  fractional resource proportions into per-task allocations
  (Algorithm 1, Lines 2–22).
- :mod:`repro.core.algorithm` — one full HBO iteration (Algorithm 1).
- :mod:`repro.core.activation` — event-based (§IV-E) and periodic
  activation policies.
- :mod:`repro.core.controller` — the HBO controller tying it together.
- :mod:`repro.core.lookup` — the §VI environment lookup-table extension.
- :mod:`repro.core.remote` — the §VI edge-offloaded BO extension.
"""

from repro.core.activation import EventBasedPolicy, PeriodicPolicy
from repro.core.algorithm import HBOIteration, IterationResult
from repro.core.allocation import allocate_tasks, proportions_to_counts
from repro.core.controller import HBOConfig, HBOController, HBORunResult
from repro.core.cost import cost_from_measurement, normalized_average_latency, reward
from repro.core.lookup import EnvironmentSignature, LookupAwareController, LookupTable
from repro.core.remote import RemoteOptimizerProxy
from repro.core.system import MARSystem, Measurement

__all__ = [
    "EnvironmentSignature",
    "EventBasedPolicy",
    "HBOConfig",
    "HBOController",
    "HBOIteration",
    "HBORunResult",
    "IterationResult",
    "LookupAwareController",
    "LookupTable",
    "MARSystem",
    "Measurement",
    "RemoteOptimizerProxy",
    "PeriodicPolicy",
    "allocate_tasks",
    "cost_from_measurement",
    "normalized_average_latency",
    "proportions_to_counts",
    "reward",
]
