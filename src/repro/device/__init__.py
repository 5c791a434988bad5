"""Heterogeneous mobile SoC substrate.

The paper evaluates on real phones (Google Pixel 7, Samsung Galaxy S22).
This package replaces the silicon with a parametric simulator:

- :mod:`repro.device.resources` — allocation choices (CPU / GPU delegate /
  NNAPI delegate) and physical processors (CPU / GPU / NPU).
- :mod:`repro.device.soc` — SoC descriptions with per-processor capacities
  and rendering-throughput constants.
- :mod:`repro.device.profiles` — the paper's Table I isolation latencies.
- :mod:`repro.device.load` — the static placement/load value types
  (:class:`TaskPlacement`, :class:`SystemLoad`) shared with lower layers.
- :mod:`repro.device.contention` — the processor-sharing contention model
  that generates the Fig. 2 phenomena (co-location slowdown, NNAPI op
  splitting, rendering interference on the GPU, communication overhead).
- :mod:`repro.device.executor` — the simulated device: holds a taskset and
  render load, produces noisy latency measurements, supports live
  reallocation.
- :mod:`repro.device.thermal` — optional thermal-throttling extension.
"""

from repro.device.contention import ContentionModel
from repro.device.executor import DeviceSimulator
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.resources import (
    ALL_RESOURCES,
    Processor,
    Resource,
    resource_from_name,
)
from repro.device.power import PowerModel, ProcessorPower, energy_aware_cost
from repro.device.soc import RenderCostModel, SoCSpec, galaxy_s22_soc, pixel7_soc
from repro.device.thermal import ThermalModel

__all__ = [
    "ALL_RESOURCES",
    "ContentionModel",
    "DeviceSimulator",
    "PowerModel",
    "Processor",
    "ProcessorPower",
    "RenderCostModel",
    "Resource",
    "SoCSpec",
    "SystemLoad",
    "TaskPlacement",
    "ThermalModel",
    "energy_aware_cost",
    "galaxy_s22_soc",
    "pixel7_soc",
    "resource_from_name",
]
