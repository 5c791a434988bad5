"""Allocation choices and physical processors.

The paper's scheduler picks, for each AI task, one of N coarse-grained
*allocation choices* (§II): run the whole model on the **CPU**, hand it to
the **GPU delegate** (all ops on GPU), or hand it to the **NNAPI delegate**
(ops split across NPU and GPU — ops unsupported by the NPU fall back to the
GPU, footnote 2). Physically, work lands on three *processors*: CPU, GPU,
NPU. The distinction matters because the NNAPI choice loads two processors
at once, and the GPU is also where AR rendering happens.
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.errors import DeviceError


class Resource(enum.Enum):
    """An allocation choice exposed to the scheduler.

    The paper's N=3 on-device choices, plus ``EDGE`` — offloading the
    whole inference to an edge server over the wireless link (the
    :mod:`repro.edge` subsystem, off unless a system is built with an
    edge runtime).
    """

    CPU = "cpu"
    GPU_DELEGATE = "gpu"
    NNAPI = "nnapi"
    EDGE = "edge"

    @property
    def short(self) -> str:
        """One-letter code used in the paper's Fig. 2 annotations."""
        return {"cpu": "C", "gpu": "G", "nnapi": "N", "edge": "E"}[self.value]

    def __str__(self) -> str:
        return self.value


class Processor(enum.Enum):
    """A physical compute unit on the SoC."""

    CPU = "cpu"
    GPU = "gpu"
    NPU = "npu"

    def __str__(self) -> str:
        return self.value


#: Canonical resource ordering used throughout the library: index 0 is CPU,
#: 1 is the GPU delegate, 2 is NNAPI — matching the paper's examples
#: ("1 for CPU, 2 for GPU, 3 for NNAPI", §IV-D, zero-based here).
ALL_RESOURCES: Tuple[Resource, ...] = (
    Resource.CPU,
    Resource.GPU_DELEGATE,
    Resource.NNAPI,
)

#: Resource ordering for edge-enabled systems: the on-device trio plus
#: ``EDGE`` as the fourth allocation choice (N=4).
EDGE_RESOURCES: Tuple[Resource, ...] = ALL_RESOURCES + (Resource.EDGE,)

_NAME_ALIASES = {
    "cpu": Resource.CPU,
    "c": Resource.CPU,
    "gpu": Resource.GPU_DELEGATE,
    "gpu_delegate": Resource.GPU_DELEGATE,
    "g": Resource.GPU_DELEGATE,
    "nnapi": Resource.NNAPI,
    "n": Resource.NNAPI,
    "edge": Resource.EDGE,
    "e": Resource.EDGE,
}


def resource_from_name(name: str) -> Resource:
    """Parse a resource from a human-friendly name ('cpu', 'GPU', 'N', ...)."""
    key = name.strip().lower()
    if key not in _NAME_ALIASES:
        raise DeviceError(
            f"unknown resource {name!r}; expected one of {sorted(_NAME_ALIASES)}"
        )
    return _NAME_ALIASES[key]
