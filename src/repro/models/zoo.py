"""Model registry — the stand-in for the TFLite hosted-models repo.

The paper uses pre-trained TensorFlow Lite models [16]; only their latency
profiles and delegate compatibility matter to the scheduler (§III-A leaves
accuracy out of scope). :class:`ModelZoo` wraps the Table I profile data
for one device and adds convenience queries the rest of the library uses:
affinity (best resource in isolation) and the expected latency τ^e of
Eq. 4. Algorithm 1's queue is built by
:func:`repro.core.allocation.build_priority_queue`.
"""

from __future__ import annotations

from typing import Tuple

from repro.device.profiles import (
    GALAXY_S22,
    PIXEL7,
    StaticProfile,
    device_names,
    get_profile,
    model_names,
)
from repro.device.resources import Resource
from repro.errors import UnknownModelError


class ModelZoo:
    """All models known for a given device, with profile queries."""

    def __init__(self, device: str = PIXEL7) -> None:
        if device not in device_names():
            raise UnknownModelError(
                f"unknown device {device!r}; expected one of {device_names()}"
            )
        self.device = device

    def names(self) -> Tuple[str, ...]:
        return model_names(self.device)

    def profile(self, model: str) -> StaticProfile:
        return get_profile(self.device, model)

    def supports(self, model: str, resource: Resource) -> bool:
        return self.profile(model).supports(resource)

    def affinity(self, model: str) -> Resource:
        """The resource where the model is fastest in isolation."""
        resource, _ = self.profile(model).best_resource()
        return resource

    def expected_latency(self, model: str) -> float:
        """τ^e of Eq. 4: the lowest isolation latency across resources."""
        _, latency = self.profile(model).best_resource()
        return latency


__all__ = ["ModelZoo", "GALAXY_S22", "PIXEL7"]
