"""One full HBO iteration (the paper's Algorithm 1).

Each iteration: BO proposes (c, x) → the heuristic maps c to per-task
allocations → TD distributes x·T^max across objects → the system runs one
control period → measured (ε, Q) become the cost φ = −(Q − w·ε) → the BO
dataset D is updated. :class:`HBOIteration` packages this as a reusable
step so the controller, the baselines (BNT reuses it with a latency-only
cost), and the benches all drive the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

import numpy as np

from repro.bo.optimizer import BayesianOptimizer
from repro.bo.space import HBOSpace
from repro.core.allocation import build_priority_queue, drain_priority_queue, proportions_to_counts
from repro.core.cost import cost_from_measurement, latency_cost
from repro.core.system import MARSystem, Measurement
from repro.device.resources import Resource
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class IterationResult:
    """Everything Algorithm 1 produced in one iteration."""

    z: np.ndarray  # the BO point [c; x]
    proportions: np.ndarray  # c
    triangle_ratio: float  # x
    allocation: Mapping[str, Resource]
    object_ratios: Mapping[str, float]
    measurement: Measurement
    cost: float  # φ = −B


@dataclass(frozen=True)
class DecodedPoint:
    """A BO point decoded by Lines 2–22 and not yet applied.

    :meth:`HBOIteration.decode` is pure, so a batched driver (the fleet
    tick) can decode many sessions' points, run TD for all of them in one
    call per object count, and then apply each one.
    """

    z: np.ndarray
    proportions: np.ndarray
    triangle_ratio: float
    allocation: Mapping[str, Resource]


@dataclass(frozen=True)
class PendingEvaluation(DecodedPoint):
    """An iteration that has been applied but not yet measured.

    :meth:`HBOIteration.apply` returns this; :meth:`HBOIteration.finish`
    measures, prices and tells (:meth:`HBOIteration.evaluate` is the
    first two alone). The split exists so a batched driver (the
    fleet tick) can apply many sessions' configurations, evaluate all
    their steady states through one backend solve, and only then run
    each measurement. The controller's incumbent is one too: the running
    configuration, already applied.
    """

    object_ratios: Mapping[str, float]


class HBOIteration:
    """Callable performing Algorithm 1 once per invocation.

    Parameters
    ----------
    system:
        The MAR system to control.
    optimizer:
        The BO loop over an :class:`~repro.bo.space.HBOSpace` whose
        dimension matches ``system.n_resources + 1``.
    w:
        The latency/quality weight of Eq. 3.
    latency_only:
        When True the cost ignores quality (the BNT baseline's simplified
        formulation); the triangle ratio is still part of the BO vector
        but is pinned to 1 before being applied.
    w_power:
        Energy extension (beyond the paper, default off): with a positive
        weight the cost also prices the system's relative power draw via
        :func:`repro.device.power.energy_aware_cost`.
    """

    def __init__(
        self,
        system: MARSystem,
        optimizer: BayesianOptimizer,
        w: float,
        latency_only: bool = False,
        w_power: float = 0.0,
    ) -> None:
        space = optimizer.space
        if not isinstance(space, HBOSpace):
            raise ConfigurationError(
                f"HBO requires an HBOSpace optimizer, got {type(space).__name__}"
            )
        if space.n_resources != system.n_resources:
            raise ConfigurationError(
                f"space has {space.n_resources} resources but the system "
                f"has {system.n_resources}"
            )
        if w < 0:
            raise ConfigurationError(f"w must be >= 0, got {w}")
        if w_power < 0:
            raise ConfigurationError(f"w_power must be >= 0, got {w_power}")
        self.system = system
        self.optimizer = optimizer
        self.w = float(w)
        self.latency_only = bool(latency_only)
        self.w_power = float(w_power)
        self._power_model = None
        #: (taskset, resources, Algorithm 1's queue P built from just them).
        self._queue: Tuple[Any, ...] = ()
        if self.w_power > 0:
            from repro.device.power import PowerModel

            self._power_model = PowerModel()

    def run_once(self) -> IterationResult:
        """Execute Algorithm 1 for one control period."""
        return self.finish(self.apply(self.decode(self.optimizer.ask())))  # Line 1

    def decode(self, z: np.ndarray) -> DecodedPoint:
        """Lines 2–22: ``z`` → proportions, task counts, allocation and
        the triangle ratio to apply. Touches nothing."""
        space: HBOSpace = self.optimizer.space  # type: ignore[assignment]
        point = space.split(z)
        triangle_ratio = 1.0 if self.latency_only else point.triangle_ratio
        taskset, resources = self.system.taskset, self.system.resources
        counts = proportions_to_counts(point.proportions, len(taskset))
        if self._queue[:2] != (taskset, resources):
            self._queue = (taskset, resources, build_priority_queue(taskset, resources))
        allocation = drain_priority_queue(taskset, counts, resources, self._queue[2])
        return DecodedPoint(z, point.proportions, triangle_ratio, allocation)

    def apply(
        self, point: DecodedPoint, td_ratios: Optional[np.ndarray] = None
    ) -> PendingEvaluation:
        """Line 23: enforce a decoded point on the system.

        TD runs on the system's own scene, unless ``td_ratios`` is the
        sorted-id row a grouped call
        (:func:`~repro.ar.distribution.distribute_triangles_grouped`)
        already chose for ``point.triangle_ratio``.
        """
        ratios = self.system.apply(point.allocation, point.triangle_ratio, td_ratios)
        return PendingEvaluation(
            point.z, point.proportions, point.triangle_ratio, point.allocation, ratios
        )

    def finish(
        self,
        pending: PendingEvaluation,
        steady_latencies: Optional[Mapping[str, float]] = None,
    ) -> IterationResult:
        """Lines 24–26: measure, price and record an applied evaluation."""
        result = self.evaluate(pending, steady_latencies)
        self.optimizer.tell(result.z, result.cost)  # Line 26
        return result

    def evaluate(
        self,
        pending: PendingEvaluation,
        steady_latencies: Optional[Mapping[str, float]] = None,
    ) -> IterationResult:
        """Lines 24–25: measure and price an applied evaluation, without
        telling the optimizer (a fleet session locked onto a stored
        configuration only measures it)."""
        measurement = self.system.measure(
            steady_latencies=steady_latencies
        )  # Line 24

        if self.latency_only:
            phi = latency_cost(measurement.epsilon, self.w)
        elif self._power_model is not None:
            from repro.device.power import energy_aware_cost

            power_w = self._power_model.system_power_w(
                *self.system.device.placement_row()
            )
            phi = energy_aware_cost(
                measurement.quality,
                measurement.epsilon,
                power_w,
                w_latency=self.w,
                w_power=self.w_power,
            )
        else:
            phi = cost_from_measurement(measurement, self.w)  # Line 25
        return IterationResult(
            z=pending.z,
            proportions=pending.proportions,
            triangle_ratio=pending.triangle_ratio,
            allocation=pending.allocation,
            object_ratios=pending.object_ratios,
            measurement=measurement,
            cost=phi,
        )
