"""The simulated device: a taskset running on a SoC under a render load.

:class:`DeviceSimulator` is the stand-in for the paper's real phones. It
holds the current per-task allocation and the AR load, and produces noisy
latency measurements the way the on-device profiler would:
:meth:`~DeviceSimulator.measure_period` averages one control period of
per-inference measurements, each the contention model's steady-state
value under lognormal multiplicative noise.

Optionally a :class:`~repro.device.thermal.ThermalModel` inflates
latencies as sustained load heats the SoC (an extension beyond the paper,
off by default).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.backend.plan import PlacementRow
from repro.device.contention import ContentionModel
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.profiles import StaticProfile
from repro.device.resources import Processor, Resource
from repro.device.soc import SoCSpec
from repro.device.thermal import ThermalModel
from repro.edge.runtime import EdgeRuntime
from repro.edge.share import EdgeShare, edge_demand
from repro.errors import DeviceError, IncompatibleDelegateError
from repro.obs import runtime as obs
from repro.rng import SeedLike, make_rng


class DeviceSimulator:
    """Simulates a phone running a set of AI tasks plus AR rendering.

    Parameters
    ----------
    soc:
        The SoC description (e.g. :func:`~repro.device.soc.pixel7_soc`).
    noise_sigma:
        Standard deviation of the multiplicative lognormal measurement
        noise. Real on-device latencies jitter by a few percent.
    thermal:
        Optional thermal-throttling model.
    seed:
        Seed/generator for the noise stream.
    edge:
        Optional :class:`~repro.edge.runtime.EdgeRuntime` enabling the
        ``EDGE`` allocation choice: tasks placed on it are priced over
        the wireless link and the shared edge server instead of the SoC.
    """

    def __init__(
        self,
        soc: SoCSpec,
        noise_sigma: float = 0.04,
        thermal: Optional[ThermalModel] = None,
        seed: SeedLike = None,
        edge: Optional[EdgeRuntime] = None,
    ) -> None:
        if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
            raise DeviceError(
                f"noise_sigma must be finite and >= 0, got {noise_sigma}"
            )
        self.soc = soc
        self.contention = ContentionModel(soc)
        self.noise_sigma = float(noise_sigma)
        self.thermal = thermal
        self.edge = edge
        self._rng = make_rng(seed)
        self._tasks: Dict[str, StaticProfile] = {}
        self._allocation: Dict[str, Resource] = {}
        self._load = SystemLoad()

    # -------------------------------------------------------------- taskset

    @property
    def task_ids(self) -> Tuple[str, ...]:
        return tuple(self._tasks)

    @property
    def load(self) -> SystemLoad:
        return self._load

    def add_task(
        self, task_id: str, profile: StaticProfile, resource: Optional[Resource] = None
    ) -> None:
        """Register a task instance; defaults to its best isolation resource."""
        if task_id in self._tasks:
            raise DeviceError(f"task id {task_id!r} already registered")
        if resource is None:
            resource, _ = profile.best_resource()
        if not profile.supports(resource):
            raise IncompatibleDelegateError(profile.model, str(resource))
        self._tasks[task_id] = profile
        self._allocation[task_id] = resource
        self._sync_edge_demand()

    def profile_of(self, task_id: str) -> StaticProfile:
        if task_id not in self._tasks:
            raise DeviceError(f"unknown task id {task_id!r}")
        return self._tasks[task_id]

    # ----------------------------------------------------------- allocation

    @property
    def allocation(self) -> Dict[str, Resource]:
        """Current task → resource map (copy)."""
        return dict(self._allocation)

    def set_allocation(self, task_id: str, resource: Resource) -> None:
        """Move one task to another allocation choice (live reallocation)."""
        if task_id not in self._tasks:
            raise DeviceError(f"unknown task id {task_id!r}")
        profile = self._tasks[task_id]
        if not profile.supports(resource):
            raise IncompatibleDelegateError(profile.model, str(resource))
        if resource is Resource.EDGE and self.edge is None:
            raise DeviceError(
                f"cannot place {task_id!r} on EDGE: no edge runtime attached"
            )
        self._allocation[task_id] = resource
        self._sync_edge_demand()

    def apply_allocation(self, allocation: Mapping[str, Resource]) -> None:
        """Apply a full allocation map; unknown/missing ids are an error."""
        missing = set(self._tasks) - set(allocation)
        extra = set(allocation) - set(self._tasks)
        if missing or extra:
            raise DeviceError(
                f"allocation map mismatch: missing={sorted(missing)}, "
                f"unknown={sorted(extra)}"
            )
        for task_id, resource in allocation.items():
            self.set_allocation(task_id, resource)

    def set_load(self, load: SystemLoad) -> None:
        """Update the AR-side load (triangles drawn, object count)."""
        self._load = load

    # ----------------------------------------------------------- measurement

    def placements(self) -> List[TaskPlacement]:
        return [
            TaskPlacement(task_id=tid, profile=self._tasks[tid], resource=res)
            for tid, res in self._allocation.items()
        ]

    def placement_row(self) -> PlacementRow:
        """This device's live ``(soc, placements, load, edge_share)`` row,
        as :func:`~repro.backend.solve.price_placement_rows` prices it."""
        return (self.soc, self.placements(), self._load, self.edge_share())

    def edge_share(self) -> Optional[EdgeShare]:
        """The current edge pricing snapshot, or ``None`` when the edge
        subsystem is off for this device."""
        if self.edge is None:
            return None
        return self.edge.share()

    def _sync_edge_demand(self) -> None:
        """Publish this device's offloaded stream demand to the shared
        edge server (no-op without an edge runtime)."""
        if self.edge is None:
            return
        streams = 0.0
        for tid, res in self._allocation.items():
            if res is Resource.EDGE:
                streams += edge_demand(self._tasks[tid])
        self.edge.set_demand_streams(streams)

    def steady_state_latencies(self) -> Dict[str, float]:
        """Noise-free latencies under the current placement and load."""
        latencies = self.contention.latencies(
            self.placements(), self._load, self.edge_share()
        )
        if self.thermal is not None:
            # Throttling scales the SoC's clocks, so it only touches tasks
            # that actually run on the SoC: an EDGE-offloaded task's latency
            # is link + server time and is unaffected by phone temperature.
            factor = self.thermal.throttle_factor()
            latencies = {
                tid: (
                    lat
                    if self._allocation[tid] is Resource.EDGE
                    else lat * factor
                )
                for tid, lat in latencies.items()
            }
        return latencies

    def measure_period(
        self,
        n_samples: int = 20,
        steady_latencies: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Average measured latency per task over a control period.

        ``steady_latencies`` lets a batched caller (the fleet tick, a
        baseline's grid scan) inject the unthrottled steady-state
        latencies it already computed through one backend solve,
        skipping the recomputation here. It is accepted for thermal
        devices too: placement, load and edge share are constant within
        a period, so only the throttle factor moves between samples.
        """
        if n_samples < 1:
            raise DeviceError(f"n_samples must be >= 1, got {n_samples}")
        with obs.span(
            "device.measure_period",
            category="device",
            n_tasks=len(self._tasks),
            n_samples=n_samples,
        ):
            # One steady state (or a precomputed batch row) and one
            # (sample, task) noise matrix for the whole period. The draw
            # order matches sampling one inference at a time, so the RNG
            # stream — and every downstream number — is bit-identical to
            # a per-sample loop.
            steady = (
                dict(steady_latencies)
                if steady_latencies is not None
                else self.contention.latencies(
                    self.placements(), self._load, self.edge_share()
                )
            )
            if set(steady) != set(self._tasks):
                raise DeviceError(
                    "steady_latencies task ids do not match the taskset: "
                    f"{sorted(set(steady) ^ set(self._tasks))}"
                )
            ids = list(self._tasks)
            lat = np.array([steady[tid] for tid in ids], dtype=np.float64)
            rows = np.broadcast_to(lat, (n_samples, len(ids)))
            if self.thermal is not None:
                # Each sample reads the throttle factor, then heats the SoC
                # one step. Throttling scales the SoC's clocks, so EDGE
                # columns (link + server time) stay unscaled.
                busy = self._busy_fraction()
                factors = np.empty((n_samples, 1), dtype=np.float64)
                for k in range(n_samples):
                    factors[k] = self.thermal.throttle_factor()
                    self.thermal.step(busy)
                on_soc = np.array(
                    [self._allocation[tid] is not Resource.EDGE for tid in ids]
                )
                rows = rows * np.where(on_soc, factors, 1.0)
            if self.noise_sigma > 0:
                noise = self._rng.normal(
                    0.0, self.noise_sigma, size=(n_samples, len(ids))
                )
                rows = rows * np.exp(noise)
            # Sequential accumulation (not a pairwise np.sum) to match the
            # per-sample loop's addition order bit-for-bit.
            totals = np.zeros(len(ids), dtype=np.float64)
            for row in range(n_samples):
                totals = totals + rows[row]
            means = {
                tid: float(totals[j] / n_samples) for j, tid in enumerate(ids)
            }
        obs.counter("device_measurements").inc()
        latency_hist = obs.histogram("device_task_latency_ms")
        for mean_ms in means.values():
            latency_hist.observe(mean_ms)
        if self.edge is not None:
            # Record offload metrics against the period's pre-advance link
            # state, then advance the drift trace: every evaluation inside
            # a period — scalar or batched — saw the same snapshot.
            offloaded = [
                self._tasks[tid]
                for tid, res in self._allocation.items()
                if res is Resource.EDGE
            ]
            self.edge.record_period(offloaded)
            self.edge.advance_period()
        return means

    # ------------------------------------------------------------- internals

    def _busy_fraction(self) -> float:
        """Rough overall utilization in [0, 1], drives the thermal model."""
        state = self.contention.processor_state(self.placements(), self._load)
        ratios = []
        for proc, streams in state.streams.items():
            if proc is Processor.GPU:
                streams = streams + state.render_gpu_streams
            ratios.append(min(1.0, streams / self.soc.capacity[proc]))
        return float(np.mean(ratios)) if ratios else 0.0
