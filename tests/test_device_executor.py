"""Unit tests for repro.device.executor and repro.device.thermal."""

import numpy as np
import pytest

from repro.backend.solve import price_placement_rows
from repro.device.load import SystemLoad
from repro.device.executor import DeviceSimulator
from repro.device.profiles import GALAXY_S22, get_profile
from repro.device.resources import Resource
from repro.device.soc import galaxy_s22_soc
from repro.device.thermal import ThermalModel, ThermalSpec
from repro.edge import EdgeConfig, build_edge_runtime, extend_profile
from repro.errors import ConfigurationError, DeviceError, IncompatibleDelegateError
from repro.rng import make_rng


@pytest.fixture
def sim():
    return DeviceSimulator(galaxy_s22_soc(), noise_sigma=0.0, seed=0)


@pytest.fixture
def deeplab():
    return get_profile(GALAXY_S22, "deeplabv3")


class TestTaskManagement:
    def test_add_defaults_to_affinity(self, sim, deeplab):
        sim.add_task("t", deeplab)
        assert sim.allocation["t"] is Resource.NNAPI  # deeplab's S22 affinity

    def test_add_duplicate_id_rejected(self, sim, deeplab):
        sim.add_task("t", deeplab)
        with pytest.raises(DeviceError, match="already registered"):
            sim.add_task("t", deeplab)

    def test_incompatible_add_rejected(self, sim):
        profile = get_profile(GALAXY_S22, "efficientdet-lite")  # no NNAPI
        with pytest.raises(IncompatibleDelegateError):
            sim.add_task("t", profile, Resource.NNAPI)


class TestAllocation:
    def test_set_allocation_moves_task(self, sim, deeplab):
        sim.add_task("t", deeplab, Resource.NNAPI)
        sim.set_allocation("t", Resource.CPU)
        assert sim.allocation["t"] is Resource.CPU

    def test_apply_allocation_full_map_required(self, sim, deeplab):
        sim.add_task("a", deeplab)
        sim.add_task("b", deeplab)
        with pytest.raises(DeviceError, match="mismatch"):
            sim.apply_allocation({"a": Resource.CPU})
        with pytest.raises(DeviceError, match="mismatch"):
            sim.apply_allocation(
                {"a": Resource.CPU, "b": Resource.CPU, "ghost": Resource.CPU}
            )
        sim.apply_allocation({"a": Resource.CPU, "b": Resource.NNAPI})
        assert sim.allocation == {"a": Resource.CPU, "b": Resource.NNAPI}

    def test_allocation_returns_copy(self, sim, deeplab):
        sim.add_task("t", deeplab)
        snapshot = sim.allocation
        snapshot["t"] = Resource.CPU
        assert sim.allocation["t"] is Resource.NNAPI


class TestMeasurement:
    def test_noiseless_samples_equal_steady_state(self, sim, deeplab):
        sim.add_task("t", deeplab)
        steady = sim.steady_state_latencies()["t"]
        assert sim.measure_period(n_samples=1) == {"t": steady}
        assert sim.measure_period(n_samples=20)["t"] == pytest.approx(steady)

    def test_noise_is_multiplicative_and_centered(self, deeplab):
        sim = DeviceSimulator(galaxy_s22_soc(), noise_sigma=0.05, seed=42)
        sim.add_task("t", deeplab)
        steady = sim.steady_state_latencies()["t"]
        measured = sim.measure_period(n_samples=400)["t"]
        assert measured == pytest.approx(steady, rel=0.02)

    def test_measure_period_validates_samples(self, sim, deeplab):
        sim.add_task("t", deeplab)
        with pytest.raises(DeviceError):
            sim.measure_period(n_samples=0)

    def test_load_changes_measured_latency(self, sim, deeplab):
        sim.add_task("t", deeplab, Resource.NNAPI)
        quiet = sim.steady_state_latencies()["t"]
        sim.set_load(
            SystemLoad(rendered_triangles=700_000, n_objects=8,
                       submitted_triangles=1_400_000)
        )
        assert sim.steady_state_latencies()["t"] > quiet

    def test_isolation_latency_lookup(self, sim, deeplab):
        sim.add_task("t", deeplab)
        (placement,) = sim.placements()
        assert placement.profile.latency(Resource.NNAPI) == pytest.approx(27.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(DeviceError):
            DeviceSimulator(galaxy_s22_soc(), noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma):
        with pytest.raises(DeviceError, match="finite"):
            DeviceSimulator(galaxy_s22_soc(), noise_sigma=sigma)

    def test_seeded_noise_reproducible(self, deeplab):
        def run():
            sim = DeviceSimulator(galaxy_s22_soc(), noise_sigma=0.05, seed=9)
            sim.add_task("t", deeplab)
            return sim.measure_period(5)["t"]

        assert run() == run()


class TestThermal:
    def test_temperature_rises_under_load(self):
        thermal = ThermalModel()
        start = thermal.temperature_c
        for _ in range(100):
            thermal.step(1.0)
        assert thermal.temperature_c > start
        assert thermal.temperature_c <= thermal.ambient_c + thermal.max_heat_c + 1e-6

    def test_throttle_kicks_in_above_threshold(self):
        thermal = ThermalModel(throttle_start_c=45.0, throttle_slope=0.02)
        assert thermal.throttle_factor() == 1.0
        thermal.temperature_c = 50.0
        assert thermal.throttle_factor() == pytest.approx(1.1)

    def test_invalid_utilization_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalModel().step(1.5)

    def test_thermal_inflates_simulator_latencies(self, deeplab):
        thermal = ThermalModel(
            ambient_c=44.0, max_heat_c=30.0, time_constant_steps=2.0,
            throttle_start_c=45.0, throttle_slope=0.05,
        )
        sim = DeviceSimulator(
            galaxy_s22_soc(), noise_sigma=0.0, thermal=thermal, seed=0
        )
        sim.add_task("t", deeplab)
        cold = sim.steady_state_latencies()["t"]
        period = sim.measure_period(n_samples=50)["t"]  # heats the SoC
        hot = sim.steady_state_latencies()["t"]
        assert cold < period < hot

    def test_invalid_thermal_params(self):
        with pytest.raises(ConfigurationError):
            ThermalModel(time_constant_steps=0)
        with pytest.raises(ConfigurationError):
            ThermalModel(throttle_slope=-0.1)

    @pytest.mark.parametrize(
        "field",
        ["ambient_c", "max_heat_c", "time_constant_steps",
         "throttle_start_c", "throttle_slope"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_thermal_params(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ThermalModel(**{field: value})
        with pytest.raises(ConfigurationError, match="finite"):
            ThermalSpec(**{field: value})


#: Parameters that cross the throttle threshold within a few samples.
HOT = dict(
    ambient_c=44.0, max_heat_c=30.0, time_constant_steps=2.0,
    throttle_start_c=45.0, throttle_slope=0.05,
)


def _thermal_device(noise_sigma, seed=5, edge=True):
    """A hot S22 with an NNAPI task, a GPU task and (optionally) one
    EDGE-offloaded task."""
    sim = DeviceSimulator(
        galaxy_s22_soc(),
        noise_sigma=noise_sigma,
        thermal=ThermalModel(**HOT),
        seed=seed,
        edge=build_edge_runtime(session_id="hot", seed=4) if edge else None,
    )
    sim.add_task("nn", get_profile(GALAXY_S22, "deeplabv3"), Resource.NNAPI)
    sim.add_task(
        "gpu", get_profile(GALAXY_S22, "mobilenet-v1"), Resource.GPU_DELEGATE
    )
    if edge:
        profile = extend_profile(
            get_profile(GALAXY_S22, "mobilenet-v1"), EdgeConfig()
        )
        sim.add_task("off", profile, Resource.EDGE)
    return sim


def _per_sample_period(sim, rng, n_samples):
    """One period the per-sample way: take the throttled steady state,
    step the thermal model, draw one scalar normal per task, multiply,
    and add in order."""
    sums = dict.fromkeys(sim.task_ids, 0.0)
    for _ in range(n_samples):
        steady = sim.steady_state_latencies()
        sim.thermal.step(sim._busy_fraction())
        for tid, lat in steady.items():
            if sim.noise_sigma > 0:
                lat = lat * float(np.exp(rng.normal(0.0, sim.noise_sigma)))
            sums[tid] += lat
    return {tid: total / n_samples for tid, total in sums.items()}


class TestThermalPeriod:
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    def test_matches_per_sample_reference_bitwise(self, noise_sigma):
        sim = _thermal_device(noise_sigma)
        twin = _thermal_device(noise_sigma)
        rng = make_rng(5)
        for n_samples in (7, 20, 1):
            got = sim.measure_period(n_samples=n_samples)
            want = _per_sample_period(twin, rng, n_samples)
            twin.edge.advance_period()  # what measure_period does after
            assert got == want
            assert sim.thermal.temperature_c == twin.thermal.temperature_c
        assert sim.allocation["off"] is Resource.EDGE
        assert sim.thermal.throttle_factor() > 1.0  # throttling was live

    def test_edge_task_is_not_throttled(self):
        sim = _thermal_device(0.0)
        sim.thermal.temperature_c = 60.0
        factor = sim.thermal.throttle_factor()
        unthrottled = sim.contention.latencies(
            sim.placements(), sim.load, sim.edge_share()
        )
        means = sim.measure_period(n_samples=1)
        assert factor > 1.0
        assert means["off"] == unthrottled["off"]
        assert means["nn"] == unthrottled["nn"] * factor

    @pytest.mark.parametrize(
        "noise_sigma,edge",
        [(0.0, False), (0.05, False), (0.0, True), (0.05, True)],
        ids=["0.0", "0.05", "edge-0.0", "edge-0.05"],
    )
    def test_injected_steady_row_matches_local_solve(self, noise_sigma, edge):
        """The device's own placement row, priced in a batch call, is the
        steady state its local measurement computes; with an EDGE task
        the row carries the period's edge share."""
        injected = _thermal_device(noise_sigma, edge=edge)
        local = _thermal_device(noise_sigma, edge=edge)
        for _ in range(3):
            row = price_placement_rows([injected.placement_row()])[0]
            assert injected.measure_period(steady_latencies=row) == (
                local.measure_period()
            )
            assert (
                injected.thermal.temperature_c == local.thermal.temperature_c
            )
