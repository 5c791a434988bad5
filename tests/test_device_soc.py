"""Unit tests for repro.device.soc and repro.device.resources."""

import pytest

from repro.device.resources import (
    ALL_RESOURCES,
    Processor,
    Resource,
    resource_from_name,
)
from repro.device.soc import RenderCostModel, SoCSpec, galaxy_s22_soc, pixel7_soc
from repro.errors import ConfigurationError, DeviceError


class TestResources:
    def test_canonical_ordering(self):
        assert ALL_RESOURCES == (
            Resource.CPU,
            Resource.GPU_DELEGATE,
            Resource.NNAPI,
        )

    def test_short_codes_match_fig2_annotations(self):
        assert Resource.CPU.short == "C"
        assert Resource.GPU_DELEGATE.short == "G"
        assert Resource.NNAPI.short == "N"

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("cpu", Resource.CPU),
            ("CPU", Resource.CPU),
            ("g", Resource.GPU_DELEGATE),
            ("gpu_delegate", Resource.GPU_DELEGATE),
            ("NNAPI", Resource.NNAPI),
            (" n ", Resource.NNAPI),
        ],
    )
    def test_resource_from_name(self, name, expected):
        assert resource_from_name(name) is expected

    def test_unknown_name_raises(self):
        with pytest.raises(DeviceError):
            resource_from_name("tpu")


class TestRenderCostModel:
    def test_gpu_channels_split(self):
        model = RenderCostModel(
            gpu_triangles_per_stream=100_000, gpu_objects_per_stream=10
        )
        assert model.gpu_triangle_streams(250_000) == pytest.approx(2.5)
        assert model.gpu_object_streams(5) == pytest.approx(0.5)
        total = model.gpu_triangle_streams(250_000) + model.gpu_object_streams(5)
        assert total == pytest.approx(3.0)

    def test_cpu_streams(self):
        model = RenderCostModel(
            cpu_objects_per_stream=10, cpu_triangles_per_stream=1_000_000
        )
        assert model.cpu_streams(5, 500_000) == pytest.approx(1.0)

    def test_negative_inputs_raise(self):
        model = RenderCostModel()
        with pytest.raises(ConfigurationError):
            model.gpu_triangle_streams(-1)
        with pytest.raises(ConfigurationError):
            model.gpu_object_streams(-1)
        with pytest.raises(ConfigurationError):
            model.cpu_streams(-1, 0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            RenderCostModel(gpu_triangles_per_stream=0)


class TestSoCSpec:
    def test_slowdown_identity_below_capacity(self):
        soc = pixel7_soc()
        for proc in Processor:
            assert soc.slowdown(proc, 0.0) == 1.0
            assert soc.slowdown(proc, soc.capacity[proc]) == 1.0

    def test_slowdown_superlinear_above_capacity(self):
        soc = pixel7_soc()
        cap = soc.capacity[Processor.CPU]
        s2 = soc.slowdown(Processor.CPU, 2 * cap)
        s4 = soc.slowdown(Processor.CPU, 4 * cap)
        assert s2 > 1.0
        assert s4 >= 2 * s2 * 0.99  # at least ~linear growth

    def test_slowdown_negative_raises(self):
        with pytest.raises(ConfigurationError):
            pixel7_soc().slowdown(Processor.GPU, -0.1)

    def test_render_penalty_monotone_and_clamped(self):
        soc = pixel7_soc()
        values = [soc.render_penalty(s) for s in (0.0, 0.5, 1.0, 2.0, 10.0)]
        assert values[0] == 1.0
        assert all(b >= a for a, b in zip(values, values[1:]))
        # Clamp: beyond saturation the penalty stops growing.
        assert soc.render_penalty(100.0) == soc.render_penalty(1000.0)
        assert soc.render_penalty(100.0) == pytest.approx(
            1.0 / (1.0 - soc.gpu_render_rho_max)
        )

    def test_render_penalty_negative_raises(self):
        with pytest.raises(ConfigurationError):
            pixel7_soc().render_penalty(-1.0)

    def test_missing_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="missing capacity"):
            SoCSpec(name="bad", capacity={Processor.CPU: 1.0})

    def test_sub_one_queue_exponent_rejected(self):
        with pytest.raises(ConfigurationError, match="queue_exponent"):
            SoCSpec(
                name="bad",
                queue_exponent={
                    Processor.CPU: 0.9,
                    Processor.GPU: 1.0,
                    Processor.NPU: 1.0,
                },
            )

    def test_factories_produce_distinct_devices(self):
        pixel, s22 = pixel7_soc(), galaxy_s22_soc()
        assert pixel.name != s22.name
        assert pixel.capacity != s22.capacity
