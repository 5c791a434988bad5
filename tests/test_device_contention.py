"""Unit tests for repro.device.contention — the Fig. 2 mechanics."""

import pytest

from repro.device.contention import ContentionModel
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.profiles import GALAXY_S22, PIXEL7, get_profile
from repro.device.resources import Processor, Resource
from repro.device.soc import galaxy_s22_soc, pixel7_soc
from repro.errors import DeviceError, IncompatibleDelegateError


def _place(device, model, task_id, resource):
    return TaskPlacement(
        task_id=task_id, profile=get_profile(device, model), resource=resource
    )


@pytest.fixture
def model():
    return ContentionModel(galaxy_s22_soc())


class TestSystemLoad:
    def test_defaults(self):
        load = SystemLoad()
        assert load.rendered_triangles == 0
        assert load.submitted_triangles == 0
        assert load.base_gpu_streams == 0

    def test_submitted_defaults_to_rendered(self):
        load = SystemLoad(rendered_triangles=100.0, n_objects=2)
        assert load.submitted_triangles == 100.0

    def test_submitted_below_rendered_rejected(self):
        with pytest.raises(DeviceError):
            SystemLoad(rendered_triangles=100.0, submitted_triangles=50.0)

    def test_negative_values_rejected(self):
        with pytest.raises(DeviceError):
            SystemLoad(rendered_triangles=-1)
        with pytest.raises(DeviceError):
            SystemLoad(n_objects=-1)
        with pytest.raises(DeviceError):
            SystemLoad(base_gpu_streams=-0.1)


class TestTaskPlacement:
    def test_incompatible_delegate_rejected(self):
        with pytest.raises(IncompatibleDelegateError):
            _place(PIXEL7, "deeplabv3", "t", Resource.NNAPI)  # NA in Table I


class TestIsolationFidelity:
    """In isolation the contention model must return Table I exactly."""

    @pytest.mark.parametrize(
        "device,model_name",
        [(GALAXY_S22, "deeplabv3"), (GALAXY_S22, "mnist"), (PIXEL7, "mobilenet-v1")],
    )
    def test_isolation_latency_matches_profile(self, device, model_name):
        soc = galaxy_s22_soc() if device == GALAXY_S22 else pixel7_soc()
        contention = ContentionModel(soc)
        profile = get_profile(device, model_name)
        for resource in Resource:
            if not profile.supports(resource):
                continue
            placement = TaskPlacement("t", profile, resource)
            latencies = contention.latencies([placement], SystemLoad())
            assert latencies["t"] == pytest.approx(profile.latency(resource))


class TestColocation:
    def test_cpu_colocation_slows_heavy_models(self, model):
        one = [_place(GALAXY_S22, "deeplabv3", "a", Resource.CPU)]
        two = one + [_place(GALAXY_S22, "deeplabv3", "b", Resource.CPU)]
        lat_one = model.latencies(one, SystemLoad())["a"]
        lat_two = model.latencies(two, SystemLoad())["a"]
        assert lat_two > lat_one

    def test_nnapi_pileup_grows_latency(self, model):
        placements = []
        previous = 0.0
        for i in range(5):
            placements.append(
                _place(GALAXY_S22, "deeplabv3", f"t{i}", Resource.NNAPI)
            )
            latency = model.latencies(placements, SystemLoad())["t0"]
            assert latency >= previous - 1e-9
            previous = latency
        assert previous > model.latencies(placements[:1], SystemLoad())["t0"]

    def test_tasks_on_disjoint_processors_do_not_interact(self, model):
        cpu_only = [_place(GALAXY_S22, "deeplabv3", "c", Resource.CPU)]
        with_gpu = cpu_only + [
            _place(GALAXY_S22, "deconv-munet", "g", Resource.GPU_DELEGATE)
        ]
        # One light GPU task below capacity leaves the CPU task untouched.
        assert model.latencies(with_gpu, SystemLoad())["c"] == pytest.approx(
            model.latencies(cpu_only, SystemLoad())["c"]
        )


class TestRenderingInterference:
    """The paper's central observation: triangles hurt AI latency."""

    def test_triangles_hurt_all_nnapi_tasks(self, model):
        placements = [
            _place(GALAXY_S22, "deeplabv3", f"t{i}", Resource.NNAPI) for i in range(3)
        ]
        quiet = model.latencies(placements, SystemLoad())
        busy = model.latencies(
            placements,
            SystemLoad(rendered_triangles=600_000, n_objects=8,
                       submitted_triangles=1_200_000),
        )
        for tid in quiet:
            assert busy[tid] > quiet[tid] * 1.3

    def test_cpu_tasks_shielded_from_gpu_rendering(self, model):
        """Rendering hits CPU only via driving cost, far less than GPU."""
        nnapi = [_place(GALAXY_S22, "deeplabv3", "n", Resource.NNAPI)]
        cpu = [_place(GALAXY_S22, "deeplabv3", "c", Resource.CPU)]
        load = SystemLoad(
            rendered_triangles=600_000, n_objects=8, submitted_triangles=1_200_000
        )
        nnapi_inflation = (
            model.latencies(nnapi, load)["n"] / model.latencies(nnapi, SystemLoad())["n"]
        )
        cpu_inflation = (
            model.latencies(cpu, load)["c"] / model.latencies(cpu, SystemLoad())["c"]
        )
        assert nnapi_inflation > cpu_inflation

    def test_more_triangles_monotonically_worse_for_gpu_tasks(self, model):
        placements = [_place(GALAXY_S22, "deconv-munet", "g", Resource.GPU_DELEGATE)]
        latencies = [
            model.latencies(
                placements, SystemLoad(rendered_triangles=t, n_objects=4,
                                       submitted_triangles=2 * t)
            )["g"]
            for t in (0, 200_000, 400_000, 800_000)
        ]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))
        assert latencies[-1] > latencies[0]

    def test_fig2b_relocation_under_load_helps_everyone(self, model):
        """Under heavy rendering, moving one NNAPI task to the CPU improves
        both the moved task and the ones left behind (Fig. 2b, t≈200 s)."""
        load = SystemLoad(
            rendered_triangles=700_000, n_objects=8, submitted_triangles=1_400_000
        )
        all_nnapi = [
            _place(GALAXY_S22, "deeplabv3", f"t{i}", Resource.NNAPI) for i in range(5)
        ]
        moved = all_nnapi[:4] + [_place(GALAXY_S22, "deeplabv3", "t4", Resource.CPU)]
        before = model.latencies(all_nnapi, load)
        after = model.latencies(moved, load)
        assert after["t4"] < before["t4"]  # the moved task improves
        assert after["t0"] < before["t0"]  # the remaining tasks improve too


class TestCommunicationOverhead:
    def test_comm_multiplier_grows_with_gpu_slowdown(self, model):
        assert model.nnapi_comm_multiplier(1.0) == pytest.approx(1.0)
        assert model.nnapi_comm_multiplier(3.0) > model.nnapi_comm_multiplier(2.0)


class TestValidation:
    def test_duplicate_task_ids_rejected(self, model):
        placements = [
            _place(GALAXY_S22, "mnist", "same", Resource.CPU),
            _place(GALAXY_S22, "mnist", "same", Resource.NNAPI),
        ]
        with pytest.raises(DeviceError, match="duplicate"):
            model.latencies(placements, SystemLoad())

    def test_empty_placement_set(self, model):
        assert model.latencies([], SystemLoad()) == {}

    def test_processor_state_reports_all_processors(self, model):
        placements = [_place(GALAXY_S22, "deeplabv3", "t", Resource.NNAPI)]
        state = model.processor_state(placements, SystemLoad(n_objects=3))
        assert set(state.streams) == set(Processor)
        assert set(state.slowdown) == set(Processor)
        assert state.streams[Processor.NPU] > 0  # NNAPI puts work on NPU
        assert state.streams[Processor.GPU] > 0  # fallback ops + draw calls
