"""Unit tests for repro.models (zoo, op graphs, tasksets)."""

from collections import Counter

import pytest

from repro.device.profiles import GALAXY_S22, PIXEL7, get_profile, model_names
from repro.device.resources import ALL_RESOURCES, Processor, Resource
from repro.errors import ConfigurationError, UnknownModelError
from repro.models.ops import build_op_graph, partition_for_nnapi
from repro.models.tasks import AITask, TaskSet, build_taskset, taskset_cf1, taskset_cf2
from repro.models.zoo import ModelZoo


class TestModelZoo:
    def test_names_cover_table1_plus_mnist(self):
        zoo = ModelZoo(PIXEL7)
        assert "deeplabv3" in zoo.names()
        assert "mnist" in zoo.names()
        assert len(zoo.names()) == 9

    def test_affinity_and_expected_latency_consistent(self):
        zoo = ModelZoo(PIXEL7)
        for model in zoo.names():
            res = zoo.affinity(model)
            assert zoo.profile(model).latency(res) == zoo.expected_latency(model)

    def test_compatible_resources_excludes_na(self):
        zoo = ModelZoo(PIXEL7)
        assert not zoo.supports("deeplabv3", Resource.NNAPI)
        assert all(zoo.supports("mnist", res) for res in ALL_RESOURCES)

    def test_isolation_table_shape(self):
        table = ModelZoo(GALAXY_S22).isolation_table()
        assert set(table) == set(model_names(GALAXY_S22))
        for row in table.values():
            assert set(row) == set(ALL_RESOURCES)

    def test_unknown_device_raises(self):
        with pytest.raises(UnknownModelError):
            ModelZoo("Nokia 3310")


class TestOpGraphs:
    @pytest.mark.parametrize("model", ["mobilenet-v1", "deeplabv3", "mnist"])
    def test_coverage_matches_profile(self, model):
        profile = get_profile(GALAXY_S22, model)
        graph = build_op_graph(profile)
        assert graph.npu_coverage() == pytest.approx(profile.npu_coverage, abs=0.06)

    def test_zero_coverage_model_has_no_npu_ops(self):
        profile = get_profile(PIXEL7, "deeplabv3")  # npu_coverage = 0
        graph = build_op_graph(profile)
        assert graph.npu_flops() == 0.0

    def test_flops_normalized(self):
        graph = build_op_graph(get_profile(PIXEL7, "mobilenet-v1"))
        assert graph.total_flops() == pytest.approx(1.0)

    def test_deterministic(self):
        profile = get_profile(PIXEL7, "mobilenet-v1")
        g1, g2 = build_op_graph(profile), build_op_graph(profile)
        assert g1 == g2

    def test_partition_respects_support_flags(self):
        graph = build_op_graph(get_profile(GALAXY_S22, "inception-v1-q"))
        partition = partition_for_nnapi(graph)
        assert all(op.npu_supported for op in partition[Processor.NPU])
        assert all(not op.npu_supported for op in partition[Processor.GPU])
        total = len(partition[Processor.NPU]) + len(partition[Processor.GPU])
        assert total == len(graph.ops)

    def test_partition_count_positive(self):
        graph = build_op_graph(get_profile(GALAXY_S22, "mobilenet-v1"))
        assert graph.partition_count() >= 1


class TestTaskSets:
    def test_cf1_composition_matches_table2(self):
        cf1 = taskset_cf1(PIXEL7)
        assert len(cf1) == 6
        counts = Counter(task.model for task in cf1)
        assert counts == {
            "mnist": 1,
            "mobilenetDetv1": 1,
            "model-metadata": 2,
            "mobilenet-v1": 1,
            "efficientclass-lite0": 1,
        }

    def test_cf2_composition_matches_table2(self):
        cf2 = taskset_cf2(PIXEL7)
        assert len(cf2) == 3
        assert Counter(task.model for task in cf2) == {
            "mnist": 1,
            "mobilenetDetv1": 1,
            "efficientclass-lite0": 1,
        }

    def test_instance_naming_matches_paper(self):
        cf1 = taskset_cf1(PIXEL7)
        assert "model-metadata_1" in cf1.task_ids
        assert "model-metadata_2" in cf1.task_ids
        assert "mnist" in cf1.task_ids  # single instance keeps the name

    def test_cf1_affinity_split(self):
        """§V-B: three GPU-preferring tasks, three NNAPI-preferring."""
        cf1 = taskset_cf1(PIXEL7)
        alloc = cf1.affinity_allocation()
        gpu = [t for t, r in alloc.items() if r is Resource.GPU_DELEGATE]
        nnapi = [t for t, r in alloc.items() if r is Resource.NNAPI]
        assert len(gpu) == 3 and len(nnapi) == 3

    def test_expected_latencies_are_best_isolation(self):
        cf2 = taskset_cf2(PIXEL7)
        expected = cf2.expected_latencies()
        assert expected["mobilenetDetv1"] == pytest.approx(18.1)
        assert expected["efficientclass-lite0"] == pytest.approx(18.3)

    def test_by_id(self):
        cf2 = taskset_cf2(PIXEL7)
        assert cf2.by_id("mnist").model == "mnist"
        with pytest.raises(ConfigurationError):
            cf2.by_id("ghost")

    def test_iteration_and_indexing(self):
        cf2 = taskset_cf2(PIXEL7)
        assert [t.task_id for t in cf2] == list(cf2.task_ids)
        assert isinstance(cf2[0], AITask)

    def test_duplicate_ids_rejected(self):
        task = taskset_cf2(PIXEL7)[0]
        with pytest.raises(ConfigurationError, match="duplicate"):
            TaskSet("bad", [task, task])

    def test_build_taskset_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            build_taskset("bad", [("mnist", 0)])

    def test_build_taskset_on_s22(self):
        ts = build_taskset("s22", [("deeplabv3", 2)], device=GALAXY_S22)
        assert ts.by_id("deeplabv3_1").affinity is Resource.NNAPI
