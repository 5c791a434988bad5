"""Property-based parity suite: scalar reference path vs batched backend.

The vectorized solver (:mod:`repro.backend.solve`) claims two contracts:

- **exact mode** reproduces the scalar reference path — per-processor
  slowdowns, per-task latencies, Eq. 4 ε, Eq. 2 quality and Eq. 5 φ —
  *bit for bit*, including row independence under padding;
- **fast mode** stays within 1e-9 relative of the scalar path.

These tests hammer both over random placements, render loads, triangle
budgets and degradation parameters on both Table I device profiles.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.plan import EvalPlan, resource_kind, soc_fields
from repro.backend.solve import solve
from repro.core.cost import cost, normalized_average_latency
from repro.device.contention import ContentionModel
from repro.device.load import SystemLoad, TaskPlacement
from repro.device.profiles import GALAXY_S22, PIXEL7, get_profile
from repro.device.resources import ALL_RESOURCES, EDGE_RESOURCES, Processor
from repro.device.soc import galaxy_s22_soc, pixel7_soc
from repro.edge.runtime import EdgeConfig, extend_profile
from repro.edge.share import EdgeShare
from repro.errors import DeviceError

_SOC_OF = {PIXEL7: pixel7_soc, GALAXY_S22: galaxy_s22_soc}
_MODELS = (
    "deconv-munet",
    "deeplabv3",
    "efficientdet-lite",
    "mobilenetDetv1",
    "efficientclass-lite0",
    "inception-v1-q",
    "mobilenet-v1",
    "model-metadata",
    "mnist",
)

devices = st.sampled_from([PIXEL7, GALAXY_S22])
task_specs = st.lists(
    st.tuples(st.sampled_from(_MODELS), st.integers(0, 5)),
    min_size=1,
    max_size=6,
)
loads = st.builds(
    SystemLoad,
    rendered_triangles=st.floats(min_value=0.0, max_value=1.5e6),
    n_objects=st.integers(0, 12),
    submitted_triangles=st.none(),
    base_gpu_streams=st.floats(min_value=0.0, max_value=2.0),
)


edge_shares = st.builds(
    EdgeShare,
    capacity_streams=st.floats(min_value=0.5, max_value=12.0),
    queue_exponent=st.floats(min_value=1.0, max_value=2.0),
    extern_streams=st.floats(min_value=0.0, max_value=20.0),
    rtt_ms=st.floats(min_value=0.0, max_value=80.0),
    bytes_per_ms=st.floats(min_value=100.0, max_value=50_000.0),
    speedup=st.floats(min_value=0.5, max_value=20.0),
)


def _placements(device, specs, edge=False):
    """Resolve (model, choice) specs to valid placements on ``device``.

    With ``edge=True`` profiles are extended with the EDGE row and the
    choice index runs over the 4-resource tuple.
    """
    out = []
    resources = EDGE_RESOURCES if edge else ALL_RESOURCES
    for i, (model, choice) in enumerate(specs):
        profile = get_profile(device, model)
        if edge:
            profile = extend_profile(profile, EdgeConfig())
        supported = [r for r in resources if profile.supports(r)]
        out.append(
            TaskPlacement(f"t{i}", profile, supported[choice % len(supported)])
        )
    return out


def _scalar_reference(model, placements, load):
    """The scalar path, composed method by method (never the backend)."""
    state = model.processor_state(placements, load)
    latencies = {
        p.task_id: model.task_latency(p, state) for p in placements
    }
    return state, latencies


class TestLatencyParity:
    @given(device=devices, specs=task_specs, load=loads)
    @settings(max_examples=150, deadline=None)
    def test_exact_mode_is_bitwise(self, device, specs, load):
        """solve(exact=True) == scalar path to the last bit: slowdowns
        and every per-task latency."""
        soc = _SOC_OF[device]()
        model = ContentionModel(soc)
        placements = _placements(device, specs)
        state, scalar_lat = _scalar_reference(model, placements, load)

        plan = EvalPlan.from_placement_rows([(soc, placements, load, None)])
        result = solve(plan, exact=True)

        assert result.slowdown[0, 0] == state.slowdown[Processor.CPU]
        assert result.slowdown[0, 1] == state.slowdown[Processor.GPU]
        assert result.slowdown[0, 2] == state.slowdown[Processor.NPU]
        batched = plan.latency_map(result.latency_ms, 0)
        assert set(batched) == set(scalar_lat)
        for task_id in scalar_lat:
            assert batched[task_id] == scalar_lat[task_id]

    @given(device=devices, specs=task_specs, load=loads)
    @settings(max_examples=150, deadline=None)
    def test_fast_mode_within_1e9(self, device, specs, load):
        """Fast mode (SIMD pow) stays within 1e-9 relative of scalar."""
        soc = _SOC_OF[device]()
        model = ContentionModel(soc)
        placements = _placements(device, specs)
        state, scalar_lat = _scalar_reference(model, placements, load)

        plan = EvalPlan.from_placement_rows([(soc, placements, load, None)])
        result = solve(plan)

        expected_slow = [
            state.slowdown[Processor.CPU],
            state.slowdown[Processor.GPU],
            state.slowdown[Processor.NPU],
        ]
        np.testing.assert_allclose(result.slowdown[0], expected_slow, rtol=1e-9)
        batched = plan.latency_map(result.latency_ms, 0)
        for task_id, ms in scalar_lat.items():
            np.testing.assert_allclose(batched[task_id], ms, rtol=1e-9)

    @given(
        device=devices,
        rows=st.lists(st.tuples(task_specs, loads), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_independence_under_padding(self, device, rows):
        """A row's bits don't depend on its batch-mates: heterogeneous
        task counts are padded, and padding must be inert."""
        soc = _SOC_OF[device]()
        built = [
            (soc, _placements(device, specs), load, None) for specs, load in rows
        ]
        batched_plan = EvalPlan.from_placement_rows(built)
        batched = solve(batched_plan, exact=True)
        for i, row in enumerate(built):
            single_plan = EvalPlan.from_placement_rows([row])
            single = solve(single_plan, exact=True)
            assert np.array_equal(batched.slowdown[i], single.slowdown[0])
            m = len(row[1])
            assert np.array_equal(
                batched.latency_ms[i, :m], single.latency_ms[0, :m]
            )
            assert np.all(batched.latency_ms[i, m:] == 0.0)


class TestEdgeParity:
    """Edge rows price bit-identically through the batched solver."""

    @given(device=devices, specs=task_specs, load=loads, share=edge_shares)
    @settings(max_examples=150, deadline=None)
    def test_edge_rows_exact_mode_is_bitwise(self, device, specs, load, share):
        """A row carrying EDGE placements + an EdgeShare matches the
        scalar contention path bit for bit in exact mode."""
        soc = _SOC_OF[device]()
        model = ContentionModel(soc)
        placements = _placements(device, specs, edge=True)
        state = model.processor_state(placements, load, share)
        scalar_lat = {
            p.task_id: model.task_latency(p, state, share) for p in placements
        }

        plan = EvalPlan.from_placement_rows([(soc, placements, load, share)])
        result = solve(plan, exact=True)

        assert result.edge_slowdown is not None
        assert result.edge_slowdown[0] == state.edge_slowdown
        batched = plan.latency_map(result.latency_ms, 0)
        assert set(batched) == set(scalar_lat)
        for task_id in scalar_lat:
            assert batched[task_id] == scalar_lat[task_id]

    @given(
        device=devices,
        rows=st.lists(
            st.tuples(task_specs, loads, st.booleans()), min_size=2, max_size=5
        ),
        share=edge_shares,
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_edge_and_device_rows_are_independent(
        self, device, rows, share
    ):
        """Edge rows and shareless device-only rows coexist in one batch
        without perturbing each other's bits."""
        soc = _SOC_OF[device]()
        built = [
            (
                soc,
                _placements(device, specs, edge=has_edge),
                load,
                share if has_edge else None,
            )
            for specs, load, has_edge in rows
        ]
        batched_plan = EvalPlan.from_placement_rows(built)
        batched = solve(batched_plan, exact=True)
        for i, row in enumerate(built):
            single_plan = EvalPlan.from_placement_rows([row])
            single = solve(single_plan, exact=True)
            assert np.array_equal(batched.slowdown[i], single.slowdown[0])
            m = len(row[1])
            assert np.array_equal(
                batched.latency_ms[i, :m], single.latency_ms[0, :m]
            )

    @given(device=devices, specs=task_specs, load=loads)
    @settings(max_examples=60, deadline=None)
    def test_shareless_rows_carry_no_edge_block(self, device, specs, load):
        """A row with ``edge_share=None`` builds a plan with no edge block
        at all, prices bit-identically to the scalar path, and a row
        without the share element is rejected."""
        soc = _SOC_OF[device]()
        placements = _placements(device, specs)
        plan = EvalPlan.from_placement_rows([(soc, placements, load, None)])
        assert plan.task_edge_tx_ms is None
        assert plan.edge_capacity is None
        result = solve(plan, exact=True)
        assert result.edge_slowdown is None
        _, scalar_lat = _scalar_reference(ContentionModel(soc), placements, load)
        assert plan.latency_map(result.latency_ms, 0) == scalar_lat
        with pytest.raises(DeviceError, match="4 elements"):
            EvalPlan.from_placement_rows([(soc, placements, load)])


degradation_objects = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),  # a
        st.floats(min_value=-4.0, max_value=0.0),  # b
        st.floats(min_value=0.0, max_value=3.0),  # c
        st.floats(min_value=0.0, max_value=2.0),  # d
        st.floats(min_value=0.05, max_value=1.0),  # ratio
        st.floats(min_value=0.1, max_value=10.0),  # distance
    ),
    min_size=0,
    max_size=6,
)


class TestCostParity:
    @given(
        device=devices,
        specs=task_specs,
        load=loads,
        objects=degradation_objects,
        expected_scale=st.floats(min_value=0.5, max_value=2.0),
        w=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_epsilon_quality_phi_match_scalar(
        self, device, specs, load, objects, expected_scale, w
    ):
        """ε (Eq. 4), Q (Eq. 2) and φ (Eq. 5) from one batched solve match
        their scalar definitions — bitwise in exact mode."""
        soc = _SOC_OF[device]()
        model = ContentionModel(soc)
        placements = _placements(device, specs)
        _, scalar_lat = _scalar_reference(model, placements, load)
        m = len(placements)

        expected_ms = {
            p.task_id: expected_scale * p.profile.latency(p.resource)
            for p in placements
        }
        scalar_eps = normalized_average_latency(scalar_lat, expected_ms)

        # Scalar Eq. 1/2: per-object error, sequentially averaged (the
        # same accumulation order the backend commits to).
        scalar_q = 1.0
        if objects:
            total = 0.0
            for a, b, c, d, ratio, distance in objects:
                numerator = a * ratio**2 + b * ratio + c
                error = float(np.clip(numerator / distance**d, 0.0, 1.0))
                total += 1.0 - error
            scalar_q = total / len(objects)
        scalar_phi = cost(scalar_q, scalar_eps, w)

        l = len(objects)  # noqa: E741 — Eq. 2's object count
        quality_block = dict(
            obj_ratio=np.array([[o[4] for o in objects]]).reshape(1, l),
            obj_a=np.array([[o[0] for o in objects]]).reshape(1, l),
            obj_b=np.array([[o[1] for o in objects]]).reshape(1, l),
            obj_c=np.array([[o[2] for o in objects]]).reshape(1, l),
            obj_denom=np.array([[o[5] ** o[3] for o in objects]]).reshape(1, l),
        )
        plan = EvalPlan(
            task_iso_ms=np.array(
                [[p.profile.latency(p.resource) for p in placements]]
            ),
            task_kind=np.array([[resource_kind(p.resource) for p in placements]]),
            task_cpu_demand=np.array(
                [[p.profile.cpu_demand for p in placements]]
            ),
            task_gpu_demand=np.array(
                [[p.profile.gpu_demand for p in placements]]
            ),
            task_npu_coverage=np.array(
                [[p.profile.npu_coverage for p in placements]]
            ),
            n_objects=np.array([float(load.n_objects)]),
            submitted_triangles=np.array([load.submitted_triangles]),
            rendered_triangles=np.array([load.rendered_triangles]),
            base_gpu_streams=np.array([load.base_gpu_streams]),
            task_expected_ms=np.array(
                [[expected_ms[p.task_id] for p in placements]]
            ),
            w=float(w),
            **quality_block,
            **soc_fields([soc]),
        )
        assert plan.n_task_slots == m

        result = solve(plan, exact=True)
        assert result.epsilon is not None
        assert result.quality is not None
        assert result.phi is not None
        assert result.epsilon[0] == scalar_eps
        assert result.quality[0] == scalar_q
        assert result.phi[0] == scalar_phi

        fast = solve(plan)
        np.testing.assert_allclose(fast.epsilon[0], scalar_eps, rtol=1e-9)
        np.testing.assert_allclose(fast.quality[0], scalar_q, rtol=1e-9)
        np.testing.assert_allclose(
            fast.phi[0], scalar_phi, rtol=1e-9, atol=1e-9
        )


wide_task_specs = st.lists(
    st.tuples(st.sampled_from(_MODELS), st.integers(0, 5)),
    min_size=8,
    max_size=16,
)


class TestWideTaskSetParity:
    """8–16 task slots: past the 8-term point where NumPy's pairwise
    reductions would regroup a sum, the running sums stay sequential."""

    @given(
        device=devices,
        rows=st.lists(
            st.tuples(wide_task_specs, loads, st.booleans()),
            min_size=2,
            max_size=4,
        ),
        share=edge_shares,
        expected_scale=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_mode_is_bitwise_with_edge_padding_and_epsilon(
        self, device, rows, share, expected_scale
    ):
        """Padded edge and device-only rows in one exact batch: every
        slowdown, per-task latency and ε equals the scalar path's bits."""
        soc = _SOC_OF[device]()
        model = ContentionModel(soc)
        built = [
            (
                soc,
                _placements(device, specs, edge=has_edge),
                load,
                share if has_edge else None,
            )
            for specs, load, has_edge in rows
        ]
        plan = EvalPlan.from_placement_rows(built)
        m = plan.n_task_slots
        expected = np.ones((len(built), m))
        for i, (_, placements, _, _) in enumerate(built):
            for j, p in enumerate(placements):
                expected[i, j] = expected_scale * p.profile.latency(p.resource)
        plan = dataclasses.replace(plan, task_expected_ms=expected)
        result = solve(plan, exact=True)
        assert result.epsilon is not None

        for i, (_, placements, load, row_share) in enumerate(built):
            state = model.processor_state(placements, load, row_share)
            scalar_lat = {
                p.task_id: model.task_latency(p, state, row_share)
                for p in placements
            }
            assert result.slowdown[i, 0] == state.slowdown[Processor.CPU]
            assert result.slowdown[i, 1] == state.slowdown[Processor.GPU]
            assert result.slowdown[i, 2] == state.slowdown[Processor.NPU]
            if row_share is not None:
                assert result.edge_slowdown is not None
                assert result.edge_slowdown[i] == state.edge_slowdown
            batched = plan.latency_map(result.latency_ms, i)
            assert batched == scalar_lat
            assert np.all(result.latency_ms[i, len(placements):] == 0.0)
            scalar_eps = normalized_average_latency(
                scalar_lat,
                {
                    p.task_id: float(expected[i, j])
                    for j, p in enumerate(placements)
                },
            )
            assert result.epsilon[i] == scalar_eps
