"""Tests for the observability layer: tracer span trees, the no-op fast
path, histogram bucket semantics, snapshot determinism, Chrome-trace
export round trips, and the ``repro trace`` CLI."""

import json

import pytest

from repro.core.controller import HBOConfig
from repro.errors import ObservabilityError, ReproError
from repro.scenarios.generator import default_fleet_specs
from repro.fleet.scheduler import FleetConfig, FleetScheduler
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    active,
    install,
    instrumented,
    load_trace_json,
    trace_events,
    uninstall,
    validate_events,
    write_metrics_json,
    write_trace_json,
)
from repro.obs import runtime as obs
from repro.rng import derive_seed
from repro.sim.clock import SimClock, wall_now_ms


def tiny_fleet_config():
    return HBOConfig(n_initial=2, n_iterations=3)


def run_traced_fleet(n_sessions=3, seed=7, capture_wall=False):
    """One instrumented tiny fleet run; returns (tracer, metrics, result)."""
    config = tiny_fleet_config()
    specs = default_fleet_specs(n_sessions, config, seed=seed)
    scheduler = FleetScheduler(
        specs, seed=derive_seed(seed, "fleet"), config=FleetConfig(hbo=config)
    )
    tracer = Tracer(clock=scheduler.clock, capture_wall=capture_wall)
    metrics = MetricsRegistry()
    with instrumented(tracer, metrics):
        result = scheduler.run()
    return tracer, metrics, result


class TestNullFastPath:
    def test_disabled_by_default(self):
        assert active().tracer is NULL_TRACER
        assert active().metrics is NULL_METRICS
        assert not active().enabled

    def test_span_returns_shared_singleton(self):
        assert obs.span("a") is NULL_SPAN
        assert obs.span("b", category="x", k=1) is NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with obs.span("anything") as span:
            assert span.set(key="value") is span
        assert NULL_TRACER.spans == ()

    def test_null_metrics_shared_and_inert(self):
        c1 = obs.counter("some_counter")
        c2 = obs.counter("other_counter", label="x")
        assert c1 is c2
        c1.inc(5)
        assert c1.value == 0.0
        obs.gauge("g").set(3.0)
        h = obs.histogram("h")
        h.observe(1.0)
        assert h.quantile(0.5) is None
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_null_metrics_skip_name_validation(self):
        # The whole point of the fast path: no validation, no allocation.
        assert obs.counter("bad latency name!") is obs.counter("x")

    def test_instrumented_restores_previous(self):
        tracer = Tracer()
        with instrumented(tracer):
            assert active().tracer is tracer
            with instrumented():
                assert active().tracer is NULL_TRACER
            assert active().tracer is tracer
        assert active().tracer is NULL_TRACER

    def test_install_uninstall(self):
        tracer = Tracer()
        install(tracer)
        try:
            assert active().tracer is tracer
            assert active().metrics is NULL_METRICS
        finally:
            uninstall()
        assert active().tracer is NULL_TRACER


class TestTracer:
    def test_nesting_parents_and_depth(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root", category="test"):
            clock.advance(1.0)
            with tracer.span("child"):
                clock.advance(0.5)
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                clock.advance(0.25)
        assert [s.name for s in tracer.spans] == [
            "grandchild", "child", "sibling", "root",
        ]  # close order = post-order
        by_name = {s.name: s for s in tracer.spans}
        root, child = by_name["root"], by_name["child"]
        assert root.parent_id is None and root.depth == 0
        assert child.parent_id == root.span_id and child.depth == 1
        assert by_name["grandchild"].parent_id == child.span_id
        assert by_name["grandchild"].depth == 2
        assert by_name["sibling"].parent_id == root.span_id
        assert root.start_s == 0.0 and root.end_s == 1.75
        assert child.start_s == 1.0 and child.end_s == 1.5
        assert root.duration_s == pytest.approx(1.75)

    def test_spans_by_start_is_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.spans_by_start()] == ["a", "b", "c"]
        roots = [s.name for s in tracer.spans_by_start() if s.parent_id is None]
        assert roots == ["a", "c"]

    def test_seq_breaks_sim_time_ties(self):
        # Clock never advances: all spans share start_s == end_s == 0,
        # but seq numbers still order and contain them.
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert outer.start_s == outer.end_s == inner.start_s
        assert outer.seq_open < inner.seq_open
        assert inner.seq_close < outer.seq_close

    def test_set_attaches_args(self):
        tracer = Tracer()
        with tracer.span("s", k=1) as span:
            span.set(found=3)
        assert dict(tracer.spans[0].args) == {"found": 3, "k": 1}

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(ObservabilityError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_empty_name_raises(self):
        with pytest.raises(ObservabilityError, match="non-empty"):
            Tracer().span("")

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert tracer.spans[0].name == "failing"
        assert tracer.depth == 0

    def test_wall_capture_isolated_to_wall_ms(self):
        clock = SimClock()
        tracer = Tracer(clock=clock, capture_wall=True)
        with tracer.span("timed"):
            clock.advance(1.0)
        record = tracer.spans[0]
        assert record.wall_ms is not None and record.wall_ms >= 0.0
        assert "wall_ms" not in record.to_dict(include_wall=False)
        assert "wall_ms" in record.to_dict(include_wall=True)

    def test_no_wall_capture_by_default(self):
        tracer = Tracer()
        with tracer.span("untimed"):
            pass
        assert tracer.spans[0].wall_ms is None

    def test_wall_shim_is_monotonic_nonneg(self):
        a = wall_now_ms()
        b = wall_now_ms()
        assert b >= a >= 0.0


class TestHistogram:
    def test_value_on_edge_lands_in_that_bucket(self):
        h = Histogram(edges=(1.0, 2.0, 5.0))
        h.observe(1.0)  # le-semantics: exactly 1.0 -> first bucket
        h.observe(2.0)
        h.observe(5.0)
        assert h.bucket_counts == [1, 1, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram(edges=(1.0, 2.0))
        h.observe(100.0)
        assert h.bucket_counts == [0, 0, 1]
        assert h.count == 1 and h.sum == 100.0

    def test_below_first_edge(self):
        h = Histogram(edges=(10.0, 20.0))
        h.observe(0.5)
        assert h.bucket_counts == [1, 0, 0]

    def test_min_max_sum_count(self):
        h = Histogram(edges=(10.0, 20.0, 50.0))
        for v in (5.0, 15.0, 45.0):
            h.observe(v)
        assert (h.min, h.max, h.count) == (5.0, 45.0, 3)
        assert h.sum == pytest.approx(65.0)

    def test_quantiles_interpolate_within_buckets(self):
        h = Histogram(edges=(10.0, 20.0))
        for _ in range(100):
            h.observe(15.0)
        # All mass in (10, 20]: every quantile must land inside it.
        for q in (0.5, 0.95, 0.99):
            assert 10.0 <= h.quantile(q) <= 20.0

    def test_quantile_empty_is_none(self):
        assert Histogram().quantile(0.5) is None

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ObservabilityError, match="quantile"):
            Histogram().quantile(1.5)

    def test_bad_edges_raise(self):
        with pytest.raises(ObservabilityError, match="edges"):
            Histogram(edges=())
        with pytest.raises(ObservabilityError, match="edges"):
            Histogram(edges=(5.0, 1.0))
        with pytest.raises(ObservabilityError, match="edges"):
            Histogram(edges=(1.0, 1.0, 2.0))

    def test_summary_keys(self):
        h = Histogram(edges=(1.0,))
        h.observe(0.5)
        summary = h.summary()
        assert set(summary) == {
            "count", "sum", "min", "max", "p50", "p95", "p99", "buckets",
        }
        assert summary["buckets"] == {"1.0": 1, "+inf": 0}


class TestMetricsRegistry:
    def test_counter_identity_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", scope="x")
        b = registry.counter("hits", scope="x")
        c = registry.counter("hits", scope="y")
        assert a is b and a is not c
        a.inc()
        a.inc(2.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"hits{scope=x}": 3.0, "hits{scope=y}": 0.0}

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError, match=">= 0"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(5.0)
        g.inc(2.0)
        assert g.value == pytest.approx(7.0)

    def test_temporal_name_requires_unit_suffix(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="RL004"):
            registry.counter("task_latency")
        with pytest.raises(ObservabilityError, match="RL004"):
            registry.histogram("render_time")
        registry.counter("task_latency_ms")  # suffixed: fine
        registry.histogram("render_time_s")

    def test_malformed_name_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "with space", "dash-name", "brace{name}"):
            with pytest.raises(ObservabilityError, match="snake_case"):
                registry.counter(bad)

    def test_histogram_edge_reregistration_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("payload_bytes", edges=(1.0, 2.0))
        registry.histogram("payload_bytes", edges=(1.0, 2.0))  # same: fine
        with pytest.raises(ObservabilityError, match="re-register"):
            registry.histogram("payload_bytes", edges=(1.0, 3.0))

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        assert list(registry.snapshot()["counters"]) == ["aa", "zz"]

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            MetricsRegistry().counter("bad name")


class TestTraceExport:
    def test_round_trip_and_strict_json(self, tmp_path):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", category="test", n=1):
            clock.advance(2.0)
            with tracer.span("inner"):
                clock.advance(0.5)
        path = str(tmp_path / "trace.json")
        events = write_trace_json(tracer, path)
        validate_events(events)
        # One event per line AND a strict JSON array.
        lines = open(path).read().splitlines()
        assert lines[0] == "[" and lines[-1] == "]"
        assert len(lines) == len(events) + 2
        assert json.load(open(path)) == events
        assert load_trace_json(path) == events

    def test_load_tolerates_trace_events_wrapper_and_jsonl(self, tmp_path):
        event = {"name": "e", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0}
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"traceEvents": [event]}))
        assert load_trace_json(str(wrapped)) == [event]
        jsonl = tmp_path / "events.jsonl"
        jsonl.write_text(json.dumps(event) + "\n" + json.dumps(event) + "\n")
        assert load_trace_json(str(jsonl)) == [event, event]

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all {{{")
        with pytest.raises(ObservabilityError):
            load_trace_json(str(bad))
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        with pytest.raises(ObservabilityError, match="trace-event array"):
            load_trace_json(str(scalar))

    def test_validate_rejects_malformed_events(self):
        with pytest.raises(ObservabilityError, match="missing required"):
            validate_events([{"name": "x", "ph": "X"}])
        with pytest.raises(ObservabilityError, match="phase"):
            validate_events(
                [{"name": "x", "ph": "B", "ts": 0, "dur": 0, "pid": 0, "tid": 0}]
            )
        with pytest.raises(ObservabilityError, match="integer"):
            validate_events(
                [{"name": "x", "ph": "X", "ts": 0.5, "dur": 0, "pid": 0, "tid": 0}]
            )

    def test_tick_tie_break_preserves_containment(self):
        tracer = Tracer()  # clock never advances: all sim times equal
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        events = {e["name"]: e for e in trace_events(tracer)}
        outer, inner = events["outer"], events["inner"]
        assert outer["ts"] < inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_include_wall_false_strips_wall_fields(self, tmp_path):
        clock = SimClock()
        tracer = Tracer(clock=clock, capture_wall=True)
        with tracer.span("timed"):
            clock.advance(1.0)
        stripped = trace_events(tracer, include_wall=False)
        assert all("wall_ms" not in e["args"] for e in stripped)
        kept = trace_events(tracer, include_wall=True)
        assert any("wall_ms" in e["args"] for e in kept)

    def test_sim_bounds_ride_in_args(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        clock.advance(3.0)
        with tracer.span("s"):
            clock.advance(2.0)
        (event,) = trace_events(tracer)
        assert event["args"]["sim_start_s"] == 3.0
        assert event["args"]["sim_end_s"] == 5.0
        assert event["ts"] == 3_000_000  # µs + seq 0

    def test_write_metrics_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("events").inc(4)
        path = str(tmp_path / "metrics.json")
        snapshot = write_metrics_json(registry, path)
        assert json.load(open(path)) == snapshot


class TestInstrumentedRuns:
    def test_traced_fleet_bit_reproducible(self):
        tracer_a, metrics_a, _ = run_traced_fleet(seed=11)
        tracer_b, metrics_b, _ = run_traced_fleet(seed=11)
        assert [s.to_dict() for s in tracer_a.spans] == [
            s.to_dict() for s in tracer_b.spans
        ]
        assert metrics_a.snapshot() == metrics_b.snapshot()
        assert trace_events(tracer_a) == trace_events(tracer_b)

    def test_wall_capture_does_not_change_sim_spans(self):
        tracer_a, _, _ = run_traced_fleet(seed=11, capture_wall=False)
        tracer_b, _, _ = run_traced_fleet(seed=11, capture_wall=True)
        assert [s.to_dict(include_wall=False) for s in tracer_a.spans] == [
            s.to_dict(include_wall=False) for s in tracer_b.spans
        ]
        assert trace_events(tracer_a, include_wall=False) == trace_events(
            tracer_b, include_wall=False
        )

    def test_fleet_probes_fire(self):
        tracer, metrics, result = run_traced_fleet()
        names = {s.name for s in tracer.spans}
        assert "fleet.tick" in names
        assert "fleet.batched_gp" in names
        assert "device.measure_period" in names
        snap = metrics.snapshot()
        assert snap["counters"]["fleet_ticks"] == result.ticks
        assert snap["counters"]["fleet_gp_batches"] > 0
        assert snap["histograms"]["device_task_latency_ms"]["count"] > 0

    def test_uninstrumented_run_records_nothing(self):
        config = tiny_fleet_config()
        specs = default_fleet_specs(2, config, seed=3)
        scheduler = FleetScheduler(
            specs, seed=derive_seed(3, "fleet"), config=FleetConfig(hbo=config)
        )
        scheduler.run()
        assert NULL_TRACER.spans == ()
        assert NULL_METRICS.snapshot()["counters"] == {}

    def test_fleet_export_embeds_metrics_snapshot(self):
        from repro.fleet.export import fleet_result_to_dict

        tracer, metrics, result = run_traced_fleet()
        exported = fleet_result_to_dict(result, metrics=metrics)
        assert exported["metrics"] == metrics.snapshot()
        assert "metrics" not in fleet_result_to_dict(result)

    def test_fleet_tick_span_covers_tick_duration(self):
        tracer, _, result = run_traced_fleet()
        ticks = [s for s in tracer.spans if s.name == "fleet.tick"]
        assert len(ticks) == result.ticks
        assert all(s.duration_s == pytest.approx(result.tick_s) for s in ticks)


class TestTraceCLI:
    def test_trace_command_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "trace.json")
        metrics_out = str(tmp_path / "metrics.json")
        code = main([
            "trace", "--fleet", "2", "--initial", "2", "--iterations", "2",
            "--seed", "5", "--out", out, "--metrics", metrics_out,
        ])
        assert code == 0
        events = load_trace_json(out)
        validate_events(events)
        assert events
        snapshot = json.load(open(metrics_out))
        assert snapshot["counters"]["fleet_ticks"] > 0
        captured = capsys.readouterr().out
        assert "spans" in captured

    def test_trace_command_deterministic(self, tmp_path):
        from repro.cli import main

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert main([
                "trace", "--scenario", "SC2", "--taskset", "CF2",
                "--seed", "9", "--initial", "2", "--iterations", "2",
                "--duration", "20", "--out", str(out),
            ]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_trace_command_leaves_runtime_disabled(self, tmp_path):
        from repro.cli import main

        main([
            "trace", "--fleet", "2", "--initial", "2", "--iterations", "2",
            "--out", str(tmp_path / "t.json"),
        ])
        assert active().tracer is NULL_TRACER
