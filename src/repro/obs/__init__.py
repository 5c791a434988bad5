"""Observability layer: structured tracing, metrics, and trace export.

Three pieces (see ``docs/observability.md``):

* :mod:`repro.obs.tracing` — hierarchical spans stamped in simulated
  seconds (bit-reproducible under a fixed seed), with opt-in wall-clock
  capture isolated to a single excludable field.
* :mod:`repro.obs.metrics` — labeled counters/gauges/fixed-bucket
  histograms with deterministic dict/JSON snapshots.
* :mod:`repro.obs.export` — Chrome trace-event (Perfetto-loadable) JSON
  output plus loaders and schema validation.

:mod:`repro.obs.runtime` holds the ambient (process-wide) tracer/metrics
pair that the library's profiling hooks route through; it defaults to
no-op singletons so instrumentation costs nothing unless a harness calls
:func:`~repro.obs.runtime.install` / :func:`~repro.obs.runtime.instrumented`.
"""

from repro.obs.export import (
    load_trace_json,
    trace_events,
    validate_events,
    write_metrics_json,
    write_trace_json,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
)
from repro.obs.runtime import (
    Instrumentation,
    active,
    install,
    instrumented,
    uninstall,
)
from repro.obs.tracing import (
    NullSpan,
    NullTracer,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NullMetrics",
    "NullSpan",
    "NullTracer",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "SpanRecord",
    "Tracer",
    "active",
    "install",
    "instrumented",
    "load_trace_json",
    "trace_events",
    "uninstall",
    "validate_events",
    "write_metrics_json",
    "write_trace_json",
]
