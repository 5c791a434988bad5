"""Metrics registry: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` owns labeled metric families. Each family is
addressed by name plus a sorted label set, so
``registry.counter("store_lookups", scope="model")`` always returns the
same :class:`Counter` object. Snapshots (:meth:`MetricsRegistry.snapshot`)
are plain nested dicts with deterministically sorted keys — safe to JSON-
dump and diff across runs.

Metric names follow the repo-wide unit convention enforced by reprolint
rule RL004: any name that talks about time must carry a ``_ms``/``_s``
suffix (``device_task_latency_ms``, not ``device_task_latency``). The
registry validates this at creation time so a bad name fails fast instead
of shipping an ambiguous series.

When observability is disabled, :data:`NULL_METRICS` stands in for the
registry: its ``counter``/``gauge``/``histogram`` return shared no-op
singletons, so instrumentation sites cost a method call and no
allocation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

#: Default histogram bucket upper edges — a generic 1-2.5-5 ladder wide
#: enough for both millisecond latencies and payload byte counts.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)

#: Temporal words that require a unit suffix in metric names (mirrors the
#: RL004 vocabulary for code identifiers).
_TEMPORAL_WORDS = (
    "latency",
    "duration",
    "elapsed",
    "time",
    "delay",
    "interval",
    "period",
    "timeout",
    "deadline",
)

_UNIT_SUFFIXES = ("_ms", "_s", "_us", "_ns")


def _validate_metric_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ObservabilityError(
            f"metric name {name!r} must be non-empty snake_case "
            "(letters, digits, underscores)"
        )
    lowered = name.lower()
    if any(word in lowered for word in _TEMPORAL_WORDS):
        if not lowered.endswith(_UNIT_SUFFIXES):
            raise ObservabilityError(
                f"temporal metric name {name!r} needs a unit suffix "
                f"({'/'.join(_UNIT_SUFFIXES)}) — see RL004"
            )


def _series_key(name: str, labels: Mapping[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter increments must be >= 0, got {amount}"
            )
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with interpolated quantile summaries.

    Buckets follow Prometheus "le" semantics: a sample lands in the first
    bucket whose upper edge is >= the value; samples beyond the last edge
    go to a +inf overflow bucket. Quantiles interpolate linearly inside
    the containing bucket (the overflow bucket reports the last finite
    edge, clamped by the observed max).
    """

    __slots__ = ("edges", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, edges: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not edges or list(edges) != sorted(set(edges)):
            raise ObservabilityError(
                f"histogram edges must be non-empty, strictly increasing; "
                f"got {tuple(edges)}"
            )
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.bucket_counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """Approximate q-quantile (0 <= q <= 1) from bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.edges[i - 1] if i > 0 else 0.0
                hi = self.edges[i] if i < len(self.edges) else self.edges[-1]
                if self.min is not None:
                    lo = max(lo, self.min) if i == 0 else lo
                if self.max is not None:
                    hi = min(hi, self.max) if hi >= self.max else hi
                if hi < lo:
                    hi = lo
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self.max  # pragma: no cover - defensive; rank <= count

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                **{
                    repr(edge): self.bucket_counts[i]
                    for i, edge in enumerate(self.edges)
                },
                "+inf": self.bucket_counts[-1],
            },
        }


class MetricsRegistry:
    """Owns labeled counter/gauge/histogram families."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = _series_key(name, labels)
        found = self._counters.get(key)
        if found is None:
            _validate_metric_name(name)
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _series_key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            _validate_metric_name(name)
            found = self._gauges[key] = Gauge()
        return found

    def histogram(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = _series_key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            _validate_metric_name(name)
            found = self._histograms[key] = Histogram(edges)
        elif tuple(float(e) for e in edges) != found.edges:
            raise ObservabilityError(
                f"histogram {key!r} already registered with edges "
                f"{found.edges}; cannot re-register with {tuple(edges)}"
            )
        return found

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic plain-dict snapshot of every series."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].summary()
                for k in sorted(self._histograms)
            },
        }


class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> Optional[float]:
        return None

    def summary(self) -> Dict[str, Any]:
        return {"count": 0, "sum": 0.0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics:
    """Do-nothing registry installed when observability is disabled."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared no-op registry (see :mod:`repro.obs.runtime`).
NULL_METRICS = NullMetrics()
