"""Structured tracing keyed on the simulation clock.

A :class:`Tracer` records hierarchical :class:`SpanRecord` trees over the
deterministic :class:`~repro.sim.clock.SimClock`: span open/close times
are *simulated* seconds, so two runs from the same seed produce
bit-identical traces. Because many spans open and close within one
control period (the clock only advances between periods), every span
also carries a monotonic sequence number pair that totally orders the
tree; the Chrome-trace exporter (:mod:`repro.obs.export`) uses it to
break sim-time ties so nesting renders correctly in Perfetto.

Wall-clock capture is *opt-in and isolated*: with ``capture_wall=True``
each span additionally records its host-clock duration (via the
sanctioned :func:`repro.sim.clock.wall_now_ms` shim — the only RL001
escape hatch), stored in a single ``wall_ms`` field that every exporter
can exclude. Reproducibility assertions must always exclude it.

When tracing is off, the module-level :data:`NULL_TRACER` /
:data:`NULL_SPAN` singletons make every instrumentation site a no-op:
``NULL_TRACER.span(...)`` returns the same prebuilt object with empty
``__enter__``/``__exit__``, so the hot paths pay a few function calls
and zero allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import TracebackType
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Type

from repro.errors import ObservabilityError
from repro.units import Ms, Seconds

if TYPE_CHECKING:  # pragma: no cover - avoids a repro.sim import cycle
    from repro.sim.clock import SimClock


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: a named interval of simulated time.

    ``seq_open``/``seq_close`` come from a tracer-wide counter bumped at
    every span boundary; they totally order the span tree even when
    ``start_s == end_s`` (common — the sim clock advances only between
    control periods). ``wall_ms`` is the host-clock duration when the
    tracer captured it, ``None`` otherwise; it is the *only*
    non-deterministic field.
    """

    span_id: int
    parent_id: Optional[int]
    depth: int
    name: str
    category: str
    start_s: Seconds
    end_s: Seconds
    seq_open: int
    seq_close: int
    args: Tuple[Tuple[str, Any], ...] = ()
    wall_ms: Optional[Ms] = None

    @property
    def duration_s(self) -> Seconds:
        return self.end_s - self.start_s

    def to_dict(self, include_wall: bool = True) -> Dict[str, Any]:
        """Plain-JSON form; ``include_wall=False`` drops the only
        non-reproducible field (for determinism comparisons)."""
        data: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "seq_open": self.seq_open,
            "seq_close": self.seq_close,
            "args": dict(self.args),
        }
        if include_wall and self.wall_ms is not None:
            data["wall_ms"] = self.wall_ms
        return data


class Span:
    """An *open* span: a context manager handed out by :meth:`Tracer.span`.

    Extra context discovered mid-span attaches with :meth:`set`; the
    record is appended to the tracer on ``__exit__`` (in close order, so
    the span list is a post-order traversal of the tree).
    """

    __slots__ = (
        "_tracer",
        "span_id",
        "parent_id",
        "depth",
        "name",
        "category",
        "start_s",
        "seq_open",
        "_args",
        "_wall_start_ms",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        name: str,
        category: str,
        start_s: Seconds,
        seq_open: int,
        args: Dict[str, Any],
        wall_start_ms: Optional[Ms],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.name = name
        self.category = category
        self.start_s = start_s
        self.seq_open = seq_open
        self._args = args
        self._wall_start_ms = wall_start_ms

    def set(self, **args: Any) -> "Span":
        """Attach key/value context to the span while it is open."""
        self._args.update(args)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self._tracer._close(self)
        return False


class NullSpan:
    """The do-nothing span: a shared singleton for disabled tracing."""

    __slots__ = ()

    def set(self, **args: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: Shared no-op span; every disabled instrumentation site gets this object.
NULL_SPAN = NullSpan()


class NullTracer:
    """The do-nothing tracer installed when observability is disabled."""

    __slots__ = ()

    enabled = False
    capture_wall = False
    #: Always empty: a NullTracer never records anything.
    spans: Tuple[SpanRecord, ...] = ()

    def span(self, name: str, category: str = "", **args: Any) -> NullSpan:
        return NULL_SPAN


#: Shared no-op tracer (see :mod:`repro.obs.runtime`).
NULL_TRACER = NullTracer()


class Tracer:
    """Records a deterministic span tree over a simulation clock.

    Parameters
    ----------
    clock:
        The :class:`~repro.sim.clock.SimClock` whose ``now_s`` stamps
        span boundaries. Defaults to a fresh clock at 0 s; point it at
        the engine's or fleet scheduler's clock to get meaningful times
        (assign :attr:`clock` after constructing the run if needed).
    capture_wall:
        Also record each span's host-clock duration (``wall_ms``). Off
        by default because wall times are not reproducible; exporters
        can exclude them even when captured.
    """

    enabled = True

    def __init__(
        self, clock: Optional["SimClock"] = None, capture_wall: bool = False
    ) -> None:
        if clock is None:
            from repro.sim.clock import SimClock

            clock = SimClock()
        self.clock = clock
        self.capture_wall = bool(capture_wall)
        #: Closed spans, in close order (post-order over the span tree).
        self.spans: List[SpanRecord] = []
        self._stack: List[Span] = []
        self._seq = 0
        if capture_wall:
            from repro.sim.clock import wall_now_ms

            self._wall_now_ms = wall_now_ms
        else:
            self._wall_now_ms = None

    # ----------------------------------------------------------------- API

    @property
    def depth(self) -> int:
        """Number of currently-open spans."""
        return len(self._stack)

    def span(self, name: str, category: str = "", **args: Any) -> Span:
        """Open a child span of the innermost open span (context manager)."""
        if not name:
            raise ObservabilityError("span name must be non-empty")
        parent = self._stack[-1] if self._stack else None
        span = Span(
            tracer=self,
            span_id=self._seq,  # ids share the seq counter: unique + ordered
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            name=name,
            category=category,
            start_s=self.clock.now_s,
            seq_open=self._seq,
            args=dict(args),
            wall_start_ms=(
                self._wall_now_ms() if self._wall_now_ms is not None else None
            ),
        )
        self._seq += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order; close the innermost "
                "open span first (use `with tracer.span(...)` blocks)"
            )
        self._stack.pop()
        wall_ms: Optional[Ms] = None
        if span._wall_start_ms is not None and self._wall_now_ms is not None:
            wall_ms = self._wall_now_ms() - span._wall_start_ms
        self.spans.append(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                depth=span.depth,
                name=span.name,
                category=span.category,
                start_s=span.start_s,
                end_s=self.clock.now_s,
                seq_open=span.seq_open,
                seq_close=self._seq,
                args=tuple(sorted(span._args.items())),
                wall_ms=wall_ms,
            )
        )
        self._seq += 1

    # ----------------------------------------------------------- inspection

    def spans_by_start(self) -> List[SpanRecord]:
        """Closed spans in open order (pre-order over the span tree)."""
        return sorted(self.spans, key=lambda s: s.seq_open)
