"""IDDE-Trace core: tracers, spans, counters and the bounded event log.

This module is the dependency-free heart of the observability layer
(stdlib only — it sits at the very bottom of the import DAG, below
``core/``, so the game and the greedy may hold a tracer without layering
violations; the SINR engine in ``radio/`` holds none).

Two tracers implement one protocol:

* :class:`Tracer` — the **no-op** tracer.  Every hook is a constant-time
  no-op and the shared :data:`NULL_TRACER` singleton is the default
  everywhere, so instrumented hot paths cost one attribute load and a
  branch when tracing is off (the overhead is gated by the IDDE-Bench
  baseline comparison; see docs/OBSERVABILITY.md).  Hot loops should guard
  payload construction with ``if tracer.enabled:``.
* :class:`RecordingTracer` — records nested :meth:`~Tracer.span` regions
  (monotonic-clock durations, injectable clock exactly like
  :mod:`repro.bench.timer`), typed counters/gauges/histograms, and a
  bounded structured event log.  Once ``max_events`` events are held the
  log keeps its (deterministic) prefix and counts the overflow in
  ``dropped_events`` rather than growing without bound.

Serialisation to the ``idde-trace/1`` JSONL document lives in
:mod:`repro.obs.document`; the tracer itself is purely in-memory.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import TraceError

__all__ = [
    "Tracer",
    "RecordingTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "ensure_tracer",
    "SpanRecord",
    "EventRecord",
    "HistogramSummary",
]


class _NullSpan:
    """The do-nothing span handle returned by the no-op tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Attribute updates are discarded."""


NULL_SPAN = _NullSpan()


class Tracer:
    """The no-op tracer: the shared default for every instrumented path.

    All hooks return immediately; ``enabled`` is ``False`` so hot loops can
    skip building event payloads entirely.  Subclass and set ``enabled``
    to record (see :class:`RecordingTracer`).
    """

    #: Hot-loop guard: build event payloads only when this is True.
    enabled: bool = False

    def span(self, name: str, **attrs: Any) -> "_NullSpan | ActiveSpan":
        """A context manager timing a named region (no-op here)."""
        return NULL_SPAN

    def event(self, etype: str, **fields: Any) -> None:
        """Append one structured event to the bounded log (no-op here)."""

    def count(self, name: str, n: int = 1) -> None:
        """Increment a monotonic counter (no-op here)."""

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge (no-op here)."""

    def observe(self, name: str, value: float) -> None:
        """Feed one sample into a histogram summary (no-op here)."""


#: The shared no-op tracer every ``tracer=None`` default resolves to.
NULL_TRACER = Tracer()


def ensure_tracer(tracer: Tracer | None) -> Tracer:
    """Normalise an optional tracer argument to a usable tracer."""
    return NULL_TRACER if tracer is None else tracer


@dataclass
class SpanRecord:
    """One (possibly still open) span: a named, attributed, timed region.

    Times are offsets in seconds from the owning tracer's birth on its
    monotonic clock — never wall-clock, so documents stay deterministic
    under a fake clock and never leak timestamps into decisions.
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    end_s: float | None = None

    @property
    def duration_s(self) -> float | None:
        """Span duration, or ``None`` while the span is still open."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s


@dataclass(frozen=True)
class EventRecord:
    """One structured event, attributed to the span open at emission."""

    seq: int
    span_id: int | None
    t_s: float
    etype: str
    fields: dict[str, Any]


@dataclass
class HistogramSummary:
    """Constant-memory summary of observed samples (no raw retention)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float | int]:
        """JSON-ready representation (schema in :mod:`repro.obs.document`)."""
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
        return {"count": self.count, "total": self.total, "min": self.min, "max": self.max}


class ActiveSpan:
    """Live handle for one recording span (context manager)."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "RecordingTracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attrs: Any) -> None:
        """Merge attributes into the span (e.g. results known at exit)."""
        with self._tracer._lock:
            self.record.attrs.update(attrs)

    def __enter__(self) -> "ActiveSpan":
        with self._tracer._lock:
            self._tracer._stack.append(self.record.span_id)
        return self

    def __exit__(self, exc_type: type | None, exc: object, tb: object) -> bool:
        tracer = self._tracer
        with tracer._lock:
            stack = tracer._stack
            if not stack or stack[-1] != self.record.span_id:
                raise TraceError(
                    f"span {self.record.name!r} (id {self.record.span_id}) closed "
                    "out of nesting order"
                )
            stack.pop()
            self.record.end_s = tracer._now()
            if exc_type is not None:
                self.record.attrs.setdefault("error", exc_type.__name__)
        return False


class RecordingTracer(Tracer):
    """A tracer that records spans, metrics and a bounded event log.

    Thread/task-safe: every mutation happens under an internal lock, and
    :meth:`metrics_snapshot` / :meth:`records_snapshot` hand concurrent
    readers self-consistent copies — the IDDE-Serve daemon serves
    ``/v1/metrics`` and ``/v1/trace`` from the event loop while the
    solver thread records (see docs/SERVING.md).  Span *nesting* remains
    single-threaded by design: spans from two threads would interleave one
    stack, so only the serialized solver loop opens spans.

    Parameters
    ----------
    max_events:
        Capacity of the structured event log.  The log keeps the *first*
        ``max_events`` events (a deterministic prefix) and counts the rest
        in :attr:`dropped_events` — sequence numbers keep counting, so a
        loaded document always reveals how much was dropped.
    clock:
        Injectable monotonic clock (the :mod:`repro.bench.timer` pattern);
        defaults to :func:`time.perf_counter`.  A backwards step raises
        :class:`~repro.errors.TraceError` rather than recording a negative
        offset.
    """

    enabled = True

    def __init__(
        self,
        *,
        max_events: int = 10_000,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_events < 0:
            raise TraceError(f"max_events must be >= 0, got {max_events}")
        self.max_events = max_events
        self._clock = clock
        self._epoch = clock()
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.dropped_events = 0
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramSummary] = {}
        self._stack: list[int] = []
        self._seq = 0
        # Every mutation (span open/close, event append, metric update)
        # happens under this lock so a concurrent reader — the IDDE-Serve
        # /v1/metrics and /v1/trace endpoints polling mid-solve — can
        # never observe a torn event log or a half-applied counter.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def _now(self) -> float:
        t = self._clock() - self._epoch
        if t < 0:
            raise TraceError(
                f"clock went backwards ({t + self._epoch} < {self._epoch}); "
                "tracing requires a monotonic clock"
            )
        return t

    @property
    def current_span_id(self) -> int | None:
        """Id of the innermost open span, or ``None`` at the root."""
        return self._stack[-1] if self._stack else None

    def open_spans(self) -> int:
        """Number of spans entered but not yet exited."""
        return len(self._stack)

    # ------------------------------------------------------------------
    # recording hooks
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> ActiveSpan:
        with self._lock:
            record = SpanRecord(
                span_id=len(self.spans),
                parent_id=self.current_span_id,
                name=str(name),
                start_s=self._now(),
                attrs=dict(attrs),
            )
            self.spans.append(record)
        return ActiveSpan(self, record)

    def event(self, etype: str, **fields: Any) -> None:
        with self._lock:
            seq = self._seq
            self._seq += 1
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
                return
            self.events.append(
                EventRecord(
                    seq=seq,
                    span_id=self.current_span_id,
                    t_s=self._now(),
                    etype=str(etype),
                    fields=fields,
                )
            )

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = HistogramSummary()
            hist.observe(value)

    # ------------------------------------------------------------------
    # consistent snapshots for concurrent readers
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """A self-consistent copy of every metric, safe to read mid-solve.

        The IDDE-Serve ``/v1/metrics`` endpoint calls this from the event
        loop while the solver thread mutates the tracer; the lock
        guarantees the returned counters/gauges/histograms all belong to
        one instant.
        """
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: h.to_dict() for name, h in self.histograms.items()
                },
                "spans": len(self.spans),
                "open_spans": len(self._stack),
                "events": len(self.events),
                "dropped_events": self.dropped_events,
            }

    def records_snapshot(self) -> tuple[list[SpanRecord], list[EventRecord], int]:
        """Consistent shallow copies of the span/event logs.

        Serialisation (:func:`repro.obs.document.trace_records`) iterates
        these instead of the live lists so a concurrent solve can never
        resize them mid-iteration.  Span records are re-materialised with
        copied ``attrs`` dicts — a later :meth:`ActiveSpan.set` on a
        still-open span mutates only the live record, never the snapshot.
        """
        with self._lock:
            spans = [
                SpanRecord(
                    span_id=s.span_id,
                    parent_id=s.parent_id,
                    name=s.name,
                    start_s=s.start_s,
                    attrs=dict(s.attrs),
                    end_s=s.end_s,
                )
                for s in self.spans
            ]
            return spans, list(self.events), self.dropped_events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecordingTracer(spans={len(self.spans)}, events={len(self.events)}"
            f"+{self.dropped_events} dropped, counters={len(self.counters)})"
        )
