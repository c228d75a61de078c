"""Spans, the tracer null object, the recorder and the JSONL sink.

A :class:`Span` is one timed operation of a distributed trace — named,
positioned by a :class:`~repro.tracing.context.TraceContext`, stamped
with the process/thread that ran it, and carrying free-form attributes
(the place existing telemetry counters are re-emitted).  Spans follow
the library-wide observability contract established by
:mod:`repro.telemetry` and :mod:`repro.probe`:

* **zero overhead when disabled** — the default tracer is
  :data:`NULL_TRACER`, a shared null object whose ``span`` context
  manager is a reusable singleton and whose every other hook is a
  no-op, so untraced runs are byte-for-byte identical and pay a few
  attribute lookups per *run*, never per branch;
* **durations are monotonic** — ``time.perf_counter`` deltas; the
  wall-clock ``time.time`` start stamp exists only to place spans on a
  shared timeline across processes (Chrome trace export);
* **everything travels as plain dicts** — worker processes build span
  dicts with :func:`wire_child_span` and ship them back with their
  results; the parent folds them in with
  :meth:`SpanRecorder.record_wire`.

>>> recorder = SpanRecorder()
>>> with recorder.span("suite", trace_id="deadbeefdeadbeef") as root:
...     with recorder.span("cache_lookup", parent=root.context) as child:
...         child.set_attribute("cache_hit", 3)
>>> [s.name for s in recorder.spans]
['cache_lookup', 'suite']
>>> recorder.spans[0].parent_id == recorder.spans[1].span_id
True
>>> NULL_TRACER.enabled
False
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .context import TraceContext

__all__ = ["Span", "Tracer", "NULL_TRACER", "SpanRecorder",
           "JsonlSpanSink", "wire_child_span"]

#: The two span statuses.  ``error`` marks failed units (a poisoned
#: chunk unit, a TraceFailure) without aborting the surrounding trace.
STATUSES = ("ok", "error")


@dataclass(slots=True)
class Span:
    """One finished, timed operation of a trace.

    ``start`` is wall-clock epoch seconds (cross-process timeline
    placement); ``duration`` is a monotonic-clock delta in seconds.
    ``pid`` / ``tid`` identify where the operation ran — the Chrome
    trace export uses them as rows, so worker-side spans land on their
    worker's own track.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    duration: float
    pid: int
    tid: int
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form (one JSONL line, one ``record_wire`` entry)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_json` output (tolerant of
        missing optional fields, so hand-written fixtures stay short)."""
        return cls(
            name=str(doc["name"]),
            trace_id=str(doc["trace_id"]),
            span_id=str(doc["span_id"]),
            parent_id=doc.get("parent_id"),
            start=float(doc.get("start", 0.0)),
            duration=float(doc.get("duration", 0.0)),
            pid=int(doc.get("pid", 0)),
            tid=int(doc.get("tid", 0)),
            status=str(doc.get("status", "ok")),
            attributes=dict(doc.get("attributes") or {}),
        )

    @property
    def context(self) -> TraceContext:
        """This span's position as a :class:`TraceContext`."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id,
                            parent_id=self.parent_id)


def wire_child_span(wire: dict[str, Any], name: str, start: float,
                    duration: float, *, status: str = "ok",
                    attributes: dict[str, Any] | None = None,
                    ) -> dict[str, Any]:
    """A span dict for worker-side code holding only a wire context.

    Workers receive the parent context as the plain dict a
    :meth:`~repro.tracing.context.TraceContext.to_wire` produced (it
    rides the pickled chunk payload), emit their spans with this
    helper, and ship the dicts back with their results — no tracer
    object ever crosses the process boundary.
    """
    from .context import new_span_id

    return Span(
        name=name,
        trace_id=str(wire["trace_id"]),
        span_id=new_span_id(),
        parent_id=str(wire["span_id"]),
        start=start,
        duration=duration,
        pid=os.getpid(),
        tid=threading.get_ident() & 0xFFFFFFFF,
        status=status,
        attributes=dict(attributes or {}),
    ).to_json()


# ----------------------------------------------------------------------
# The null tracer (the default everywhere).
# ----------------------------------------------------------------------


class _NullSpanHandle:
    """Reusable no-op span handle (one shared instance, no allocations).

    Its ``context`` is ``None`` — callers forward that as the parent of
    nested operations, and every tracer hook accepts ``None`` parents,
    so disabled tracing threads through the whole pipeline without a
    single conditional at the call sites.
    """

    __slots__ = ()

    context: TraceContext | None = None

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attribute(self, name: str, value: Any) -> None:
        """No-op."""

    def set_status(self, status: str) -> None:
        """No-op."""


_NULL_SPAN = _NullSpanHandle()


class Tracer:
    """Base class *and* null implementation of the tracing hooks.

    This base is the shared do-nothing object (:data:`NULL_TRACER`),
    and :class:`SpanRecorder` is the recording subclass.  Hooks:

    ``span(name, ...)``
        Context manager bracketing one operation; yields a handle with
        ``.context`` (the minted :class:`TraceContext`, ``None`` when
        disabled), ``.set_attribute`` and ``.set_status``.
    ``child(parent)``
        Mint a context for a manually timed operation.
    ``add_span(name, seconds, ...)``
        Record an externally measured span.
    ``record_wire(spans)``
        Fold in span dicts shipped back from a worker process.
    """

    #: Whether this tracer records anything.  Hot paths consult it to
    #: skip work that exists only to feed spans (context minting for
    #: chunk payloads, attribute snapshots).
    enabled: bool = False

    def span(self, name: str, *, parent: TraceContext | None = None,
             trace_id: str | None = None,
             context: TraceContext | None = None,
             attributes: dict[str, Any] | None = None) -> Any:
        """Context manager for one operation (no-op here)."""
        return _NULL_SPAN

    def child(self, parent: TraceContext | None = None,
              ) -> TraceContext | None:
        """A context for a manually timed child operation (``None`` here)."""
        return None

    def add_span(self, name: str, seconds: float, *,
                 context: TraceContext | None = None,
                 parent: TraceContext | None = None,
                 trace_id: str | None = None,
                 start: float | None = None,
                 status: str = "ok",
                 attributes: dict[str, Any] | None = None) -> None:
        """Record an externally measured span (no-op here)."""

    def record_wire(self, spans: list[dict[str, Any]] | None) -> None:
        """Fold in worker-emitted span dicts (no-op here)."""


#: The shared do-nothing tracer every pipeline stage defaults to.
NULL_TRACER = Tracer()


# ----------------------------------------------------------------------
# The recording tracer.
# ----------------------------------------------------------------------


class JsonlSpanSink:
    """Append-only JSONL span log: one span dict per line.

    Durable as it goes — every span is written (and flushed) when it
    closes, so a crashed or killed process still leaves every finished
    span on disk.  Thread-safe; the serve daemon shares one sink across
    its event loop and executor threads.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._stream = None

    def write(self, doc: dict[str, Any]) -> None:
        """Append one span dict as a JSON line."""
        line = json.dumps(doc, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._stream is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._stream = open(self.path, "a", encoding="utf-8")
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _SpanHandle:
    """A live span: context manager measuring one operation."""

    __slots__ = ("_recorder", "_name", "context", "_attributes",
                 "_status", "_start_wall", "_start_perf")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 context: TraceContext,
                 attributes: dict[str, Any] | None):
        self._recorder = recorder
        self._name = name
        self.context = context
        self._attributes = dict(attributes or {})
        self._status = "ok"
        self._start_wall = 0.0
        self._start_perf = 0.0

    def set_attribute(self, name: str, value: Any) -> None:
        """Attach one attribute (JSON-serializable value)."""
        self._attributes[name] = value

    def set_status(self, status: str) -> None:
        """Override the span status (``"ok"`` / ``"error"``)."""
        self._status = status

    def __enter__(self) -> "_SpanHandle":
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start_perf
        status = "error" if exc_type is not None else self._status
        self._recorder.add_span(
            self._name, duration, context=self.context,
            start=self._start_wall, status=status,
            attributes=self._attributes)
        return None


class SpanRecorder(Tracer):
    """The recording tracer: collects spans, optionally streams them.

    ``root`` (optional) is the context every parentless ``span()`` /
    ``child()`` call nests under — CLI entry points mint one root per
    invocation.  Without a root, parentless spans become independent
    roots (the serve daemon's shape: one root per request).  ``sink``
    (for example a :class:`JsonlSpanSink`) additionally receives every
    span as it closes; the in-memory list is always kept, so exporters
    and tests can read :attr:`spans` without a file round-trip.

    Thread-safe: the recording list and the sink are guarded, so engine
    callbacks, serve executor threads and the event loop can all record
    concurrently.
    """

    enabled = True

    def __init__(self, *, root: TraceContext | None = None,
                 sink: JsonlSpanSink | None = None):
        self.root = root
        self.sink = sink
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    # -- context minting ------------------------------------------------

    def _derive(self, parent: TraceContext | None,
                trace_id: str | None) -> TraceContext:
        if parent is not None:
            return parent.child()
        if trace_id is not None:
            return TraceContext.new_root(trace_id)
        if self.root is not None:
            return self.root.child()
        return TraceContext.new_root()

    def child(self, parent: TraceContext | None = None) -> TraceContext:
        """Mint a context for a manually timed operation."""
        return self._derive(parent, None)

    # -- recording ------------------------------------------------------

    def span(self, name: str, *, parent: TraceContext | None = None,
             trace_id: str | None = None,
             context: TraceContext | None = None,
             attributes: dict[str, Any] | None = None) -> _SpanHandle:
        """A live span handle.  ``parent`` nests explicitly; bare calls
        nest under :attr:`root` (or start a new trace); ``trace_id``
        forces a fresh root with that id (serve requests); ``context``
        reuses a pre-minted context (coalescing leaders, whose span id
        must be known before the span closes)."""
        ctx = context if context is not None else \
            self._derive(parent, trace_id)
        return _SpanHandle(self, name, ctx, attributes)

    def add_span(self, name: str, seconds: float, *,
                 context: TraceContext | None = None,
                 parent: TraceContext | None = None,
                 trace_id: str | None = None,
                 start: float | None = None,
                 status: str = "ok",
                 attributes: dict[str, Any] | None = None) -> None:
        """Record one externally measured span."""
        ctx = context if context is not None else \
            self._derive(parent, trace_id)
        span = Span(
            name=name,
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=ctx.parent_id,
            start=time.time() - seconds if start is None else start,
            duration=seconds,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
            status=status,
            attributes=dict(attributes or {}),
        )
        self.record(span)

    def record(self, span: Span) -> None:
        """Append one finished span (and stream it to the sink)."""
        with self._lock:
            self._spans.append(span)
            if self.sink is not None:
                self.sink.write(span.to_json())

    def record_wire(self, spans: list[dict[str, Any]] | None) -> None:
        """Fold in span dicts a worker shipped back with its results."""
        if not spans:
            return
        for doc in spans:
            self.record(Span.from_json(doc))

    @property
    def spans(self) -> list[Span]:
        """A snapshot of every span recorded so far."""
        with self._lock:
            return list(self._spans)

    def __repr__(self) -> str:
        return (f"SpanRecorder(spans={len(self._spans)}, "
                f"sink={self.sink.path if self.sink else None})")
