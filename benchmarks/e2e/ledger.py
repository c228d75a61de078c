"""Outside-in per-layer timing for the layer-ledger benchmark.

The benchmark never edits ``src/``.  :class:`Ledger` wraps each layer's
public function from the outside: every ``repro.*`` module attribute
that *is* the original function is rebound to a timing wrapper, and
methods are patched on their class.  Each call becomes one span in an
in-memory :class:`repro.tracing.SpanRecorder`, parented on the
enclosing wrapped call of the same thread and carrying its *self time*
(its duration minus the wrapped calls nested in it) as the ``self_s``
attribute.  A call nested directly in a call of the same layer (say
``key_for`` -> ``make_key``) is folded into it.

Worker processes are never patched: engine pools are started and warmed
before :meth:`Ledger.install`, so forked workers run the original code
and their side is read from engine stats and results instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.tracing import JsonlSpanSink, Span, SpanRecorder, TraceContext

Attrs = Callable[[tuple, Any], dict[str, Any]] | None


def _trace_attr(args: tuple, _result: Any) -> dict[str, Any]:
    trace = args[1] if len(args) > 1 else None
    return {"trace": str(trace) if isinstance(trace, (str, os.PathLike))
            else "<memory>"}


#: (module, attribute, layer, attributes from (args, result)).
FUNCTIONS: tuple[tuple[str, str, str, Attrs], ...] = (
    ("repro.sbbt.reader", "read_trace", "sbbt.decode", None),
    ("repro.sbbt.digest", "trace_digest", "sbbt.digest", None),
    ("repro.core.predictor", "derive_spec", "predictor.derive_spec", None),
    ("repro.core.simulator", "simulate", "simulator.simulate", _trace_attr),
    ("repro.core.vectorized", "run_unit_group", "vectorized.group",
     lambda args, _r: {"units": len(args[1])}),
    ("repro.core.vectorized", "simulate_vectorized", "vectorized.unit", None),
    ("repro.core.plan", "execute_plan", "plan.execute", None),
)

#: (module, class, method, layer, attributes from (args, result)).
METHODS: tuple[tuple[str, str, str, str, Attrs], ...] = (
    ("repro.cache", "SimulationCache", "key_for", "cache.key", None),
    ("repro.cache", "SimulationCache", "make_key", "cache.key", None),
    ("repro.cache", "SimulationCache", "get", "cache.get",
     lambda _a, result: {"hit": result is not None}),
    ("repro.core.engine", "ExecutionEngine", "publish", "engine.publish",
     None),
    ("repro.core.engine", "ExecutionEngine", "run_plan", "engine.run_plan",
     None),
)


@dataclass
class _Frame:
    layer: str
    context: TraceContext
    wall: float
    start: float
    child_s: float = 0.0


class Ledger:
    """Installs the layer wrappers and records one span per call."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder(root=TraceContext.new_root())
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer, attrs in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, layer, attrs)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro"
                                          or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, layer, attrs in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(
                    self._wrap(raw.__func__, layer, attrs))
            else:
                patched = self._wrap(raw, layer, attrs)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, layer: str, attrs: Attrs) -> Callable:
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                frame = self._enter(layer)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    if frame is not None:
                        self._exit(frame, None)
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            if frame is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(frame, attrs(args, result) if attrs else None)
        return wrapper

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> _Frame | None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.layer == layer:
            return None
        frame = _Frame(layer,
                       self.recorder.child(parent.context if parent else None),
                       time.time(), time.perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, attrs: dict[str, Any] | None) -> None:
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.remove(frame)
        if stack:
            stack[-1].child_s += duration
        attributes = {"self_s": duration - frame.child_s, **(attrs or {})}
        self.recorder.add_span(frame.layer, duration, context=frame.context,
                               start=frame.wall, attributes=attributes)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON line (``mbp trace summary`` reads
        the file)."""
        with JsonlSpanSink(path) as sink:
            for span in self.recorder.spans:
                sink.write(span.to_json())


@dataclass
class Layer:
    """Calls, self seconds and inclusive seconds of one span name."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    spans: list[Span] = field(default_factory=list)


def fold(spans: list[Span]) -> defaultdict[str, Layer]:
    """Spans folded by name (a name without spans reads as an empty
    :class:`Layer`).  A ``simulator.simulate`` call whose direct
    child is a ``vectorized.unit`` call only dispatched to the vectorized
    engine; the rest ran the scalar loop and fold into
    ``simulator.scalar``."""
    vector_parents = {s.parent_id for s in spans
                      if s.name == "vectorized.unit"}
    layers: dict[str, Layer] = defaultdict(Layer)
    for span in spans:
        name = span.name
        if name == "simulator.simulate":
            name = ("simulator.dispatch" if span.span_id in vector_parents
                    else "simulator.scalar")
        layer = layers[name]
        layer.calls += 1
        layer.self_s += span.attributes["self_s"]
        layer.total_s += span.duration
        layer.spans.append(span)
    return layers
