"""Phase timers and event counters (the observability substrate).

The paper's speed claims (Table III) are wall-clock measurements of
whole simulations; to *explain* those numbers — how much time goes to
trace decoding versus the predict/train/track loop versus result
finalization — the simulators accept an :class:`Instrumentation` object
and bracket their internal phases with it.

The design rule is **zero overhead when disabled**: the default
instrumentation is a shared null object whose hooks are no-ops and whose
``phase`` context manager is a reusable singleton, and no per-branch
hook exists at all — phases are per-run brackets, so the hot loop of
:func:`repro.core.simulator.simulate` is byte-for-byte the same whether
instrumentation is attached or not.  All timings use
``time.perf_counter`` (monotonic); wall-clock ``time.time`` is never
used for durations anywhere in the library.

>>> timers = PhaseTimers()
>>> timers.add_phase("trace_read", 0.25)
>>> timers.add_phase("trace_read", 0.25)
>>> timers.count("cache_hit")
>>> timers.phases["trace_read"]
0.5
>>> timers.counters["cache_hit"]
1
>>> NULL_INSTRUMENTATION.enabled
False
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable

__all__ = ["FUNNEL_SPANS", "Instrumentation", "NULL_INSTRUMENTATION",
           "PhaseTimers"]

#: The plan funnel's own spans (:func:`repro.core.plan.execute_plan`
#: and :meth:`repro.core.engine.ExecutionEngine.run_plan`), each with
#: the integer attributes it carries as counters.
#: :meth:`PhaseTimers.from_spans` folds the durations of these spans
#: into phases of the same name and these attributes into counters.
FUNNEL_SPANS: dict[str, tuple[str, ...]] = {
    "execute_plan": ("coalesced", "trace_failure"),
    "cache_lookup": ("cache_hit", "cache_miss"),
    "simulate": (),
    "batch_eval": ("batch_groups", "batch_units", "context_reuse"),
    "engine_dispatch": ("task_dispatch", "task_chunk", "chunk_size",
                        "batch_groups", "batch_units", "context_reuse",
                        "trace_ship", "trace_attach", "trace_reuse"),
    "chunk_dispatch": (),
}


class _NullPhase:
    """A reusable no-op context manager (one shared instance, no allocs)."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_PHASE = _NullPhase()


class Instrumentation:
    """Base class *and* null implementation of the instrumentation hooks.

    Simulators call three hooks:

    ``phase(name)``
        A context manager bracketing one named phase of a run
        ("trace_read", "simulate_loop", "cache_lookup", ...).
    ``add_phase(name, seconds)``
        Record an externally measured duration against a phase.
    ``count(name, n=1)``
        Bump a named event counter ("cache_hit", "trace_failure", ...).

    This base class is the null object: every hook is a no-op and
    ``phase`` returns a shared singleton, so passing
    :data:`NULL_INSTRUMENTATION` (or leaving the default) costs a few
    attribute lookups per *run*, never per branch.
    """

    #: Whether this instrumentation records anything.  Simulators may
    #: consult it to skip work that only exists to feed the hooks.
    enabled: bool = False

    def phase(self, name: str) -> Any:
        """Context manager timing one named phase (no-op here)."""
        return _NULL_PHASE

    def add_phase(self, name: str, seconds: float) -> None:
        """Record ``seconds`` of externally measured ``name`` time."""

    def count(self, name: str, n: int = 1) -> None:
        """Increment the event counter ``name`` by ``n``."""


#: The shared do-nothing instrumentation every simulator defaults to.
NULL_INSTRUMENTATION = Instrumentation()


class _TimedPhase:
    """Context manager that accumulates its elapsed time into a timer."""

    __slots__ = ("_timers", "_name", "_start")

    def __init__(self, timers: "PhaseTimers", name: str):
        self._timers = timers
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_TimedPhase":
        self._start = self._timers._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = self._timers._clock() - self._start
        self._timers.add_phase(self._name, elapsed)
        return None


class PhaseTimers(Instrumentation):
    """Accumulating phase timers and event counters.

    Re-entrant across runs: timing the same phase twice accumulates, so
    one ``PhaseTimers`` attached to a whole suite reports suite totals.
    ``clock`` is injectable for deterministic tests and defaults to the
    monotonic ``time.perf_counter``.

    Thread-safe: the serve daemon's plan threads tally into one shared
    instance at once, and a read-modify-write on a plain dict drops
    updates under that race — so every accumulate and every snapshot
    holds an internal lock.

    >>> ticks = iter([0.0, 1.5])
    >>> timers = PhaseTimers(clock=lambda: next(ticks))
    >>> with timers.phase("simulate_loop"):
    ...     pass
    >>> timers.phases["simulate_loop"]
    1.5
    """

    enabled = True

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        #: Accumulated seconds per phase name.
        self.phases: dict[str, float] = {}
        #: Event counts per counter name.
        self.counters: dict[str, int] = {}

    @classmethod
    def from_spans(cls, spans: Iterable[Any]) -> "PhaseTimers":
        """Fold recorded :class:`~repro.tracing.Span` objects into timers.

        Every span named in :data:`FUNNEL_SPANS` adds its duration to
        the phase of its name and its listed integer attributes to the
        counters (an attribute recorded as 0 still creates its counter).
        Worker-side spans under a ``unit`` span are unit detail, not
        funnel phases, even where they share a name (``simulate``).
        """
        spans = list(spans)
        units = {span.span_id for span in spans if span.name == "unit"}
        timers = cls()
        for span in spans:
            counters = FUNNEL_SPANS.get(span.name)
            if counters is None or span.parent_id in units:
                continue
            timers.add_phase(span.name, span.duration)
            for name in counters:
                if name in span.attributes:
                    timers.count(name, int(span.attributes[name]))
        return timers

    def phase(self, name: str) -> _TimedPhase:
        """Context manager adding its elapsed time to phase ``name``."""
        return _TimedPhase(self, name)

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` against phase ``name``."""
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of the current state (JSON-ready)."""
        with self._lock:
            return {"phases": dict(self.phases),
                    "counters": dict(self.counters)}

    def __repr__(self) -> str:
        return (f"PhaseTimers(phases={sorted(self.phases)}, "
                f"counters={sorted(self.counters)})")
