"""Phase timers and event counters folded from spans.

The paper's speed claims (Table III) are wall-clock measurements of
whole simulations; to *explain* those numbers — how much time goes to
trace decoding versus the predict/train/track loop versus result
finalization — every layer records :mod:`repro.tracing` spans, and
:meth:`PhaseTimers.from_spans` folds the spans named in
:data:`FUNNEL_SPANS` into per-name phase seconds and event counters.
Spans are the single record; phases and counters are derived.

The design rule is **zero overhead when disabled**: with no tracer the
simulators skip every span behind one ``is not None`` test per phase
and per *run* — no per-branch hook exists at all.  All durations use
``time.perf_counter`` (monotonic).

>>> timers = PhaseTimers()
>>> timers.add_phase("trace_read", 0.25)
>>> timers.add_phase("trace_read", 0.25)
>>> timers.count("cache_hit")
>>> timers.phases["trace_read"]
0.5
>>> timers.counters["cache_hit"]
1
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

__all__ = ["FUNNEL_SPANS", "PhaseTimers"]

#: The spans folded into phases, each with the integer attributes it
#: carries as counters: the plan funnel's own spans
#: (:func:`repro.core.plan.execute_plan` and
#: :meth:`repro.core.engine.ExecutionEngine.run_plan`) and the
#: simulator's (:func:`repro.core.simulator.simulate`,
#: :func:`repro.core.vectorized.simulate_vectorized`).
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
    "trace_read": (),
    "simulate_loop": ("context_reuse",),
    "finalize": (),
}


class PhaseTimers:
    """Accumulating phase timers and event counters.

    Accumulating: adding the same phase twice sums, so one
    ``PhaseTimers`` fed a whole suite's spans reports suite totals.

    Thread-safe: the serve daemon's plan threads tally into one shared
    instance at once, and a read-modify-write on a plain dict drops
    updates under that race — so every accumulate and every snapshot
    holds an internal lock.
    """

    def __init__(self) -> None:
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
        A span under a ``unit`` span is unit detail: a worker's
        per-unit ``simulate`` span is not the funnel phase of that name
        and is skipped, and the simulator's phases there add their
        durations but no counters: the counts are the funnel's own
        spans', the same on every backend.
        """
        spans = list(spans)
        units = {span.span_id for span in spans if span.name == "unit"}
        timers = cls()
        for span in spans:
            counters = FUNNEL_SPANS.get(span.name)
            if counters is None:
                continue
            if span.parent_id in units:
                if span.name == "simulate":
                    continue
                counters = ()
            timers.add_phase(span.name, span.duration)
            for name in counters:
                if name in span.attributes:
                    timers.count(name, int(span.attributes[name]))
        return timers

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
