"""Work-plan intermediate representation for the execution pipeline.

Every multi-run driver in the library — :func:`repro.core.batch.run_suite`,
the sweeps and searches in :mod:`repro.analysis`, the serve daemon's
suite/sweep operations and the ``mbp suite|sweep`` CLI — ultimately wants
the same thing: *simulate this set of (predictor configuration, trace)
pairs and give me the outcomes in a known order*.  Historically each
caller assembled that task list itself, with four slightly different
code paths around caching, worker pools and failure isolation.

This module is the single funnel they all lower into:

* :class:`WorkUnit` — one schedulable simulation: a predictor factory, a
  trace, a display name, the simulation config, the probe flag, the
  simulation engine, and an opaque integer ``tag`` callers use to group
  units back into higher-level results (the sweep point index, the
  search candidate index, ...).
* :class:`WorkPlan` — an ordered, immutable sequence of work units with
  lowering constructors (:meth:`WorkPlan.for_suite`,
  :meth:`WorkPlan.for_points`) and grouping helpers.
* :func:`execute_plan` — runs a plan through the cache, then through one
  of two execution backends (inline, or an
  :class:`~repro.core.engine.ExecutionEngine` with adaptive chunked
  dispatch), preserving per-unit failure isolation and returning
  outcomes in plan order.

The IR deliberately carries *no* scheduling policy: chunking, windowing
and worker counts live in the backends, so the same plan is byte-for-byte
reproducible serially and in parallel (the differential property the
test suite pins).
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, Union

from ..sbbt.trace import TraceData
from ..tracing import NULL_TRACER
from .output import SimulationResult
from .predictor import Predictor, derive_spec
from .simulator import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.instrumentation import Instrumentation
    from .batch import CacheLike, TraceFailure
    from .engine import ExecutionEngine

__all__ = [
    "WorkUnit",
    "WorkPlan",
    "execute_plan",
    "default_trace_names",
    "normalize_batch",
    "normalize_chunk",
]

PredictorFactory = Callable[[], Predictor]
TraceLike = Union[TraceData, str, Path]

#: Outcome of one work unit: a result or a per-unit failure record.
Outcome = Any


def default_trace_names(traces: Sequence[TraceLike]) -> list[str]:
    """The display names :func:`run_suite` has always defaulted to:
    the path string for file traces, ``trace[i]`` for in-memory data."""
    return [
        str(t) if not isinstance(t, TraceData) else f"trace[{i}]"
        for i, t in enumerate(traces)
    ]


def normalize_chunk(chunk: int | str) -> int | None:
    """Validate a chunk spec: ``"auto"`` -> ``None`` (adaptive sizing),
    an integer (or integer string) >= 1 -> that fixed size."""
    if chunk == "auto":
        return None
    try:
        size = int(chunk)
        if size != float(chunk):  # reject silent truncation (2.5 -> 2)
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(
            f"chunk must be 'auto' or a positive integer, got {chunk!r}"
        ) from None
    if size < 1:
        raise ValueError(f"chunk must be >= 1, got {size}")
    return size


def normalize_batch(batch: str | bool) -> bool:
    """Validate a batch spec: ``"auto"`` (group batchable units per
    trace) -> True, ``"off"`` (always per-unit) -> False."""
    if batch in ("auto", True):
        return True
    if batch in ("off", False):
        return False
    raise ValueError(f"batch must be 'auto' or 'off', got {batch!r}")


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One schedulable simulation of the pipeline IR.

    ``tag`` is an opaque grouping key owned by the caller that lowered
    the plan — sweep point index, search candidate index, request slot —
    and travels untouched through every backend.
    """

    factory: PredictorFactory
    trace: TraceLike
    name: str
    config: SimulationConfig
    probe: bool = False
    sim_engine: str = "scalar"
    tag: int = 0


@dataclass(frozen=True, slots=True)
class WorkPlan:
    """An ordered, immutable batch of :class:`WorkUnit`.

    Plan order *is* result order: every backend returns (or yields
    indices into) outcomes positionally aligned with ``units``.
    """

    units: tuple[WorkUnit, ...]

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[WorkUnit]:
        return iter(self.units)

    def __getitem__(self, index: int) -> WorkUnit:
        return self.units[index]

    # ------------------------------------------------------------------
    # Lowering constructors.
    # ------------------------------------------------------------------

    @classmethod
    def for_suite(cls, factory: PredictorFactory,
                  traces: Sequence[TraceLike],
                  config: SimulationConfig | None = None, *,
                  names: Sequence[str] | None = None,
                  probe: bool = False,
                  sim_engine: str = "scalar",
                  tag: int = 0) -> "WorkPlan":
        """Lower one predictor over a trace suite (``run_suite`` shape)."""
        config = config or SimulationConfig()
        if names is not None and len(names) != len(traces):
            raise ValueError("names and traces must have the same length")
        resolved = list(names) if names is not None else \
            default_trace_names(traces)
        return cls(units=tuple(
            WorkUnit(factory=factory, trace=trace, name=name, config=config,
                     probe=probe, sim_engine=sim_engine, tag=tag)
            for trace, name in zip(traces, resolved)
        ))

    @classmethod
    def for_points(cls, factories: Sequence[tuple[int, PredictorFactory]],
                   traces: Sequence[TraceLike],
                   config: SimulationConfig | None = None, *,
                   names: Sequence[str] | None = None,
                   probe: bool = False,
                   sim_engine: str = "scalar") -> "WorkPlan":
        """Lower many configurations over one trace set (sweep/search
        shape): the full cross product, grouped by the given tags, trace
        order preserved within each tag."""
        config = config or SimulationConfig()
        if names is not None and len(names) != len(traces):
            raise ValueError("names and traces must have the same length")
        resolved = list(names) if names is not None else \
            default_trace_names(traces)
        return cls(units=tuple(
            WorkUnit(factory=factory, trace=trace, name=name, config=config,
                     probe=probe, sim_engine=sim_engine, tag=tag)
            for tag, factory in factories
            for trace, name in zip(traces, resolved)
        ))

    # ------------------------------------------------------------------
    # Structure helpers.
    # ------------------------------------------------------------------

    def subset(self, indices: Sequence[int]) -> "WorkPlan":
        """A new plan of the units at ``indices``, in that order."""
        return WorkPlan(units=tuple(self.units[i] for i in indices))

    def tags(self) -> list[int]:
        """Distinct tags in first-appearance order."""
        seen: dict[int, None] = {}
        for unit in self.units:
            seen.setdefault(unit.tag, None)
        return list(seen)

    def group_outcomes(self, outcomes: Sequence[Outcome],
                       ) -> dict[int, list[Outcome]]:
        """Outcomes regrouped per tag (plan order within each tag)."""
        if len(outcomes) != len(self.units):
            raise ValueError(
                f"expected {len(self.units)} outcomes, got {len(outcomes)}")
        grouped: dict[int, list[Outcome]] = {}
        for unit, outcome in zip(self.units, outcomes):
            grouped.setdefault(unit.tag, []).append(outcome)
        return grouped


# ----------------------------------------------------------------------
# Plan execution: the single cache + dispatch funnel.
# ----------------------------------------------------------------------


def _batch_groups(plan: WorkPlan, indices: Sequence[int],
                  ) -> tuple[list[list[int]], list[int]]:
    """Partition cache-missed unit indices into per-trace batch groups.

    A unit is *batchable* when its ``sim_engine`` admits the vectorized
    engine (``"vectorized"`` or ``"auto"``).  Batchable units sharing a
    trace — same :class:`~repro.sbbt.trace.TraceData` object, or the
    same path string — form one group; groups of at least two units are
    worth a batched pass (the whole point is amortizing the trace
    context across configs), singletons and non-batchable units stay on
    the per-unit path.  Returns ``(groups, loose)`` with ``loose``
    sorted back into plan order.
    """
    buckets: dict[Any, list[int]] = {}
    loose: list[int] = []
    for i in indices:
        unit = plan[i]
        if unit.sim_engine not in ("vectorized", "auto"):
            loose.append(i)
            continue
        trace = unit.trace
        key = (("data", id(trace)) if isinstance(trace, TraceData)
               else ("path", str(trace)))
        buckets.setdefault(key, []).append(i)
    groups: list[list[int]] = []
    for members in buckets.values():
        if len(members) >= 2:
            groups.append(members)
        else:
            loose.extend(members)
    loose.sort()
    return groups, loose


def execute_plan(plan: WorkPlan, *,
                 workers: int = 1,
                 engine: "ExecutionEngine | None" = None,
                 cache: "CacheLike" = None,
                 instrumentation: "Instrumentation | None" = None,
                 chunk: int | str = "auto",
                 batch: str | bool = "auto",
                 tracer: "Any" = None,
                 trace_parent: "Any" = None,
                 ) -> list[Outcome]:
    """Execute every unit of ``plan``; return outcomes in plan order.

    Each outcome is a :class:`~repro.core.output.SimulationResult` or a
    :class:`~repro.core.batch.TraceFailure` — per-unit failure isolation
    holds on every backend, so one bad trace or predictor bug never
    aborts the rest of the plan.

    There are two backends.  A caller-owned ``engine`` wins (persistent
    pool, resident traces, adaptive chunked dispatch — see
    :meth:`~repro.core.engine.ExecutionEngine.run_plan`); otherwise
    ``workers > 1`` with more than one unit to simulate opens a private
    engine for this call (:func:`~repro.core.engine.engine_scope`);
    otherwise units run inline.  ``chunk`` (``"auto"`` or a fixed size
    >= 1) is forwarded to the engine backend and ignored inline.

    With ``batch="auto"`` (the default), cache-missed units that share
    a trace and admit the vectorized engine are evaluated in *batched
    groups*: the trace is resolved once per group and
    :func:`repro.core.vectorized.run_unit_group` runs every config over
    the shared trace context in stacked numpy passes.  Each unit still
    produces its own outcome and cache entry, byte-identical (up to
    wall clock) to the per-unit path.  Batching applies to the inline
    backend here and is forwarded to the engine backend (whose workers
    batch within each chunk).  ``batch="off"`` forces the per-unit path
    everywhere.
    ``instrumentation`` gains a ``batch_eval`` phase plus
    ``batch_groups`` / ``batch_units`` / ``context_reuse`` counters
    when groups actually form, and the tracer emits one
    ``batch_group`` span per group.

    With ``cache=`` (a :class:`repro.cache.SimulationCache` or directory
    path) cached units are answered without simulating and fresh results
    are stored.  Specs are derived once per distinct factory object, and
    the derivation's cold predictor instance is reused for that factory's
    first inline simulation (the ``derive_spec`` cheap-keying contract).

    ``instrumentation`` receives the suite-level phases and counters the
    batch layer has always reported: a ``cache_lookup`` phase with
    ``cache_hit`` / ``cache_miss`` counts, a ``simulate`` phase, and a
    ``trace_failure`` count — plus whatever the engine backend records.

    ``tracer`` (a :mod:`repro.tracing` object; the default is the
    zero-overhead null tracer) receives the same structure as spans: an
    ``execute_plan`` root (nested under ``trace_parent`` when given), a
    ``cache_lookup`` child carrying the hit/miss counts as attributes,
    and a ``simulate`` child under which the inline backend emits one
    ``unit`` span per simulation and the engine backend emits its
    dispatch/worker span tree (contexts cross the process boundary on
    the chunk payloads).
    """
    from .batch import TraceFailure, _resolve_cache, _run_one

    normalize_chunk(chunk)  # validate early, uniformly for all backends
    use_batch = normalize_batch(batch)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    instr = instrumentation
    trc = tracer if tracer is not None else NULL_TRACER
    store = _resolve_cache(cache)

    slots: list[Outcome | None] = [None] * len(plan)
    keys: list[str | None] = [None] * len(plan)
    pending: list[int] = []
    # Per-factory derivation artifacts: id(factory) -> (spec, cold
    # instance or None).  Factories are kept alive by the plan, so ids
    # are stable for the duration of this call.
    derived: dict[int, tuple[dict[str, Any], Predictor | None]] = {}

    def _derive(factory: PredictorFactory,
                ) -> tuple[dict[str, Any], Predictor | None]:
        entry = derived.get(id(factory))
        if entry is None:
            entry = derive_spec(factory)
            derived[id(factory)] = entry
        return entry

    def _take_prebuilt(factory: PredictorFactory) -> Predictor | None:
        """The derivation instance, at most once per factory (it is cold
        exactly once — reusing a trained predictor would corrupt runs)."""
        entry = derived.get(id(factory))
        if entry is None or entry[1] is None:
            return None
        derived[id(factory)] = (entry[0], None)
        return entry[1]

    with trc.span("execute_plan", parent=trace_parent,
                  attributes={"units": len(plan),
                              "workers": workers}) as plan_span:
        if store is not None:
            lookup_start = (time.perf_counter()
                            if instr is not None else 0.0)
            with trc.span("cache_lookup",
                          parent=plan_span.context) as lookup_span:
                for i, unit in enumerate(plan):
                    spec, _ = _derive(unit.factory)
                    try:
                        key = store.key_for(unit.trace, spec, unit.config)
                    except Exception as exc:  # noqa: BLE001 - bad trace
                        slots[i] = TraceFailure(
                            trace_name=unit.name,
                            error=f"{type(exc).__name__}: {exc}",
                            details=traceback.format_exc(),
                        )
                        continue
                    keys[i] = key
                    hit = store.get(key)
                    if hit is not None:
                        hit.trace_name = unit.name
                        slots[i] = hit
                    else:
                        pending.append(i)
                if instr is not None or trc.enabled:
                    hits = sum(1 for s in slots
                               if isinstance(s, SimulationResult))
                    lookup_span.set_attribute("cache_hit", hits)
                    lookup_span.set_attribute("cache_miss", len(pending))
                    if instr is not None:
                        instr.add_phase(
                            "cache_lookup",
                            time.perf_counter() - lookup_start)
                        instr.count("cache_hit", hits)
                        instr.count("cache_miss", len(pending))
        else:
            pending = list(range(len(plan)))

        simulate_start = time.perf_counter() if instr is not None else 0.0
        if pending:
            with trc.span("simulate", parent=plan_span.context,
                          attributes={"pending": len(pending)}) as sim:
                if engine is not None or (workers > 1
                                          and len(pending) > 1):
                    from .engine import engine_scope

                    with engine_scope(engine, workers) as scoped:
                        for position, outcome in scoped.run_plan(
                                plan.subset(pending), chunk=chunk,
                                batch=batch,
                                instrumentation=instr, tracer=trc,
                                trace_parent=sim.context):
                            slots[pending[position]] = outcome
                else:
                    groups, loose = (_batch_groups(plan, pending)
                                     if use_batch else ([], list(pending)))
                    if groups:
                        batch_start = (time.perf_counter()
                                       if instr is not None else 0.0)
                        context_reuse = 0
                        for members in groups:
                            context_reuse += _run_group_inline(
                                plan, members, slots, _take_prebuilt,
                                trc, sim.context)
                        if instr is not None:
                            instr.add_phase(
                                "batch_eval",
                                time.perf_counter() - batch_start)
                            instr.count("batch_groups", len(groups))
                            instr.count("batch_units",
                                        sum(len(m) for m in groups))
                            if context_reuse:
                                instr.count("context_reuse",
                                            context_reuse)
                    for i in loose:
                        unit = plan[i]
                        with trc.span(
                                "unit", parent=sim.context,
                                attributes={"unit": unit.name}) as unit_span:
                            outcome = _run_one(
                                unit.factory, unit.trace, unit.config,
                                unit.name, unit.probe,
                                predictor=_take_prebuilt(unit.factory),
                                sim_engine=unit.sim_engine)
                            if not isinstance(outcome, SimulationResult):
                                unit_span.set_status("error")
                            slots[i] = outcome
            if store is not None:
                for i in pending:
                    outcome = slots[i]
                    if isinstance(outcome, SimulationResult) and keys[i]:
                        store.put(keys[i], outcome)
        if instr is not None or trc.enabled:
            failed = sum(1 for s in slots
                         if not isinstance(s, SimulationResult))
            if failed:
                plan_span.set_attribute("trace_failure", failed)
            if instr is not None:
                instr.add_phase("simulate",
                                time.perf_counter() - simulate_start)
                if failed:
                    instr.count("trace_failure", failed)
    return list(slots)


def _run_group_inline(plan: WorkPlan, members: Sequence[int],
                      slots: list[Outcome | None],
                      take_prebuilt: Callable[[PredictorFactory],
                                              Predictor | None],
                      trc: Any, sim_context: Any) -> int:
    """Run one batch group inline; fill ``slots`` for every member.

    The trace is resolved once; a resolve failure becomes a
    :class:`~repro.core.batch.TraceFailure` for every member (the same
    record each would have produced alone).  Returns the group's
    ``context_reuse`` count for the caller's counter.
    """
    from .batch import TraceFailure
    from .simulator import _resolve_trace
    from .vectorized import run_unit_group

    first = plan[members[0]]
    with trc.span("batch_group", parent=sim_context,
                  attributes={"units": len(members),
                              "trace": first.name}) as group_span:
        try:
            data, _ = _resolve_trace(first.trace)
        except Exception as exc:  # noqa: BLE001 - per-unit isolation
            group_span.set_status("error")
            for i in members:
                slots[i] = TraceFailure(
                    trace_name=plan[i].name,
                    error=f"{type(exc).__name__}: {exc}",
                    details=traceback.format_exc(),
                )
            return 0
        units = [
            (plan[i].factory, plan[i].config, plan[i].name, plan[i].probe,
             plan[i].sim_engine, take_prebuilt(plan[i].factory))
            for i in members
        ]
        outcomes, info = run_unit_group(data, units)
        failed = 0
        for i, outcome in zip(members, outcomes):
            if not isinstance(outcome, SimulationResult):
                failed += 1
            slots[i] = outcome
        if failed:
            group_span.set_attribute("failures", failed)
        reuse = int(info.get("context_reuse", 0))
        if reuse:
            group_span.set_attribute("context_reuse", reuse)
        return reuse


def chunk_cost_size(ema_seconds: float | None, remaining: int,
                    workers: int, *, target_seconds: float,
                    max_chunk: int) -> int:
    """Adaptive chunk size from the measured per-unit cost.

    Cold (no measurement yet) -> 1: the first wave runs as singleton
    probe chunks whose timings seed the estimate.  Warm -> enough units
    to keep a worker busy for ~``target_seconds`` per round-trip, capped
    by ``max_chunk`` and by an even split of the remaining units across
    the workers (so the tail of a plan still parallelizes instead of
    landing on one worker as a single giant chunk).
    """
    if remaining <= 0:
        return 0
    if ema_seconds is None:
        return 1
    size = max(1, round(target_seconds / max(ema_seconds, 1e-9)))
    size = min(size, max_chunk, math.ceil(remaining / max(workers, 1)))
    return max(1, size)
