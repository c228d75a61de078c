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
  simulation engine, the interval-telemetry window, and an opaque
  integer ``tag`` callers use to group units back into higher-level
  results (the sweep point index, the search candidate index, ...).
* :class:`WorkPlan` — an ordered, immutable sequence of work units with
  lowering constructors (:meth:`WorkPlan.for_suite`,
  :meth:`WorkPlan.for_points`) and grouping helpers.
* :func:`execute_plan` — runs a plan through the cache, then through one
  of two execution backends (inline, or an
  :class:`~repro.core.engine.ExecutionEngine` with adaptive chunked
  dispatch), preserving per-unit failure isolation and returning
  outcomes in plan order.
* :func:`run_chunk` — the one unit runner both backends share: batch
  groups, trace resolution, the simulation itself, and the per-unit
  fault barrier.  The backends differ only in how outcomes travel.

The IR deliberately carries *no* scheduling policy: chunking, windowing
and worker counts live in the backends, so the same plan is byte-for-byte
reproducible serially and in parallel (the differential property the
test suite pins).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, Union

from ..sbbt.store import STORE
from ..sbbt.trace import TraceData
from ..tracing import NULL_TRACER
from .output import SimulationResult
from .configured import ColdHandOff, ConfiguredFactory
from .predictor import Predictor
from .simulator import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import InflightClaim
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

    ``probe=True`` and ``interval`` (a window in instructions) ask for
    the run's component attribution and interval telemetry; they come
    back on the result's ``probe_report`` and ``intervals``, on fresh
    simulations only.  ``tag`` is an opaque grouping key owned by the
    caller that lowered the plan — sweep point index, search candidate
    index, request slot — and travels untouched through every backend.
    """

    factory: PredictorFactory
    trace: TraceLike
    name: str
    config: SimulationConfig
    probe: bool = False
    sim_engine: str = "scalar"
    interval: int | None = None
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


def _keyable(plan: WorkPlan) -> WorkPlan:
    """``plan`` with each plain-callable factory object wrapped in one
    :class:`~repro.core.configured.ColdHandOff`, so that every unit
    answers ``factory.derivation().cache_key(...)``."""
    wrapped: dict[int, ColdHandOff] = {}
    units = []
    for unit in plan.units:
        factory = unit.factory
        if not isinstance(factory, (ConfiguredFactory, ColdHandOff)):
            handoff = wrapped.get(id(factory))
            if handoff is None:
                handoff = wrapped[id(factory)] = ColdHandOff(factory)
            unit = replace(unit, factory=handoff)
        units.append(unit)
    return WorkPlan(tuple(units)) if wrapped else plan


def _content(trace: Any) -> int | str | None:
    """What a batch group shares: one in-memory trace object, or the
    digest of a file or of a worker's shared trace; ``None`` for a file
    that cannot be digested (its units' resolves report why)."""
    if isinstance(trace, TraceData):
        return id(trace)
    if hasattr(trace, "segment"):  # an engine worker's SharedTrace
        return trace.digest
    try:
        return STORE.digest(trace)
    except Exception:  # noqa: BLE001 - its units' resolves report it
        return None


#: ``resolve(trace) -> (decoded trace, first_touch)``.
Resolve = Callable[[Any], tuple[Any, bool]]

#: ``report(position, outcome, seconds, first_touch, batched)``.
Report = Callable[[int, Outcome, float, bool, bool], None]


def _partition(units: Sequence[WorkUnit], batch: bool,
               ) -> tuple[list[list[int]], list[int]]:
    """How :func:`run_chunk` splits ``units``: ``(groups, loose)``, as
    positions into ``units``.

    With ``batch``, units without a probe or an interval whose
    ``sim_engine`` admits the vectorized engine (``"vectorized"`` or
    ``"auto"``) are bucketed by trace content (:func:`_content`); a
    bucket of two or more is a group, worth one batched pass over a
    shared trace context.  Every other unit is loose, and ``loose`` is
    in chunk order: a probed unit runs the scalar loop, which no group
    shares, and a group records no interval series.
    """
    buckets: dict[Any, list[int]] = {}
    loose: list[int] = []
    for position, unit in enumerate(units):
        content = None
        if batch and not unit.probe and unit.interval is None \
                and unit.sim_engine in ("vectorized", "auto"):
            content = _content(unit.trace)
        if content is None:
            loose.append(position)
        else:
            buckets.setdefault(content, []).append(position)
    groups = [members for members in buckets.values() if len(members) >= 2]
    loose.extend(members[0] for members in buckets.values()
                 if len(members) == 1)
    loose.sort()
    return groups, loose


def run_chunk(units: Sequence[WorkUnit], batch: bool, resolve: Resolve,
              report: Report, tracer: Any = NULL_TRACER,
              parent: Any = None) -> dict[str, int]:
    """Run ``units``; report each outcome as it is known.

    The one unit runner: the inline backend of :func:`execute_plan` runs
    its cache misses through it, and each engine worker its chunks.
    :func:`_partition` splits the units; each group runs through
    :func:`repro.core.vectorized.run_unit_group`, then each loose unit,
    in order, through :func:`repro.core.batch._run_one`.

    Each group and each loose unit first resolves its trace through
    ``resolve``: inline, :meth:`~repro.sbbt.store.TraceStore.load`; in
    a worker, the attach of the shared segment.  A trace that cannot be
    resolved fails every unit it covers with ``stage="trace"``, and the
    next unit on it resolves it again, so each records its own failure.

    ``report(position, outcome, seconds, first_touch, batched)`` is
    called once per unit: ``seconds`` is the unit's run time (a group's
    split evenly over its units), ``first_touch`` is ``resolve``'s flag
    for the first unit of a group, and ``batched`` marks group members.

    ``tracer`` receives the inline span tree under ``parent``: one
    ``batch_eval`` span carrying ``batch_groups`` / ``batch_units`` /
    ``context_reuse`` over one ``batch_group`` span per group, and one
    ``unit`` span per loose unit.  Each group and loose unit times its
    ``resolve`` as a ``trace_read`` span, and a loose unit's simulator
    spans (:func:`~repro.core.simulator.simulate`) nest under its
    ``unit`` span.  Returns the same three counts.
    """
    from .batch import TraceFailure, _run_one

    groups, loose = _partition(units, batch)
    info = {"batch_groups": len(groups),
            "batch_units": sum(map(len, groups)), "context_reuse": 0}

    def run(members: list[int], span: Any) -> None:
        first = units[members[0]]
        batched = len(members) > 1
        try:
            with tracer.span("trace_read", parent=span.context):
                trace, first_touch = resolve(first.trace)
        except Exception as exc:  # noqa: BLE001 - per-unit isolation
            span.set_status("error")
            for position in members:
                report(position, TraceFailure.from_exception(
                    units[position].name, exc, stage="trace"),
                    0.0, False, batched)
            return
        if isinstance(first.trace, (str, Path)):
            # simulate() still sees the path; the store serves its decode.
            trace = first.trace
        start = time.perf_counter()
        if batched:
            # Imported here: a plan without groups never loads the
            # vectorized engine (its import alone costs megabytes).
            from .vectorized import run_unit_group

            outcomes, group = run_unit_group(trace, [
                (units[p].factory, units[p].config, units[p].name,
                 units[p].sim_engine) for p in members])
            reuse = int(group.get("context_reuse", 0))
            info["context_reuse"] += reuse
            if reuse:
                span.set_attribute("context_reuse", reuse)
        else:
            spans = None
            if tracer.enabled:
                from ..tracing.span import SpanRecorder

                spans = SpanRecorder(root=span.context)
            outcomes = [_run_one(first.factory, trace, first.config,
                                 first.name, first.probe,
                                 sim_engine=first.sim_engine,
                                 interval=first.interval, tracer=spans)]
            if spans is not None:
                tracer.record_wire([s.to_json() for s in spans.spans])
        share = (time.perf_counter() - start) / len(members)
        failed = 0
        for position, outcome in zip(members, outcomes):
            failed += not isinstance(outcome, SimulationResult)
            report(position, outcome, share, first_touch, batched)
            first_touch = False
        if failed and batched:
            span.set_attribute("failures", failed)
        elif failed:
            span.set_status("error")

    if groups:
        with tracer.span("batch_eval", parent=parent, attributes={
                "batch_groups": info["batch_groups"],
                "batch_units": info["batch_units"]}) as eval_span:
            for members in groups:
                with tracer.span("batch_group", parent=eval_span.context,
                                 attributes={
                                     "units": len(members),
                                     "trace": units[members[0]].name,
                                 }) as span:
                    run(members, span)
            if info["context_reuse"]:
                eval_span.set_attribute("context_reuse",
                                        info["context_reuse"])
    for position in loose:
        with tracer.span("unit", parent=parent,
                         attributes={"unit": units[position].name}) as span:
            run([position], span)
    return info


def execute_plan(plan: WorkPlan, *,
                 workers: int = 1,
                 engine: "ExecutionEngine | None" = None,
                 cache: "CacheLike" = None,
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
    >= 1) is forwarded to the engine backend and ignored inline.  Both
    backends run units through :func:`run_chunk`: inline over every
    cache miss at once, on the engine once per chunk in a worker.

    With ``batch="auto"`` (the default), units without a probe or an
    interval that share a trace and admit the vectorized engine are
    evaluated in *batched groups*: the trace is resolved once per group
    and :func:`repro.core.vectorized.run_unit_group` runs every config
    over the shared trace context in stacked numpy passes.  Each unit still
    produces its own outcome and cache entry, byte-identical (up to
    wall clock) to the per-unit path.  ``batch="off"`` forces the
    per-unit path everywhere.  A unit whose trace cannot be read fails
    with ``stage="trace"`` on every path.

    With ``cache=`` (a :class:`repro.cache.SimulationCache` or directory
    path) cached units are answered without simulating and fresh results
    are stored.  A configured factory
    (:class:`~repro.core.configured.ConfiguredFactory`, as the registry,
    sweeps and searches build) keys every unit from the spec and key
    prefix it derived once, across calls.  A plain callable's spec is
    derived once per call, and the cold instance that took, if any, is
    its first inline simulation's predictor
    (:class:`~repro.core.configured.ColdHandOff`).  Cache hits and
    kernel units of configured factories build no predictor at all.
    Traces are digested through :data:`~repro.sbbt.store.STORE`: a
    file once while its stat key holds, across calls, and an in-memory
    trace once per call.  A digest that fails is not remembered, so
    every unit on that trace retries it and records its own failure.
    A unit whose spec cannot be derived (a bad predictor configuration)
    fails with ``stage="predictor"``, one whose trace cannot be digested
    with ``stage="trace"``.

    Calls sharing one cache handle compute each key once.  The scan
    claims every key before reading it
    (:meth:`~repro.cache.SimulationCache.claim`).  A key that another
    call — or an earlier unit of this plan — already holds makes the
    unit a *follower*: it waits only after this call has simulated and
    released its own claims, then receives a copy of the leader's
    outcome with its own ``trace_name`` and ``coalesced=True``.  A
    follower whose leader released without a result claims the key
    again and computes it itself.

    ``tracer`` (a :mod:`repro.tracing` object; the default is the
    zero-overhead null tracer) is the call's one record of what it did:
    an ``execute_plan`` root (nested under ``trace_parent`` when given)
    carrying ``coalesced`` / ``trace_failure`` counts, a
    ``cache_lookup`` child carrying ``cache_hit`` / ``cache_miss``, and
    a ``simulate`` child.  Under ``simulate`` the inline backend emits a
    ``batch_eval`` span carrying ``batch_groups`` / ``batch_units`` /
    ``context_reuse`` with one ``batch_group`` span per group, and one
    ``unit`` span per loose simulation (holding its ``trace_read``,
    ``simulate_loop`` and ``finalize`` spans); the engine backend emits
    its dispatch/worker span tree (contexts cross the process boundary
    on the chunk payloads).  Each follower records a ``coalesced`` span
    whose ``leader_span`` / ``leader_trace`` attributes name the
    ``execute_plan`` span of the call that did the work.  Callers that
    need the numbers trace into a :class:`~repro.tracing.SpanRecorder`
    and fold it with :meth:`repro.telemetry.PhaseTimers.from_spans`.
    """
    from .batch import TraceFailure, _resolve_cache

    normalize_chunk(chunk)  # validate early, uniformly for all backends
    use_batch = normalize_batch(batch)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    trc = tracer if tracer is not None else NULL_TRACER
    store = _resolve_cache(cache)

    if store is not None:
        plan = _keyable(plan)
    slots: list[Outcome | None] = [None] * len(plan)
    keys: list[str | None] = [None] * len(plan)

    def _scan(todo: list[int], pending: list[int],
              waiting: list[tuple[int, "InflightClaim"]],
              parent: Any) -> None:
        """Key, claim and read every unit of ``todo``: hits fill their
        slots, claimed misses go to ``pending`` (released by the
        caller), keys claimed elsewhere go to ``waiting``."""
        hits = 0
        with trc.span("cache_lookup", parent=parent) as lookup_span:
            digests = STORE.digests(plan[i].trace for i in todo)
            for i, digest in zip(todo, digests):
                unit = plan[i]
                try:
                    keyed = unit.factory.derivation()
                except Exception as exc:  # noqa: BLE001 - bad configuration
                    slots[i] = TraceFailure.from_exception(
                        unit.name, exc, stage="predictor")
                    continue
                try:
                    if isinstance(digest, Exception):
                        raise digest
                    key = keyed.cache_key(digest, unit.config)
                except Exception as exc:  # noqa: BLE001 - bad trace
                    slots[i] = TraceFailure.from_exception(
                        unit.name, exc, stage="trace")
                    continue
                keys[i] = key
                # Claim before reading: no other plan can store and
                # release the key between our miss and our claim.
                held = store.claim(key, parent)
                if held is not None:
                    waiting.append((i, held))
                    continue
                pending.append(i)
                hit = store.get(key)
                if hit is not None:
                    pending.pop()
                    hit.trace_name = unit.name
                    slots[i] = hit
                    store.release(key, hit)
                    hits += 1
            lookup_span.set_attribute("cache_hit", hits)
            lookup_span.set_attribute("cache_miss", len(pending))
            if waiting:
                lookup_span.set_attribute("waiting", len(waiting))

    def _simulate(pending: list[int], parent: Any) -> None:
        with trc.span("simulate", parent=parent,
                      attributes={"pending": len(pending)}) as sim:
            if engine is not None or (workers > 1 and len(pending) > 1):
                from .engine import engine_scope

                with engine_scope(engine, workers) as scoped:
                    for position, outcome in scoped.run_plan(
                            plan.subset(pending), chunk=chunk, batch=batch,
                            tracer=trc, trace_parent=sim.context):
                        slots[pending[position]] = outcome
                return

            def fill(position: int, outcome: Outcome, *_: Any) -> None:
                slots[pending[position]] = outcome

            run_chunk(plan.subset(pending).units, use_batch,
                      lambda trace: (STORE.load(trace), False), fill, trc,
                      sim.context)

    def _join(waiting: list[tuple[int, "InflightClaim"]],
              parent: Any) -> list[int]:
        """Fill follower slots from their leaders' outcomes; return the
        units whose leader had nothing to share (they go round again)."""
        again: list[int] = []
        for i, claim in waiting:
            wall = time.time()
            start = time.perf_counter()
            outcome = store.wait_claim(claim)
            if outcome is None:
                again.append(i)
                continue
            unit = plan[i]
            slots[i] = replace(outcome, trace_name=unit.name, coalesced=True)
            if trc.enabled:
                attributes = {"unit": unit.name}
                if claim.leader is not None:
                    attributes["leader_span"] = claim.leader.span_id
                    attributes["leader_trace"] = claim.leader.trace_id
                trc.add_span("coalesced", time.perf_counter() - start,
                             parent=parent, start=wall,
                             attributes=attributes)
        return again

    with trc.span("execute_plan", parent=trace_parent,
                  attributes={"units": len(plan),
                              "workers": workers}) as plan_span:
        todo = list(range(len(plan)))
        while todo:
            pending: list[int] = []
            waiting: list[tuple[int, InflightClaim]] = []
            try:
                if store is None:
                    pending = todo
                else:
                    _scan(todo, pending, waiting, plan_span.context)
                if pending:
                    _simulate(pending, plan_span.context)
                    if store is not None:
                        for i in pending:
                            outcome = slots[i]
                            if isinstance(outcome, SimulationResult):
                                store.put(keys[i], outcome)
            finally:
                if store is not None:
                    for i in pending:
                        outcome = slots[i]
                        store.release(keys[i], outcome if isinstance(
                            outcome, SimulationResult) else None)
            # Followers wait only now, holding no claims of their own.
            todo = _join(waiting, plan_span.context) if waiting else []
        if trc.enabled:
            coalesced = sum(1 for s in slots if isinstance(
                s, SimulationResult) and s.coalesced)
            failed = sum(1 for s in slots
                         if not isinstance(s, SimulationResult))
            if coalesced:
                plan_span.set_attribute("coalesced", coalesced)
            if failed:
                plan_span.set_attribute("trace_failure", failed)
    return list(slots)


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
