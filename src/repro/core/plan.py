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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, Union

from ..sbbt.trace import TraceData
from ..tracing import NULL_TRACER
from .output import SimulationResult
from .configured import ColdHandOff, ConfiguredFactory
from .predictor import Predictor
from .simulator import SimulationConfig, reuse_decoded

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


def _trace_identity(trace: TraceLike) -> tuple[str, Any]:
    """What "the same trace" means within one :func:`execute_plan` call:
    the same :class:`~repro.sbbt.trace.TraceData` object, or the same
    path string.  Batch grouping and digest reuse both key on it."""
    if isinstance(trace, TraceData):
        return ("data", id(trace))
    return ("path", str(trace))


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
        buckets.setdefault(_trace_identity(unit.trace), []).append(i)
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
    Traces are digested once per distinct trace (same object or same
    path) per call; a digest that fails is not remembered, so every unit
    on that trace retries it and records its own failure.  Nothing
    carries over between calls, so a rewritten file is digested afresh.
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
    ``unit`` span per loose simulation; the engine backend emits its
    dispatch/worker span tree (contexts cross the process boundary on
    the chunk payloads).  Each follower records a ``coalesced`` span
    whose ``leader_span`` / ``leader_trace`` attributes name the
    ``execute_plan`` span of the call that did the work.  Callers that
    need the numbers trace into a :class:`~repro.tracing.SpanRecorder`
    and fold it with :meth:`repro.telemetry.PhaseTimers.from_spans`.
    """
    from .batch import TraceFailure, _resolve_cache, _run_one

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

    # Per-trace content digests: _trace_identity(trace) -> hex digest.
    # Only successful digests are stored; the plan keeps every trace
    # alive, so ``id``-based identities are stable for this call.
    digests: dict[tuple[str, Any], str] = {}

    def _digest(trace: TraceLike) -> str:
        identity = _trace_identity(trace)
        digest = digests.get(identity)
        if digest is None:
            # Imported here, on the cache path only; called through the
            # module so a patched trace_digest is seen.
            from ..sbbt import digest as sbbt_digest

            digest = sbbt_digest.trace_digest(trace)
            digests[identity] = digest
        return digest

    def _fail(i: int, exc: Exception, stage: str) -> None:
        slots[i] = TraceFailure(trace_name=plan[i].name,
                                error=f"{type(exc).__name__}: {exc}",
                                details=traceback.format_exc(), stage=stage)

    def _scan(todo: list[int], pending: list[int],
              waiting: list[tuple[int, "InflightClaim"]],
              parent: Any) -> None:
        """Key, claim and read every unit of ``todo``: hits fill their
        slots, claimed misses go to ``pending`` (released by the
        caller), keys claimed elsewhere go to ``waiting``."""
        hits = 0
        with trc.span("cache_lookup", parent=parent) as lookup_span:
            for i in todo:
                unit = plan[i]
                try:
                    keyed = unit.factory.derivation()
                except Exception as exc:  # noqa: BLE001 - bad configuration
                    _fail(i, exc, "predictor")
                    continue
                try:
                    key = keyed.cache_key(_digest(unit.trace), unit.config)
                except Exception as exc:  # noqa: BLE001 - bad trace
                    _fail(i, exc, "trace")
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
            groups, loose = (_batch_groups(plan, pending)
                             if use_batch else ([], list(pending)))
            if groups:
                with trc.span("batch_eval", parent=sim.context,
                              attributes={
                                  "batch_groups": len(groups),
                                  "batch_units": sum(map(len, groups)),
                              }) as batch_span:
                    context_reuse = sum(
                        _run_group_inline(plan, members, slots, trc,
                                          batch_span.context)
                        for members in groups)
                    if context_reuse:
                        batch_span.set_attribute("context_reuse",
                                                 context_reuse)
            # A run of consecutive units over one trace file decodes it
            # once (loose is in plan order: Table III's TAGE and GShare
            # units of one trace sit side by side).
            with reuse_decoded():
                for i in loose:
                    unit = plan[i]
                    with trc.span("unit", parent=sim.context,
                                  attributes={"unit": unit.name}
                                  ) as unit_span:
                        outcome = _run_one(
                            unit.factory, unit.trace, unit.config,
                            unit.name, unit.probe,
                            sim_engine=unit.sim_engine)
                        if not isinstance(outcome, SimulationResult):
                            unit_span.set_status("error")
                        slots[i] = outcome

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


def _run_group_inline(plan: WorkPlan, members: Sequence[int],
                      slots: list[Outcome | None],
                      trc: Any, parent: Any) -> int:
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
    with trc.span("batch_group", parent=parent,
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
                    stage="trace",
                )
            return 0
        units = [
            (plan[i].factory, plan[i].config, plan[i].name, plan[i].probe,
             plan[i].sim_engine)
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
