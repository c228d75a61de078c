"""Persistent execution engine with shared-memory trace distribution.

The paper's headline claim is *throughput*: MBPlib simulates whole trace
suites ~11x faster than the CBP5 framework and ~30x faster than ChampSim
(Table III), because the caller's code drives the simulator directly
instead of a framework loop sitting in between.  The C++ binary pays its
orchestration cost once — traces are decoded once, and every
(configuration, trace) run happens inside one long-lived process.

:class:`ExecutionEngine` is the Python counterpart for multi-unit plans:

* **long-lived workers on direct pipes** — ``workers`` processes are
  started lazily on the first dispatch and live until
  :meth:`ExecutionEngine.close`.  Each owns one duplex
  :func:`multiprocessing.Pipe`; the parent sends a pickled chunk of work
  units only to an idle worker, and there is no executor, queue thread
  or result thread in between;
* **one decode, one ship** — each distinct trace (identified by its
  canonical SBBT content digest) is decoded in the parent once and
  published once into a :mod:`multiprocessing.shared_memory` segment
  holding the five :class:`~repro.sbbt.trace.TraceData` column arrays
  back to back.  Workers attach the segment the first time they see the
  digest and reconstruct **zero-copy** numpy views over the shared
  buffer; every later unit over the same trace reuses the resident
  views and ships only a ~100-byte descriptor;
* **adaptive chunked dispatch** — :meth:`ExecutionEngine.run_plan`
  consumes :class:`~repro.core.plan.WorkPlan` batches and packs several
  work units into each chunk, sized from the measured per-unit cost, so
  cheap units (small traces, big sweeps) share one round trip;
* **streamed completion** — a worker sends one record home the moment
  each unit of its chunk finishes, then a chunk-end message.  If the
  worker dies mid-chunk, the records already received are the finished
  units, the unit that was running takes the one failure, and only the
  unstarted units run again, on a replacement worker.

Lifecycle is context-managed: ``with ExecutionEngine(workers=4) as
engine: ...`` guarantees the workers are stopped and reaped and every
shared-memory segment is unlinked — also after worker crashes (only the
dead worker is replaced; the segments survive until ``close``) and under
the ``fork``, ``spawn`` and ``forkserver`` start methods.  A
:mod:`weakref` finalizer backstops both if an engine is dropped without
``close``.

Observability: the engine keeps an engine-lifetime :class:`EngineStats`
record — ``traces_published`` / ``trace_attaches`` / ``trace_reuses`` /
``tasks_dispatched`` counters plus a per-engine phase breakdown
(``publish`` / ``dispatch`` / ``chunk_dispatch``) — and
:meth:`ExecutionEngine.run_plan` records each call's own counts once,
on its ``engine_dispatch`` span, so the "each trace shipped at most
once per worker" property is measurable, not folklore.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, Union

import numpy as np

from ..sbbt.trace import TraceData
from ..telemetry.instrumentation import FUNNEL_SPANS
from .errors import SimulationError
from .output import SimulationResult
from .plan import (WorkPlan, _trace_identity, chunk_cost_size,
                   normalize_batch, normalize_chunk)
from .predictor import Predictor
from .simulator import SimulationConfig

__all__ = ["EngineStats", "ExecutionEngine", "SharedTrace",
           "default_workers", "engine_scope"]


def default_workers(units: int | None = None) -> int:
    """The CPU-aware default worker count for CLI entry points.

    ``min(4, cpu_count - 1)``, never below 1: leave one core for the
    parent (decode, cache IO, result collection) and cap at four —
    chunked dispatch keeps engine overhead below serial cost at that
    width on every suite size the benchmarks gate.  ``units`` (the
    number of schedulable work units, when the caller knows it) caps
    the answer further: a single-trace suite gets 1 worker — the serial
    path — because parallelism has nothing to chew on.  Opt out with an
    explicit ``--workers 1``.
    """
    cap = max(1, min(4, (os.cpu_count() or 2) - 1))
    if units is not None and units < cap:
        cap = max(1, units)
    return cap


@contextmanager
def engine_scope(engine: "ExecutionEngine | None",
                 workers: int) -> "Iterator[ExecutionEngine | None]":
    """Yield the engine a multi-unit driver should dispatch through.

    The one owner of the "who creates the engine" policy.  A
    caller-provided ``engine`` is yielded as-is (the caller owns its
    lifecycle).  Otherwise, ``workers > 1`` opens a *private*
    :class:`ExecutionEngine` that lives exactly as long as the ``with``
    block — one set of workers and one trace shipment for the whole
    suite, sweep or search — and ``workers == 1`` yields ``None``
    (serial in-process execution).
    """
    if engine is not None or workers <= 1:
        yield engine
        return
    with ExecutionEngine(workers=workers) as own:
        yield own


#: Adaptive chunking aims for this much worker time per round-trip: large
#: enough to amortize the pickle/IPC/future overhead of a dispatch, small
#: enough that completion streaming and failure latency stay responsive.
_TARGET_CHUNK_SECONDS = 0.2

#: Never pack more than this many units into one chunk, however cheap
#: they measure — bounds both result-latency and re-dispatch cost after
#: a mid-chunk crash.
_MAX_CHUNK_UNITS = 64

#: Exponential-moving-average weight of the newest per-unit timing.
_EMA_ALPHA = 0.3

PredictorFactory = Callable[[], Predictor]
TraceLike = Union[TraceData, str, Path]

#: Column layout of one shared segment, in storage order.  Offsets are
#: derived from the branch count alone, so the per-task descriptor only
#: needs ``num_branches`` (plus ``num_instructions`` for the header).
_COLUMNS: tuple[tuple[str, np.dtype], ...] = (
    ("ips", np.dtype(np.uint64)),
    ("targets", np.dtype(np.uint64)),
    ("opcodes", np.dtype(np.uint8)),
    ("taken", np.dtype(np.bool_)),
    ("gaps", np.dtype(np.uint16)),
)

#: Bytes per branch record across all five columns (8+8+1+1+2).
_BYTES_PER_BRANCH = sum(dtype.itemsize for _, dtype in _COLUMNS)


def _segment_size(num_branches: int) -> int:
    """Segment byte size for ``num_branches`` records (never zero —
    ``SharedMemory`` rejects empty segments, so the empty trace still
    owns one byte)."""
    return max(1, num_branches * _BYTES_PER_BRANCH)


def _column_views(buffer: memoryview, num_branches: int,
                  ) -> dict[str, np.ndarray]:
    """The five column arrays as views over ``buffer`` (no copies)."""
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype in _COLUMNS:
        views[name] = np.ndarray(num_branches, dtype=dtype, buffer=buffer,
                                 offset=offset)
        offset += num_branches * dtype.itemsize
    return views


@dataclass(frozen=True, slots=True)
class SharedTrace:
    """Picklable descriptor of one published trace.

    This is *all* that travels per task once a trace is resident: the
    segment name, the record count (which fixes every column offset),
    the header instruction count, the content digest used as the
    worker-side registry key, and the display default.
    """

    segment: str
    digest: str
    num_branches: int
    num_instructions: int
    nbytes: int


def _pack_trace(data: TraceData, buffer: memoryview) -> None:
    """Copy ``data``'s columns into a segment buffer (parent side)."""
    views = _column_views(buffer, len(data))
    for name, dtype in _COLUMNS:
        views[name][:] = getattr(data, name)


def _unpack_trace(buffer: memoryview, num_branches: int,
                  num_instructions: int) -> TraceData:
    """Rebuild a :class:`TraceData` of zero-copy views (worker side).

    The views are marked read-only: predictors never mutate trace
    columns, and a stray write through a shared mapping would corrupt
    every other worker's input.
    """
    views = _column_views(buffer, num_branches)
    for view in views.values():
        view.flags.writeable = False
    return TraceData(views["ips"], views["targets"], views["opcodes"],
                     views["taken"], views["gaps"], num_instructions)


# ----------------------------------------------------------------------
# Worker side: the per-process resident-trace registry.
# ----------------------------------------------------------------------

#: digest -> (segment handle, reconstructed TraceData).  Module-global so
#: it survives across tasks within one worker process; the segment handle
#: is retained because the numpy views borrow its buffer.
_RESIDENT: dict[str, tuple[shared_memory.SharedMemory, TraceData]] = {}


def _attach_resident(ref: SharedTrace) -> tuple[TraceData, bool]:
    """The worker-resident trace for ``ref`` (attaching on first touch).

    Returns ``(data, attached)`` where ``attached`` is True when this
    call had to map the segment — i.e. the one "ship" this worker ever
    pays for this trace.
    """
    entry = _RESIDENT.get(ref.digest)
    if entry is not None:
        return entry[1], False
    # Attaching registers the name with the resource tracker a second
    # time; engine workers share the parent's tracker process (its fd is
    # inherited under fork and passed explicitly under spawn), and the
    # tracker's per-type cache is a set, so the duplicate is a no-op and
    # the parent's unlink-on-close remains the single cleanup point.
    # (Explicitly unregistering here would *remove* the parent's
    # registration from the shared tracker — bpo-38119 only bites when
    # attacher and creator have separate trackers, which an engine
    # never has.)
    segment = shared_memory.SharedMemory(name=ref.segment)
    data = _unpack_trace(segment.buf, ref.num_branches, ref.num_instructions)
    _RESIDENT[ref.digest] = (segment, data)
    return data, True


def _engine_run_one(factory: PredictorFactory, ref: SharedTrace,
                    config: SimulationConfig, name: str,
                    probe: bool,
                    sim_engine: str = "scalar",
                    trace_wire: dict | None = None,
                    ) -> tuple[Any, bool, list[dict]]:
    """Worker task: simulate one resident trace.

    Returns ``(outcome, attached, spans)`` — the outcome is a
    :class:`~repro.core.output.SimulationResult` or a
    :class:`~repro.core.batch.TraceFailure` (the same fault barrier as
    the inline path), ``attached`` feeds the parent's
    trace_attach / trace_reuse counters, and ``spans`` are the
    worker-side span dicts when ``trace_wire`` carried a
    :class:`~repro.tracing.TraceContext` (empty — tracing disabled —
    otherwise).  Worker spans (``attach``, ``simulate``) are parented
    to the shipped context, so the parent's trace keeps its tree shape
    across the process boundary.
    """
    from .batch import TraceFailure, _run_one

    spans: list[dict] = []
    if trace_wire is not None:
        from ..tracing.span import wire_child_span
    wall = time.time()
    start = time.perf_counter()
    try:
        data, attached = _attach_resident(ref)
    except Exception as exc:  # noqa: BLE001 - segment gone / mapping failed
        if trace_wire is not None:
            spans.append(wire_child_span(
                trace_wire, "attach", wall, time.perf_counter() - start,
                status="error", attributes={"digest": ref.digest[:12]}))
        return TraceFailure(
            trace_name=name,
            error=f"{type(exc).__name__}: {exc}",
            details=traceback.format_exc(),
        ), False, spans
    if trace_wire is not None:
        spans.append(wire_child_span(
            trace_wire, "attach", wall, time.perf_counter() - start,
            attributes={"digest": ref.digest[:12],
                        "first_touch": attached}))
    wall = time.time()
    start = time.perf_counter()
    outcome = _run_one(factory, data, config, name, probe,
                       sim_engine=sim_engine)
    if trace_wire is not None:
        failed = isinstance(outcome, TraceFailure)
        spans.append(wire_child_span(
            trace_wire, "simulate", wall, time.perf_counter() - start,
            status="error" if failed else "ok",
            attributes={"unit": name, "sim_engine": sim_engine}))
    return outcome, attached, spans


#: One unit of a chunk payload, parent -> worker:
#: (factory, trace ref, config, name, probe, sim_engine, trace wire
#: context or None).
_ChunkItem = tuple[Any, SharedTrace, SimulationConfig, str, bool, str,
                   "dict | None"]

#: Called by the chunk runners as each unit finishes:
#: ``emit(position, outcome, attached, elapsed_seconds, spans)``.
_Emit = Callable[[int, Any, bool, float, list], None]


def _engine_run_group(items: Sequence[_ChunkItem], positions: Sequence[int],
                      info: dict[str, int], emit: _Emit) -> None:
    """Worker task helper: run one same-digest batch group in stacked
    numpy passes (:func:`repro.core.vectorized.run_unit_group`).

    The shared trace is attached once; the group's elapsed time is
    attributed evenly across its units so the parent's chunk-size EMA
    sees the *batched* per-unit cost.  An attach failure fails every
    member (each would have failed identically alone).  Units are
    emitted after the group completes — a crash mid-group re-runs the
    whole group, which is safe and cheap (groups are one pass).
    """
    from .batch import TraceFailure
    from .vectorized import run_unit_group

    if any(items[p][6] is not None for p in positions):
        from ..tracing.span import wire_child_span
    ref = items[positions[0]][1]
    wall = time.time()
    start = time.perf_counter()
    try:
        data, attached = _attach_resident(ref)
    except Exception as exc:  # noqa: BLE001 - segment gone
        for position in positions:
            _f, _r, _c, name, _p, _s, trace_wire = items[position]
            spans: list[dict] = []
            if trace_wire is not None:
                spans.append(wire_child_span(
                    trace_wire, "attach", wall,
                    time.perf_counter() - start, status="error",
                    attributes={"digest": ref.digest[:12]}))
            emit(position, TraceFailure(
                trace_name=name,
                error=f"{type(exc).__name__}: {exc}",
                details=traceback.format_exc(),
            ), False, 0.0, spans)
        return
    units = [(items[p][0], items[p][2], items[p][3], items[p][4],
              items[p][5]) for p in positions]
    group_start = time.perf_counter()
    results, group_info = run_unit_group(data, units)
    share = (time.perf_counter() - group_start) / len(positions)
    info["batch_groups"] += 1
    info["batch_units"] += len(positions)
    info["context_reuse"] += int(group_info.get("context_reuse", 0))
    for offset, position in enumerate(positions):
        _f, _r, _c, name, _p, sim_engine, trace_wire = items[position]
        spans = []
        if trace_wire is not None:
            spans.append(wire_child_span(
                trace_wire, "attach", wall, time.perf_counter() - start,
                attributes={"digest": ref.digest[:12],
                            "first_touch": attached and offset == 0}))
            failed = isinstance(results[offset], TraceFailure)
            spans.append(wire_child_span(
                trace_wire, "simulate", wall, share,
                status="error" if failed else "ok",
                attributes={"unit": name, "sim_engine": sim_engine,
                            "batched": True}))
        emit(position, results[offset], attached and offset == 0, share,
             spans)


def _engine_run_chunk(items: Sequence[_ChunkItem], batch: bool,
                      emit: _Emit) -> dict[str, int]:
    """Worker task: simulate a whole chunk of resident-trace units.

    Calls ``emit(position, outcome, attached, elapsed_seconds, spans)``
    the moment each unit finishes and returns an ``info`` dict with the
    chunk's ``batch_groups`` / ``batch_units`` / ``context_reuse``
    counts.  The per-unit timings feed the parent's adaptive chunk-size
    estimate and the spans (empty when tracing is off) ship the
    worker-side trace back.

    With ``batch=True``, units sharing a trace digest whose
    ``sim_engine`` admits the vectorized engine are evaluated as one
    batched group (the parent's digest-affinity packing makes such
    groups common); the rest run per unit exactly as before.
    """
    info = {"batch_groups": 0, "batch_units": 0, "context_reuse": 0}
    batched: set[int] = set()
    if batch:
        groups: dict[str, list[int]] = {}
        for position, item in enumerate(items):
            if item[5] in ("vectorized", "auto"):
                groups.setdefault(item[1].digest, []).append(position)
        for positions in groups.values():
            if len(positions) >= 2:
                _engine_run_group(items, positions, info, emit)
                batched.update(positions)
    for position, (factory, ref, config, name, probe,
                   sim_engine, trace_wire) in enumerate(items):
        if position in batched:
            continue
        start = time.perf_counter()
        outcome, attached, spans = _engine_run_one(
            factory, ref, config, name, probe, sim_engine, trace_wire)
        emit(position, outcome, attached, time.perf_counter() - start,
             spans)
    return info


#: How often an idle worker checks that the engine's process still
#: exists; an orphaned worker (the parent was killed) exits on its own.
_PARENT_CHECK_SECONDS = 1.0


def _send_record(conn: Connection, chunk_id: int, name: str,
                 position: int, outcome: Any, attached: bool,
                 elapsed: float, spans: list) -> None:
    """Send one finished unit's record home.

    An outcome that cannot be pickled becomes that unit's
    :class:`~repro.core.batch.TraceFailure` here, in the worker: running
    the unit again would fail the same way, so it is not retried.
    """
    try:
        payload = ForkingPickler.dumps(
            (chunk_id, position, outcome, attached, elapsed, spans))
    except Exception as exc:  # noqa: BLE001 - a result that cannot travel
        from .batch import TraceFailure

        failure = TraceFailure(trace_name=name,
                               error=f"{type(exc).__name__}: {exc}",
                               details=traceback.format_exc())
        payload = ForkingPickler.dumps(
            (chunk_id, position, failure, attached, elapsed, spans))
    conn.send_bytes(payload)


def _engine_worker(conn: Connection) -> None:
    """An engine worker process: run chunks until told to stop.

    Each message from the parent is ``(chunk id, items, batch)`` or
    ``None`` (stop).  Each unit's ``(chunk id, position, outcome,
    attached, elapsed, spans)`` record goes home as the unit finishes,
    then ``(chunk id, info)`` closes the chunk.
    """
    # Ctrl-C reaches the whole process group; the parent decides what
    # happens to its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    while True:
        while not conn.poll(_PARENT_CHECK_SECONDS):
            if os.getppid() != parent:
                return
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        chunk_id, items, batch = message

        def emit(position: int, outcome: Any, attached: bool,
                 elapsed: float, spans: list) -> None:
            _send_record(conn, chunk_id, items[position][3], position,
                         outcome, attached, elapsed, spans)

        conn.send((chunk_id, _engine_run_chunk(items, batch, emit)))


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------


def _release_segments(segments: dict[str, shared_memory.SharedMemory],
                      ) -> None:
    """Close and unlink every segment in ``segments`` (idempotent).

    Module-level so a :func:`weakref.finalize` can call it after the
    engine object is gone; mutates the dict in place so segments
    published after the finalizer was registered are still covered.
    """
    while segments:
        _, segment = segments.popitem()
        try:
            segment.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        except OSError:  # pragma: no cover - platform-specific teardown
            pass


#: How long :meth:`ExecutionEngine.close` waits for workers to exit
#: after the stop message before it terminates the stragglers.
_STOP_TIMEOUT = 5.0


class _Worker:
    """One engine worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Connection):
        self.process = process
        self.conn = conn

    def reap(self, timeout: float) -> None:
        """Wait for the process to end, terminating it if it does not
        within ``timeout``, and close the pipe.  A joined worker is a
        reaped child, so its usage shows in ``RUSAGE_CHILDREN``."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self.conn.close()


def _start_worker(context: Any) -> _Worker:
    """Start one worker process on a fresh duplex pipe."""
    parent_end, child_end = context.Pipe(duplex=True)
    process = context.Process(target=_engine_worker, args=(child_end,),
                              name="mbp-engine-worker", daemon=True)
    process.start()
    child_end.close()
    return _Worker(process, parent_end)


def _shutdown(workers: list[_Worker],
              segments: dict[str, shared_memory.SharedMemory]) -> None:
    """Stop every worker, then unlink every segment (idempotent).

    Sends each worker the stop message, waits up to ``_STOP_TIMEOUT``
    for all of them, terminates any straggler and reaps them all.
    Module-level so a :func:`weakref.finalize` can call it after the
    engine object is gone; empties ``workers`` in place, like
    :func:`_release_segments` does ``segments``.
    """
    stopping = list(workers)
    workers.clear()
    for worker in stopping:
        try:
            worker.conn.send(None)
        except OSError:  # already dead
            pass
    deadline = time.monotonic() + _STOP_TIMEOUT
    for worker in stopping:
        worker.reap(max(0.0, deadline - time.monotonic()))
    _release_segments(segments)


@dataclass(slots=True)
class EngineStats:
    """Counters and phase timings of one :class:`ExecutionEngine`.

    ``traces_published`` counts shared segments created (one per distinct
    trace digest — the *ship once globally* half of the claim);
    ``trace_attaches`` counts first-touch mappings inside workers (at
    most ``workers`` per trace — the *at most once per worker* half);
    ``trace_reuses`` counts tasks served entirely from a worker's
    resident registry.  ``phases`` accumulates parent-side seconds spent
    publishing traces, dispatching tasks and draining results.

    Chunked dispatch adds three counters: ``chunks_dispatched`` is the
    number of worker round-trips (so the mean chunk size is
    ``tasks_dispatched / chunks_dispatched``), ``units_recovered`` counts
    finished units whose records had arrived before their worker died
    mid-chunk, and ``units_retried`` counts unstarted units re-dispatched
    after such a crash (each retry also re-increments
    ``tasks_dispatched``).  ``pool_restarts`` counts worker processes
    replaced: one that died (mid-chunk or while idle) or that an
    abandoned :meth:`ExecutionEngine.run_plan` left mid-chunk.  Only that
    worker is replaced; the others keep running.

    Batched evaluation adds two more: ``batch_groups`` counts the
    same-trace groups workers evaluated in one stacked numpy pass and
    ``batch_units`` the units those groups covered (so
    ``batch_units / batch_groups`` is the mean group width).
    """

    workers: int = 0
    start_method: str = ""
    traces_published: int = 0
    shared_bytes: int = 0
    tasks_dispatched: int = 0
    chunks_dispatched: int = 0
    units_recovered: int = 0
    units_retried: int = 0
    batch_groups: int = 0
    batch_units: int = 0
    trace_attaches: int = 0
    trace_reuses: int = 0
    pool_restarts: int = 0
    phases: dict[str, float] = field(default_factory=dict)

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` against parent-side phase ``name``."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form for ``mbp ... --engine-stats`` and manifests."""
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "traces_published": self.traces_published,
            "shared_bytes": self.shared_bytes,
            "tasks_dispatched": self.tasks_dispatched,
            "chunks_dispatched": self.chunks_dispatched,
            "units_recovered": self.units_recovered,
            "units_retried": self.units_retried,
            "batch_groups": self.batch_groups,
            "batch_units": self.batch_units,
            "trace_attaches": self.trace_attaches,
            "trace_reuses": self.trace_reuses,
            "pool_restarts": self.pool_restarts,
            "phases": dict(self.phases),
        }


class ExecutionEngine:
    """Persistent worker processes with resident shared-memory traces.

    Parameters
    ----------
    workers:
        Worker process count (>= 1).  Defaults to ``os.cpu_count()``.
    start_method:
        ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` for the
        platform default.  Everything the engine ships is picklable, so
        all methods behave identically; ``spawn`` pays a per-worker
        interpreter startup but is immune to fork-unsafe state.
    window:
        Maximum in-flight units per :meth:`run_plan` call (default
        ``4 * workers``, at least 16).  Caps chunk sizes and the latency
        until a failure is observed.

    Use as a context manager; :meth:`close` is idempotent and also runs
    from a GC finalizer, so neither workers nor segments outlive the
    engine even if user code forgets the ``with``.
    """

    def __init__(self, workers: int | None = None, *,
                 start_method: str | None = None,
                 window: int | None = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.workers = workers
        self._context = get_context(start_method)
        self._window = window if window is not None else max(4 * workers, 16)
        #: Every live worker.  Mutated in place, never rebound: the GC
        #: finalizer holds this list.
        self._workers: list[_Worker] = []
        #: Live workers with no chunk, most recently used last.
        self._idle: list[_Worker] = []
        #: One mailbox per :meth:`run_plan` call waiting for a worker,
        #: first come first served; a freed worker goes to the oldest.
        self._waiting: deque[list[_Worker]] = deque()
        #: digest -> parent-side segment handle (the owning reference).
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: digest -> task descriptor for everything ever published.
        self._published: dict[str, SharedTrace] = {}
        #: (resolved path, mtime_ns, size) -> digest, so re-publishing
        #: the same file across sweep points skips the decode entirely.
        self._path_index: dict[tuple[str, int, int], str] = {}
        #: Per-thread: did the last :meth:`publish` create a segment?
        self._shipped = threading.local()
        self._closed = False
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        #: EMA of worker-measured seconds per unit; engine-lifetime, so
        #: later plans (sweep points, search rounds) start warm.
        self._unit_ema: float | None = None
        self._chunk_seq = 0
        self.stats = EngineStats(workers=workers,
                                 start_method=self._context.get_start_method())
        self._finalizer = weakref.finalize(
            self, _shutdown, self._workers, self._segments)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap every worker and unlink every shared segment.

        Each worker gets a stop message; one that has not exited within
        a few seconds is terminated.  Safe to call repeatedly; after it,
        the engine refuses new work.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._idle.clear()
            self._freed.notify_all()
        self._finalizer()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("ExecutionEngine is closed")

    # ------------------------------------------------------------------
    # Workers.  All of this state is shared by concurrent run_plan calls
    # (the serve daemon's plan threads) and only touched under the lock.
    # ------------------------------------------------------------------

    def _free_locked(self, worker: _Worker) -> None:
        """Hand an idle ``worker`` to the oldest waiting call, or park it."""
        if self._waiting:
            self._waiting.popleft().append(worker)
            self._freed.notify_all()
        else:
            self._idle.append(worker)

    def _checkout(self, wait: bool) -> _Worker | None:
        """An idle worker for one chunk, or ``None`` when none is free
        and ``wait`` is false.

        Missing workers (the first call, or replacements) are started
        here, still under the lock: a forked worker inherits every lock
        as it was at the fork, and :meth:`publish` holds the resource
        tracker's lock while it registers a segment.  A worker forked
        during another thread's publish would wait on that lock forever
        at its first attach.  An idle worker found dead (killed between
        chunks) is replaced on the spot.

        With ``wait``, the caller queues behind earlier waiters until a
        worker is freed; that is how calls sharing the engine take turns.
        """
        with self._lock:
            while True:
                self._check_open()
                while len(self._workers) < self.workers:
                    worker = _start_worker(self._context)
                    self._workers.append(worker)
                    self._free_locked(worker)
                if self._idle:
                    worker = self._idle.pop()
                    if worker.process.is_alive() and not worker.conn.poll():
                        return worker
                    # Readable while idle means its pipe closed.
                    self._workers.remove(worker)
                    self.stats.pool_restarts += 1
                    worker.process.kill()
                    worker.reap(_STOP_TIMEOUT)
                    continue
                if not wait:
                    return None
                mailbox: list[_Worker] = []
                self._waiting.append(mailbox)
                while not mailbox and not self._closed:
                    self._freed.wait()
                if mailbox:
                    return mailbox[0]
                self._waiting.remove(mailbox)

    def _checkin(self, worker: _Worker) -> None:
        """Return a worker whose chunk-end has been read."""
        with self._lock:
            self._free_locked(worker)

    def _retire(self, worker: _Worker, *, kill: bool = False) -> None:
        """Drop ``worker`` for good and reap it (killing it first when
        ``kill``).

        A call already waiting for a worker gets the replacement at
        once, started here under the lock like every other worker:
        waiters only wake for a worker handed to them, so leaving the
        start to the next checkout would strand them whenever the calls
        that retired workers never check out again.  Otherwise the next
        checkout starts it.
        """
        retired = False
        try:
            with self._lock:
                if worker not in self._workers:
                    return  # close() is stopping it already
                self._workers.remove(worker)
                retired = True
                self.stats.pool_restarts += 1
                if kill:
                    worker.process.kill()
                if self._waiting and not self._closed:
                    replacement = _start_worker(self._context)
                    self._workers.append(replacement)
                    self._free_locked(replacement)
        finally:
            if retired:
                worker.reap(_STOP_TIMEOUT)

    # ------------------------------------------------------------------
    # Trace publication.
    # ------------------------------------------------------------------

    def publish(self, trace: TraceLike) -> SharedTrace:
        """Ensure ``trace`` is resident in shared memory; return its ref.

        A path is digested from its (decompressed) bytes and decoded at
        most once per engine; an in-memory :class:`TraceData` is encoded
        for digesting, then copied into the segment.  Publishing the
        same content twice — same file, same data, or a file and its
        in-memory decode — is free after the first call.  Whether this
        call shipped the trace (created its segment) is left in
        ``self._shipped.last`` on the calling thread.
        """
        self._check_open()
        start = time.perf_counter()
        with self._lock:
            try:
                ref, self._shipped.last = self._publish_locked(trace)
                return ref
            finally:
                self.stats.add_phase("publish",
                                     time.perf_counter() - start)

    def _publish_locked(self, trace: TraceLike,
                        ) -> tuple[SharedTrace, bool]:
        from ..sbbt.digest import payload_digest

        data: TraceData | None = None
        path_key: tuple[str, int, int] | None = None
        if isinstance(trace, TraceData):
            from ..sbbt.writer import encode_payload
            data = trace
            digest = payload_digest(encode_payload(trace))
        else:
            resolved = Path(trace).resolve()
            stat = resolved.stat()
            path_key = (str(resolved), stat.st_mtime_ns, stat.st_size)
            cached = self._path_index.get(path_key)
            if cached is not None:
                return self._published[cached], False
            # One read serves both the digest and (if new) the decode.
            from ..sbbt.compression import open_compressed
            from ..sbbt.reader import decode_payload
            with open_compressed(resolved, "rb") as stream:
                payload = stream.read()
            digest = payload_digest(payload)

        ref = self._published.get(digest)
        if ref is not None:
            if path_key is not None:
                self._path_index[path_key] = digest
            return ref, False

        if data is None:
            data = decode_payload(payload)

        segment = shared_memory.SharedMemory(
            create=True, size=_segment_size(len(data)))
        try:
            _pack_trace(data, segment.buf)
        except BaseException:  # pragma: no cover - copy cannot normally fail
            segment.close()
            segment.unlink()
            raise
        ref = SharedTrace(segment=segment.name, digest=digest,
                          num_branches=len(data),
                          num_instructions=data.num_instructions,
                          nbytes=segment.size)
        self._segments[digest] = segment
        self._published[digest] = ref
        if path_key is not None:
            self._path_index[path_key] = digest
        self.stats.traces_published += 1
        self.stats.shared_bytes += segment.size
        return ref, True

    @property
    def resident_traces(self) -> int:
        """How many distinct traces currently live in shared memory."""
        return len(self._segments)

    def segment_names(self) -> list[str]:
        """Names of the live shared-memory segments (for leak tests)."""
        return [segment.name for segment in self._segments.values()]

    # ------------------------------------------------------------------
    # Task execution.
    # ------------------------------------------------------------------

    def _observe_unit_seconds(self, seconds: float) -> None:
        """Fold one worker-measured per-unit timing into the cost EMA."""
        seconds = max(seconds, 1e-9)
        if self._unit_ema is None:
            self._unit_ema = seconds
        else:
            self._unit_ema = (_EMA_ALPHA * seconds
                              + (1.0 - _EMA_ALPHA) * self._unit_ema)

    def run_plan(self, plan: WorkPlan, *,
                 chunk: int | str = "auto",
                 batch: str | bool = "auto",
                 tracer: Any = None,
                 trace_parent: Any = None,
                 ) -> Iterator[tuple[int, Any]]:
        """Execute a :class:`~repro.core.plan.WorkPlan`; yield
        ``(plan index, outcome)`` pairs in **completion order**.

        Units are packed into *chunks* — several units per worker
        round-trip — so the per-dispatch overhead (pickling and pipe
        traffic) is paid once per chunk instead of once per unit.
        With ``chunk="auto"`` the size adapts to the measured per-unit
        cost: the first wave runs as singleton probe chunks, their
        worker-side timings seed an exponential moving average, and
        subsequent chunks target ~0.2 s of worker time each (never more
        than 64 units, never starving idle workers on the plan's tail).
        An integer ``chunk`` forces that size.  The cost estimate
        persists across plans, so sweeps and searches start warm after
        their first call.

        A chunk goes only to an idle worker, at most ``window`` units
        are in flight, and each chunk's outcomes are yielded once its
        chunk-end message has arrived.  Concurrent calls share the
        engine's ``workers`` processes and take turns for them.

        A worker crash loses as little as possible: the worker sent each
        finished unit's record home as it finished, so the records that
        arrived before the pipe closed are recovered, the next unit of
        the chunk takes one :class:`~repro.core.batch.TraceFailure`, and
        only the unstarted units are dispatched again.  Only the dead
        worker is replaced; chunks on the other workers run on, and the
        resident traces survive.  Abandoning the generator mid-plan
        replaces the workers it left mid-chunk, so no record of this
        call can reach another.

        With ``batch="auto"`` (the default) the dispatch queue is packed
        with *trace-digest affinity*: units over the same trace are made
        adjacent (digest buckets in first-appearance order, plan order
        within a bucket) so batch groups survive chunking intact, and
        each worker evaluates the same-digest vectorized units of its
        chunk as one stacked numpy pass
        (:func:`repro.core.vectorized.run_unit_group`) instead of unit
        by unit.  Results still come back per unit — outcome, record,
        spans and cache entry are unchanged in shape.  ``batch="off"``
        keeps plan-order dispatch and per-unit worker loops.

        Each call counts its own work and adds the tally to
        :attr:`stats` once, when it finishes, so concurrent calls never
        see each other's counts.  ``tracer`` (a :mod:`repro.tracing`
        object, nested under ``trace_parent``) receives an
        ``engine_dispatch`` span carrying this call's counts as
        attributes — ``task_dispatch`` / ``task_chunk`` / ``chunk_size``
        (mean chunk size = ``chunk_size / task_chunk``) /
        ``batch_groups`` / ``batch_units`` / ``context_reuse`` /
        ``trace_ship`` / ``trace_attach`` / ``trace_reuse`` — a
        ``chunk_dispatch`` child measuring the parent's time spent
        packing and sending chunks, one ``unit`` span per unit
        (closed with ``status="error"`` for poisoned and failed units),
        and the worker-emitted ``attach`` / ``simulate`` spans that ship
        back inside each unit's record — per-unit contexts ride the
        chunk payloads as wire dicts, so the parent/child links survive
        the process boundary.
        """
        self._check_open()
        fixed = normalize_chunk(chunk)
        use_batch = normalize_batch(batch)
        traced = tracer is not None and getattr(tracer, "enabled", False)
        dispatch_span = None
        if traced:
            dispatch_span = tracer.span(
                "engine_dispatch", parent=trace_parent,
                attributes={"workers": self.workers, "chunk": str(chunk),
                            "batch": "auto" if use_batch else "off"})
            dispatch_span.__enter__()
        #: plan index -> (context, wall start, perf start); entries stay
        #: across crash retries so a unit keeps one span for its lifetime.
        unit_meta: dict[int, tuple[Any, float, float]] = {}

        def _close_unit(index: int, *, status: str = "ok",
                        extra: dict[str, Any] | None = None) -> None:
            meta = unit_meta.pop(index, None)
            if meta is None:
                return
            ctx, wall, perf = meta
            attrs: dict[str, Any] = {"unit": plan[index].name}
            if extra:
                attrs.update(extra)
            tracer.add_span("unit", time.perf_counter() - perf,
                            context=ctx, start=wall, status=status,
                            attributes=attrs)

        start = time.perf_counter()
        #: This call's counts: the engine_dispatch span attributes.
        tally = dict.fromkeys(FUNNEL_SPANS["engine_dispatch"], 0)
        units_recovered = units_retried = 0

        from .batch import TraceFailure

        # Publish per unit, not en masse: one unreadable trace becomes
        # that unit's TraceFailure (matching the inline path's isolation
        # contract) instead of aborting the whole plan.  Units over the
        # same trace (same object or path) share one successful publish;
        # a failed one is retried, so each of its units records its own.
        refs: dict[int, SharedTrace] = {}
        published: dict[tuple[str, Any], SharedTrace] = {}
        done: deque[tuple[int, Any]] = deque()
        for index, unit in enumerate(plan):
            identity = _trace_identity(unit.trace)
            ref = published.get(identity)
            if ref is None:
                try:
                    ref = published[identity] = self.publish(unit.trace)
                    tally["trace_ship"] += self._shipped.last
                except Exception as exc:  # noqa: BLE001 - caller-facing
                    done.append((index, TraceFailure(
                        trace_name=unit.name,
                        error=f"{type(exc).__name__}: {exc}",
                        details=traceback.format_exc(),
                        stage="trace",
                    )))
                    continue
            refs[index] = ref
        if use_batch:
            # Trace-digest affinity: make same-trace units adjacent in
            # the dispatch queue (digest buckets in first-appearance
            # order, plan order within each bucket) so chunk packing
            # hands workers whole batch groups instead of shredding
            # them across round-trips.  Yield order is unaffected —
            # the caller realigns by plan index.
            by_digest: dict[str, list[int]] = {}
            for i in range(len(plan)):
                if i in refs:
                    by_digest.setdefault(refs[i].digest, []).append(i)
            queue: deque[int] = deque(
                i for bucket in by_digest.values() for i in bucket)
        else:
            queue = deque(i for i in range(len(plan)) if i in refs)
        tally["task_dispatch"] = len(queue)
        #: worker -> (chunk id, plan indices in chunk order, the records
        #: received so far keyed by chunk position).
        busy: dict[_Worker, tuple[int, list[int], dict[int, tuple]]] = {}
        units_in_flight = 0
        chunk_phase = 0.0

        def _dispatch() -> None:
            """Send chunks to idle workers.  With nothing in flight, wait
            for a worker, so this returns with work in flight or with
            the queue empty."""
            nonlocal units_in_flight, chunk_phase
            while queue and units_in_flight < self._window:
                worker = self._checkout(wait=not busy)
                if worker is None:
                    break
                submit_start = time.perf_counter()
                if fixed is not None:
                    size = fixed
                else:
                    size = chunk_cost_size(
                        self._unit_ema, len(queue), self.workers,
                        target_seconds=_TARGET_CHUNK_SECONDS,
                        max_chunk=_MAX_CHUNK_UNITS)
                size = max(1, min(size, len(queue),
                                  self._window - units_in_flight))
                indices = [queue.popleft() for _ in range(size)]
                with self._lock:
                    self._chunk_seq += 1
                    chunk_id = self._chunk_seq
                if traced:
                    for i in indices:
                        if i not in unit_meta:  # crash retries keep theirs
                            unit_meta[i] = (
                                tracer.child(dispatch_span.context),
                                time.time(), time.perf_counter())
                items = [
                    (plan[i].factory, refs[i], plan[i].config, plan[i].name,
                     plan[i].probe, plan[i].sim_engine,
                     unit_meta[i][0].to_wire() if traced else None)
                    for i in indices
                ]
                try:
                    payload = ForkingPickler.dumps(
                        (chunk_id, items, use_batch))
                except Exception as exc:  # noqa: BLE001 - unpicklable unit
                    # Sending again would fail the same way: fail the
                    # chunk's units instead of retrying them.
                    self._checkin(worker)
                    for i in indices:
                        if traced:
                            _close_unit(i, status="error",
                                        extra={"error": type(exc).__name__})
                        done.append((i, TraceFailure(
                            trace_name=plan[i].name,
                            error=f"{type(exc).__name__}: {exc}",
                            details=traceback.format_exc())))
                    continue
                try:
                    worker.conn.send_bytes(payload)
                except OSError:
                    # It died after the checkout's liveness check:
                    # replace it and go on.
                    queue.extendleft(reversed(indices))
                    self._retire(worker)
                    continue
                finally:
                    chunk_phase += time.perf_counter() - submit_start
                tally["task_chunk"] += 1
                tally["chunk_size"] += size
                busy[worker] = (chunk_id, indices, {})
                units_in_flight += size

        def _settle(worker: _Worker, info: dict[str, int] | None) -> None:
            """Deliver a chunk's records, at its chunk-end (``info``) or
            after its worker died (``None``).  After a death the records
            that arrived are recovered, the first unit without one takes
            the blame, the rest go back on the queue, and the worker is
            replaced."""
            nonlocal units_in_flight, units_recovered, units_retried
            chunk_id, indices, records = busy.pop(worker)
            units_in_flight -= len(indices)
            crashed = info is None
            if crashed:
                self._retire(worker)
            else:
                self._checkin(worker)
                for name, count in info.items():
                    tally[name] += count
            poisoned = False
            retry: list[int] = []
            for position, index in enumerate(indices):
                if position in records:
                    outcome, attached, elapsed, spans = records[position]
                    tally["trace_attach" if attached else "trace_reuse"] += 1
                    self._observe_unit_seconds(elapsed)
                    units_recovered += crashed
                    if traced:
                        tracer.record_wire(spans)
                        _close_unit(index, status=(
                            "error" if isinstance(outcome, TraceFailure)
                            else "ok"),
                            extra={"recovered": True} if crashed else None)
                    done.append((index, outcome))
                elif not poisoned:
                    # The unit that was (presumably) running when the
                    # worker died.  Its worker cannot ship spans any
                    # more, so the parent closes its span.
                    poisoned = True
                    if traced:
                        _close_unit(index, status="error",
                                    extra={"error": "WorkerCrashed"})
                    done.append((index, TraceFailure(
                        trace_name=plan[index].name,
                        error=(f"WorkerCrashed: engine worker "
                               f"{worker.process.pid} exited with code "
                               f"{worker.process.exitcode} during chunk "
                               f"{chunk_id}"))))
                else:
                    retry.append(index)
            if retry:
                units_retried += len(retry)
                queue.extendleft(reversed(retry))

        def _receive() -> None:
            """Block until a busy worker has news; read all of it."""
            handles: dict[Any, _Worker] = {}
            for worker in busy:
                handles[worker.conn] = worker
                handles[worker.process.sentinel] = worker
            for handle in wait(list(handles)):
                worker = handles[handle]
                if worker not in busy:
                    continue  # pipe and sentinel both fired
                chunk_id, _, records = busy[worker]
                try:
                    while worker.conn.poll():
                        message = worker.conn.recv()
                        if message[0] != chunk_id:
                            raise SimulationError(
                                f"engine worker sent a record of chunk "
                                f"{message[0]} during chunk {chunk_id}")
                        if len(message) == 2:
                            _settle(worker, message[1])
                            break
                        _, position, *record = message
                        records[position] = tuple(record)
                    else:
                        if not worker.process.is_alive():
                            _settle(worker, None)  # pipe drained, no end
                except (EOFError, OSError):
                    _settle(worker, None)

        try:
            while True:
                _dispatch()
                while done:
                    yield done.popleft()
                if not busy:
                    break
                _receive()
        finally:
            # An abandoned call leaves its chunks running: replace those
            # workers rather than read stale records into another plan.
            for worker in list(busy):
                self._retire(worker, kill=True)
            elapsed = time.perf_counter() - start
            with self._lock:
                stats = self.stats
                stats.tasks_dispatched += tally["chunk_size"]
                stats.chunks_dispatched += tally["task_chunk"]
                stats.batch_groups += tally["batch_groups"]
                stats.batch_units += tally["batch_units"]
                stats.trace_attaches += tally["trace_attach"]
                stats.trace_reuses += tally["trace_reuse"]
                stats.units_recovered += units_recovered
                stats.units_retried += units_retried
                stats.add_phase("dispatch", elapsed)
                stats.add_phase("chunk_dispatch", chunk_phase)
            if dispatch_span is not None:
                # An abandoned generator leaves units open; error them so
                # the trace shows they never completed.
                for index in list(unit_meta):
                    _close_unit(index, status="error",
                                extra={"error": "abandoned"})
                tracer.add_span("chunk_dispatch", chunk_phase,
                                parent=dispatch_span.context)
                for name, count in tally.items():
                    dispatch_span.set_attribute(name, count)
                dispatch_span.__exit__(None, None, None)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"ExecutionEngine(workers={self.workers}, "
                f"start_method={self.stats.start_method!r}, "
                f"resident_traces={self.resident_traces}, {state})")
