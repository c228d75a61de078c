"""Persistent execution engine with shared-memory trace distribution.

The paper's headline claim is *throughput*: MBPlib simulates whole trace
suites ~11x faster than the CBP5 framework and ~30x faster than ChampSim
(Table III).  The C++ binary pays its orchestration cost once — traces
are decoded once, and every (configuration, trace) run happens inside
one long-lived process.  The Python evaluation drivers historically did
not: every :func:`repro.core.batch.run_suite` call forked a fresh
``ProcessPoolExecutor`` and pickled each trace payload to a worker per
task, so a 20-point sweep re-shipped every trace 20 times and re-forked
the pool 20 times.

:class:`ExecutionEngine` removes that overhead:

* **one pool** — worker processes are created lazily on the first
  dispatch and reused for every subsequent suite, sweep point or search
  evaluation until :meth:`ExecutionEngine.close`;
* **one decode, one ship** — each distinct trace (identified by its
  canonical SBBT content digest) is decoded in the parent once and
  published once into a :mod:`multiprocessing.shared_memory` segment
  holding the five :class:`~repro.sbbt.trace.TraceData` column arrays
  back to back.  Workers attach the segment the first time they see the
  digest and reconstruct **zero-copy** numpy views over the shared
  buffer; every later task over the same trace reuses the resident
  views and ships only a ~100-byte descriptor;
* **streamed completion** — tasks are submitted in a bounded window and
  results are consumed with ``as_completed`` semantics, so one slow
  trace never delays the recording of the others and memory stays
  bounded for arbitrarily long task lists;
* **adaptive chunked dispatch** — :meth:`ExecutionEngine.run_plan`
  consumes :class:`~repro.core.plan.WorkPlan` batches and packs several
  work units into each worker round-trip, sized from the measured
  per-unit cost, so cheap units (small traces, big sweeps) no longer pay
  one pickle/IPC/future round-trip each — the overhead that used to make
  a parallel suite slower than a serial one.  Multi-unit chunks
  checkpoint finished outcomes to a spool, so a worker crash mid-chunk
  loses exactly one unit.

Lifecycle is context-managed: ``with ExecutionEngine(workers=4) as
engine: ...`` guarantees the pool is shut down and every shared-memory
segment is unlinked — also on worker crashes (the pool is replaced, the
segments survive until ``close``) and under both the ``fork`` and
``spawn`` start methods.  A :mod:`weakref` finalizer backstops segment
cleanup if an engine is dropped without ``close``.

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
import pickle
import tempfile
import threading
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, Union

import numpy as np

from ..sbbt.trace import TraceData
from ..telemetry.instrumentation import FUNNEL_SPANS
from .errors import SimulationError
from .output import SimulationResult
from .plan import (WorkPlan, chunk_cost_size, normalize_batch,
                   normalize_chunk)
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
    block — one pool and one trace shipment for the whole suite, sweep
    or search — and ``workers == 1`` yields ``None`` (serial in-process
    execution).
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
    # time; pool workers share the parent's tracker process (its fd is
    # inherited under fork and passed explicitly under spawn), and the
    # tracker's per-type cache is a set, so the duplicate is a no-op and
    # the parent's unlink-on-close remains the single cleanup point.
    # (Explicitly unregistering here would *remove* the parent's
    # registration from the shared tracker — bpo-38119 only bites when
    # attacher and creator have separate trackers, which a pool never
    # does.)
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
    the classic pool path), ``attached`` feeds the parent's
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


def _spool_file(spool_dir: str, chunk_id: str, position: int) -> str:
    return os.path.join(spool_dir, f"{chunk_id}-{position}.res")


def _spool_write(spool_dir: str, chunk_id: str, position: int,
                 payload: tuple[Any, bool, list]) -> None:
    """Persist one finished unit's (outcome, attached, spans) atomically.

    Best-effort: a spool write failure only degrades crash recovery for
    this chunk (the unit would be re-simulated), it never fails the unit.
    """
    final = _spool_file(spool_dir, chunk_id, position)
    tmp = f"{final}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as stream:
            pickle.dump(payload, stream)
        os.replace(tmp, final)
    except Exception:  # noqa: BLE001 - recovery is advisory
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _spool_load(spool_dir: str, chunk_id: str, count: int,
                ) -> dict[int, tuple[Any, bool, list]]:
    """Outcomes a crashed chunk managed to finish, keyed by position.

    Unreadable or half-written entries are treated as missing — the
    parent then re-runs (or fails) those units, which is always safe.
    """
    recovered: dict[int, tuple[Any, bool, list]] = {}
    for position in range(count):
        try:
            with open(_spool_file(spool_dir, chunk_id, position),
                      "rb") as stream:
                recovered[position] = pickle.load(stream)
        except Exception:  # noqa: BLE001 - missing/corrupt = not finished
            continue
    return recovered


def _spool_clear(spool_dir: str, chunk_id: str, count: int) -> None:
    """Drop a chunk's spool entries (after they have been consumed)."""
    for position in range(count):
        try:
            os.unlink(_spool_file(spool_dir, chunk_id, position))
        except OSError:
            continue


def _engine_run_group(items: Sequence[_ChunkItem], positions: Sequence[int],
                      outcomes: list, info: dict[str, int],
                      spool_dir: str | None, chunk_id: str) -> None:
    """Worker task helper: run one same-digest batch group in stacked
    numpy passes (:func:`repro.core.vectorized.run_unit_group`).

    The shared trace is attached once; the group's elapsed time is
    attributed evenly across its units so the parent's chunk-size EMA
    sees the *batched* per-unit cost.  An attach failure fails every
    member (each would have failed identically alone).  Spool writes
    happen per unit after the group completes — a crash mid-group
    re-runs the whole group, which is safe and cheap (groups are one
    pass).
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
            record = (TraceFailure(
                trace_name=name,
                error=f"{type(exc).__name__}: {exc}",
                details=traceback.format_exc(),
            ), False, 0.0, spans)
            if spool_dir is not None:
                _spool_write(spool_dir, chunk_id, position,
                             (record[0], record[1], record[3]))
            outcomes[position] = record
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
        record = (results[offset], attached and offset == 0, share, spans)
        if spool_dir is not None:
            _spool_write(spool_dir, chunk_id, position,
                         (record[0], record[1], record[3]))
        outcomes[position] = record


def _engine_run_chunk(items: Sequence[_ChunkItem], spool_dir: str | None,
                      chunk_id: str, batch: bool = False,
                      ) -> tuple[list[tuple[Any, bool, float, list[dict]]],
                                 dict[str, int]]:
    """Worker task: simulate a whole chunk of resident-trace units.

    Returns ``(records, info)``: one ``(outcome, attached,
    elapsed_seconds, spans)`` record per unit, in chunk order, plus an
    ``info`` dict with the chunk's ``batch_groups`` / ``batch_units`` /
    ``context_reuse`` counts.  The per-unit timings feed the parent's
    adaptive chunk-size estimate and the spans (empty when tracing is
    off) ship the worker-side trace back.  When ``spool_dir`` is given
    (multi-unit chunks), every finished unit is also checkpointed to
    disk so a crash later in the chunk loses only the unit that was
    executing — finished units' spans survive the crash with their
    outcomes.

    With ``batch=True``, units sharing a trace digest whose
    ``sim_engine`` admits the vectorized engine are evaluated as one
    batched group (the parent's digest-affinity packing makes such
    groups common); the rest run per unit exactly as before.
    """
    outcomes: list[tuple[Any, bool, float, list[dict]] | None] = \
        [None] * len(items)
    info = {"batch_groups": 0, "batch_units": 0, "context_reuse": 0}
    batched: set[int] = set()
    if batch:
        groups: dict[str, list[int]] = {}
        for position, item in enumerate(items):
            if item[5] in ("vectorized", "auto"):
                groups.setdefault(item[1].digest, []).append(position)
        for positions in groups.values():
            if len(positions) >= 2:
                _engine_run_group(items, positions, outcomes, info,
                                  spool_dir, chunk_id)
                batched.update(positions)
    for position, (factory, ref, config, name, probe,
                   sim_engine, trace_wire) in enumerate(items):
        if position in batched:
            continue
        start = time.perf_counter()
        outcome, attached, spans = _engine_run_one(
            factory, ref, config, name, probe, sim_engine, trace_wire)
        elapsed = time.perf_counter() - start
        if spool_dir is not None:
            _spool_write(spool_dir, chunk_id, position,
                         (outcome, attached, spans))
        outcomes[position] = (outcome, attached, elapsed, spans)
    return outcomes, info


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
    finished units salvaged from the spool after a mid-chunk worker
    crash, and ``units_retried`` counts unstarted units re-dispatched
    after such a crash (each retry also re-increments
    ``tasks_dispatched``).

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
    """A persistent worker pool with resident shared-memory traces.

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
        Maximum in-flight units during :meth:`run_plan` (default
        ``4 * workers``, at least 16).  Bounds both executor queue
        growth and the latency until a failure is observed.

    Use as a context manager; :meth:`close` is idempotent and also runs
    from a GC finalizer, so segments cannot outlive the process even if
    user code forgets the ``with``.
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
        self._pool: ProcessPoolExecutor | None = None
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
        #: EMA of worker-measured seconds per unit; engine-lifetime, so
        #: later plans (sweep points, search rounds) start warm.
        self._unit_ema: float | None = None
        self._chunk_seq = 0
        #: Crash-recovery spool (created on first multi-unit chunk);
        #: TemporaryDirectory carries its own GC finalizer as a backstop.
        self._spool: tempfile.TemporaryDirectory | None = None
        self.stats = EngineStats(workers=workers,
                                 start_method=self._context.get_start_method())
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the pool and unlink every shared segment.

        Safe to call repeatedly; after it, the engine refuses new work.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        _release_segments(self._segments)
        if self._spool is not None:
            try:
                self._spool.cleanup()
            except OSError:  # pragma: no cover - already gone
                pass
            self._spool = None
        self._finalizer.detach()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("ExecutionEngine is closed")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live executor, (re)created lazily and after crashes.

        Locked, like every other piece of shared engine state: several
        :meth:`run_plan` generators (the serve daemon's plan threads)
        may ask at once, and exactly one pool must come out of it.

        The workers start here, still under the lock: a forked worker
        inherits every lock as it was at the fork, and :meth:`publish`
        holds the resource tracker's lock while it registers a segment.
        A worker forked during another thread's publish would wait on
        that lock forever at its first attach.  A no-op task makes the
        pool fork now.
        """
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self._context)
                self._pool.submit(int)
            return self._pool

    def _restart_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace ``broken`` after a worker died mid-task.

        A no-op when another generator already replaced it, so
        concurrent plans that all saw one crash restart the pool once.
        """
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = None
            self.stats.pool_restarts += 1
        broken.shutdown(wait=False, cancel_futures=True)

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

    def _spool_path(self) -> str:
        """The crash-recovery spool directory, created on first use.

        Creation is locked: concurrent ``run_plan`` generators (the
        serve daemon drives several at once) must agree on one spool,
        not race two ``TemporaryDirectory`` objects and leak one.
        """
        with self._lock:
            if self._spool is None:
                self._spool = tempfile.TemporaryDirectory(
                    prefix="mbp-engine-spool-")
            return self._spool.name

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
        round-trip — so the per-dispatch overhead (pickling, IPC, future
        bookkeeping) is paid once per chunk instead of once per unit.
        With ``chunk="auto"`` the size adapts to the measured per-unit
        cost: the first wave runs as singleton probe chunks, their
        worker-side timings seed an exponential moving average, and
        subsequent chunks target ~0.2 s of worker time each (never more
        than 64 units, never starving idle workers on the plan's tail).
        An integer ``chunk`` forces that size.  The cost estimate
        persists across plans, so sweeps and searches start warm after
        their first call.

        Submission stays windowed: at most ``window`` *units* are in
        flight, and finished chunks are immediately refilled, so
        arbitrarily long plans never flood the executor queue.

        A worker crash (``BrokenProcessPool``) loses as little as
        possible: multi-unit chunks checkpoint every finished unit's
        outcome to a parent-owned spool, so the parent recovers those
        results, records one :class:`~repro.core.batch.TraceFailure` for
        the unit that was executing, re-dispatches only the unstarted
        units, and replaces the pool — the engine (and its resident
        traces) survive the crash.

        With ``batch="auto"`` (the default) the dispatch queue is packed
        with *trace-digest affinity*: units over the same trace are made
        adjacent (digest buckets in first-appearance order, plan order
        within a bucket) so batch groups survive chunking intact, and
        each worker evaluates the same-digest vectorized units of its
        chunk as one stacked numpy pass
        (:func:`repro.core.vectorized.run_unit_group`) instead of unit
        by unit.  Results still come back per unit — outcome, spool
        checkpoint, spans and cache entry are unchanged in shape.
        ``batch="off"`` keeps plan-order dispatch and per-unit worker
        loops.

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
        packing and submitting chunks, one ``unit`` span per unit
        (closed with ``status="error"`` for poisoned and failed units),
        and the worker-emitted ``attach`` / ``simulate`` spans that ship
        back inside each chunk's results — per-unit contexts ride the
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
        # contract) instead of aborting the whole plan.
        refs: dict[int, SharedTrace] = {}
        publish_failures: list[tuple[int, TraceFailure]] = []
        for index, unit in enumerate(plan):
            try:
                refs[index] = self.publish(unit.trace)
                tally["trace_ship"] += self._shipped.last
            except Exception as exc:  # noqa: BLE001 - caller-facing record
                publish_failures.append((index, TraceFailure(
                    trace_name=unit.name,
                    error=f"{type(exc).__name__}: {exc}",
                    details=traceback.format_exc(),
                    stage="trace",
                )))
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
        #: future -> (chunk id, plan indices in chunk order, spool dir,
        #: the pool it was submitted to).
        in_flight: dict[Future, tuple[str, list[int], str | None,
                                      ProcessPoolExecutor]] = {}
        units_in_flight = 0
        chunk_phase = 0.0

        def _submit_chunks() -> None:
            nonlocal units_in_flight, chunk_phase
            submit_start = time.perf_counter()
            pool = self._ensure_pool()
            while queue and units_in_flight < self._window:
                if (fixed is None and self._unit_ema is None
                        and len(in_flight) >= self.workers):
                    break  # cold start: wait for a probe measurement
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
                    chunk_id = f"c{self._chunk_seq}"
                spool = self._spool_path() if size > 1 else None
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
                    future = pool.submit(_engine_run_chunk, items, spool,
                                         chunk_id, use_batch)
                except BrokenProcessPool:
                    # A worker of another plan's chunk died since this
                    # call fetched the pool: replace it and go on.
                    queue.extendleft(reversed(indices))
                    self._restart_pool(pool)
                    pool = self._ensure_pool()
                    continue
                tally["task_chunk"] += 1
                tally["chunk_size"] += size
                in_flight[future] = (chunk_id, indices, spool, pool)
                units_in_flight += size
            chunk_phase += time.perf_counter() - submit_start

        try:
            for index, failure in publish_failures:
                yield index, failure
            _submit_chunks()
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                broken: ProcessPoolExecutor | None = None
                for future in done:
                    chunk_id, indices, spool, submitted = \
                        in_flight.pop(future)
                    units_in_flight -= len(indices)
                    try:
                        payloads, chunk_info = future.result()
                        for name, count in chunk_info.items():
                            tally[name] += count
                    except Exception as exc:  # noqa: BLE001 - broken pool
                        crashed = isinstance(exc, BrokenProcessPool)
                        if crashed:
                            broken = submitted
                        recovered = (_spool_load(spool, chunk_id,
                                                 len(indices))
                                     if spool is not None else {})
                        poisoned = False
                        retry: list[int] = []
                        for position, index in enumerate(indices):
                            if position in recovered:
                                # Finished before the crash; the spooled
                                # outcome is as good as a returned one.
                                outcome, attached, spans = \
                                    recovered[position]
                                tally["trace_attach" if attached
                                      else "trace_reuse"] += 1
                                units_recovered += 1
                                if traced:
                                    tracer.record_wire(spans)
                                    _close_unit(index,
                                                extra={"recovered": True})
                                yield index, outcome
                            elif not poisoned:
                                # The unit that was (presumably) running
                                # when the worker died takes the blame.
                                # Its worker cannot ship spans any more,
                                # so the parent closes its span here.
                                poisoned = True
                                if traced:
                                    _close_unit(
                                        index, status="error",
                                        extra={"error":
                                               type(exc).__name__})
                                yield index, TraceFailure(
                                    trace_name=plan[index].name,
                                    error=f"{type(exc).__name__}: {exc}",
                                    details=traceback.format_exc(),
                                )
                            elif crashed:
                                retry.append(index)
                            else:
                                # Non-crash chunk failure (e.g. a result
                                # that cannot travel back): re-running
                                # would fail identically, so fail the
                                # unit instead of retrying forever.
                                if traced:
                                    _close_unit(
                                        index, status="error",
                                        extra={"error":
                                               type(exc).__name__})
                                yield index, TraceFailure(
                                    trace_name=plan[index].name,
                                    error=f"{type(exc).__name__}: {exc}",
                                    details=traceback.format_exc(),
                                )
                        if retry:
                            units_retried += len(retry)
                            queue.extendleft(reversed(retry))
                        if spool is not None:
                            _spool_clear(spool, chunk_id, len(indices))
                        continue
                    for position, index in enumerate(indices):
                        outcome, attached, elapsed, spans = \
                            payloads[position]
                        tally["trace_attach" if attached
                              else "trace_reuse"] += 1
                        self._observe_unit_seconds(elapsed)
                        if traced:
                            tracer.record_wire(spans)
                            _close_unit(
                                index,
                                status=("error" if isinstance(
                                    outcome, TraceFailure) else "ok"))
                        yield index, outcome
                    if spool is not None:
                        _spool_clear(spool, chunk_id, len(indices))
                if broken is not None:
                    self._restart_pool(broken)
                _submit_chunks()
        finally:
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
