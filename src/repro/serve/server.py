"""The ``mbp serve`` daemon: simulation as a long-running service.

The library already has every primitive a server needs — the
persistent :class:`~repro.core.engine.ExecutionEngine` (one worker
pool, traces resident in shared memory), the content-addressed
:class:`~repro.cache.SimulationCache` (deterministic results keyed by
*what* was simulated) and :func:`~repro.core.plan.execute_plan`, the
one cache-scan + dispatch funnel every driver lowers into.
:class:`MbpServer` composes them behind an asyncio front-end speaking
the newline-delimited JSON protocol of :mod:`repro.serve.protocol`.
Each ``simulate`` / ``suite`` / ``sweep`` request is lowered into one
:class:`~repro.core.plan.WorkPlan` and run by one ``execute_plan`` call
on a plan thread; replies, counters and error frames are built from
the outcomes it returns.

* **one engine, many clients** — every connection shares the worker
  pool and the resident-trace registry, so the Nth client simulating a
  trace pays no decode and no ship;
* **request coalescing** — identical in-flight work, keyed by the
  ``(trace digest, predictor spec, config)`` key the cache uses, is
  computed **once**: concurrent plans claim keys on the shared cache
  handle, later arrivals wait for the first computation and are
  counted as ``serve_coalesced``;
* **multi-tenant result store** — completed simulations land in the
  shared cache, so a result computed for one client serves every
  later client (and every later server over the same directory);
* **backpressure** — each client owns a bounded queue (an over-full
  client gets an immediate ``overloaded`` error, other clients are
  unaffected), queued work is drained **round-robin across clients**
  (one greedy client cannot starve the rest), concurrent plans are
  capped, and every request carries a server-side time budget that
  degrades into a clean ``timeout`` error frame — the underlying plan
  still completes and lands in the cache for the retry.

Observability rides :mod:`repro.telemetry`: the server keeps a
:class:`~repro.telemetry.PhaseTimers` whose counters
(``serve_requests``, ``serve_units``, ``serve_coalesced``,
``serve_cache_hits``, ``serve_cache_misses``, ``serve_timeouts``,
``serve_rejected``, ``serve_errors``) and phases
(``serve_cache_lookup``, ``serve_dispatch``) are reported — next to
the engine's own :class:`~repro.core.engine.EngineStats` and the
cache's :class:`~repro.cache.CacheStats` — by the ``stats`` operation
and by ``mbp client stats``.

Protocol reference, operational guide and examples: ``docs/serve.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..cache import SimulationCache, resolve_cache_dir
from ..core.output import SIMULATOR_VERSION, SimulationResult
from ..core.plan import WorkPlan, WorkUnit, execute_plan
from ..core.simulator import SimulationConfig
from ..telemetry import PhaseTimers
from ..tracing import (
    NULL_TRACER,
    JsonlSpanSink,
    SpanRecorder,
    TraceContext,
    resolve_trace_dir,
)
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ProtocolError,
    error_response,
    ok_response,
    validate_request,
)

__all__ = ["ServeConfig", "MbpServer", "ServerHandle", "start_in_thread"]

#: A plan's folded span counters and phases under their serve names.
_SERVE_COUNTERS = {
    "cache_hit": "serve_cache_hits",
    "cache_miss": "serve_cache_misses",
    "coalesced": "serve_coalesced",
    "batch_groups": "serve_batch_groups",
    "batch_units": "serve_batch_units",
    "context_reuse": "serve_context_reuse",
}
_SERVE_PHASES = {"cache_lookup": "serve_cache_lookup",
                 "simulate": "serve_dispatch"}

#: A failed unit's :attr:`~repro.core.batch.TraceFailure.stage` -> the
#: protocol error code it is reported with.
_FAILURE_CODES = {"trace": "bad_trace", "predictor": "bad_request",
                  "simulate": "simulation_failed"}


@dataclass(slots=True)
class ServeConfig:
    """Everything that shapes one :class:`MbpServer`.

    Exactly one listener is opened: a unix socket at ``socket_path``
    (the default transport), or TCP when ``host`` is set.  ``workers``
    selects the execution backend — ``>= 1`` wraps a persistent
    :class:`~repro.core.engine.ExecutionEngine` with that many worker
    processes; ``0`` runs each plan inline on the server's plan threads
    (no multiprocessing — handy for embedding, tests and doctests).
    ``max_inflight`` (default ``max(2, 2 * workers)``) caps how many
    requests run at once, and so how many plans execute concurrently.

    ``cache_dir=None`` resolves through
    :func:`repro.cache.resolve_cache_dir` (``MBP_CACHE_DIR``) and, when
    that is unset too, falls back to a private temporary directory that
    lives exactly as long as the server — the service is *always*
    cache-backed, because coalescing alone cannot serve a repeat
    request that arrives after the first one finished.

    ``trace_dir`` resolves through
    :func:`repro.tracing.resolve_trace_dir` (``MBP_TRACE_DIR``); when
    it lands on a directory, every request grows a span tree (queueing,
    the plan's cache lookup, coalescing and simulation down to the
    workers, reply encode) streamed to ``serve-<pid>.jsonl`` there.  Unset (the
    default), tracing is the zero-overhead null object.
    """

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    workers: int = 1
    start_method: str | None = None
    cache_dir: str | None = None
    trace_dir: str | None = None
    sim_engine: str = "auto"
    batch: str = "auto"
    max_queue: int = 64
    max_inflight: int | None = None
    request_timeout: float | None = 60.0
    max_request_bytes: int = DEFAULT_MAX_FRAME_BYTES
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.batch not in ("auto", "off"):
            raise ValueError(
                f"batch must be 'auto' or 'off', got {self.batch!r}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.socket_path is not None and self.host is not None:
            raise ValueError("configure a unix socket or TCP, not both")


@dataclass(slots=True)
class _Client:
    """Per-connection state: the bounded queue and the reply writer."""

    client_id: int
    writer: asyncio.StreamWriter
    queue: deque = field(default_factory=deque)
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class _Failure(Exception):
    """An operation unit failed; carries the protocol error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _predictor_factory(name: str,
                       parameters: dict[str, Any]) -> Callable[[], Any]:
    """A picklable zero-argument factory for ``name`` (+ overrides)."""
    from ..registry import UnknownPredictorError, predictor_factory

    try:
        return predictor_factory(name, parameters)
    except UnknownPredictorError as exc:
        raise ProtocolError("unknown_predictor", str(exc)) from None


class MbpServer:
    """The asyncio front-end over engine + cache (see module docstring).

    Lifecycle: ``await server.run()`` inside a fresh event loop (the
    CLI does this), or :func:`start_in_thread` for embedding.  A
    ``shutdown`` request, :meth:`request_shutdown` or cancelling
    ``run`` all drain cleanly: listeners close first, in-flight work
    is given ``drain_timeout`` seconds, then the engine is closed
    (unlinking every shared-memory segment) and the socket file is
    removed.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.telemetry = PhaseTimers()
        self.tracer = NULL_TRACER
        self._trace_sink: JsonlSpanSink | None = None
        self.cache: SimulationCache | None = None
        self.engine = None  # ExecutionEngine when workers >= 1
        self.bound: tuple | None = None  # ("unix", path) | ("tcp", host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._clients: dict[int, _Client] = {}
        self._next_client_id = 0
        self._rr_cursor = -1
        self._queued = 0
        self._queued_peak = 0
        self._work_available: asyncio.Event | None = None
        self._stop_event: asyncio.Event | None = None
        self._stopping = False
        self._scheduler_task: asyncio.Task | None = None
        self._job_slots: asyncio.Semaphore | None = None
        self._job_tasks: set[asyncio.Task] = set()
        #: Plans running or queued on the plan threads; a timed-out
        #: request's plan stays here until it lands in the cache.
        self._plan_futures: set[asyncio.Future] = set()
        self._plans: ThreadPoolExecutor | None = None
        self._tmp_cache: tempfile.TemporaryDirectory | None = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Open the listener and start the scheduler."""
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._work_available = asyncio.Event()
        self._stop_event = asyncio.Event()
        inflight = cfg.max_inflight
        if inflight is None:
            inflight = max(2, 2 * cfg.workers)
        # Job slots make the queue bound real: work beyond `inflight`
        # concurrent requests *stays queued* (where round-robin picks
        # it and the overloaded bound can see it) instead of unrolling
        # into unbounded in-flight tasks.  The plan threads are the
        # matching cap on concurrent execute_plan calls.
        self._job_slots = asyncio.Semaphore(inflight)
        self._plans = ThreadPoolExecutor(
            max_workers=inflight, thread_name_prefix="mbp-serve-plan")

        cache_dir = resolve_cache_dir(cfg.cache_dir)
        if cache_dir is None:
            self._tmp_cache = tempfile.TemporaryDirectory(prefix="mbp-serve-")
            cache_dir = self._tmp_cache.name
        self.cache = SimulationCache(cache_dir)

        trace_dir = resolve_trace_dir(cfg.trace_dir)
        if trace_dir is not None:
            self._trace_sink = JsonlSpanSink(
                Path(trace_dir) / f"serve-{os.getpid()}.jsonl")
            self.tracer = SpanRecorder(sink=self._trace_sink)

        if cfg.workers >= 1:
            from ..core.engine import ExecutionEngine

            self.engine = ExecutionEngine(workers=cfg.workers,
                                          start_method=cfg.start_method)

        limit = cfg.max_request_bytes + 2
        if cfg.host is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, cfg.host, cfg.port, limit=limit)
            sockname = self._server.sockets[0].getsockname()
            self.bound = ("tcp", sockname[0], sockname[1])
        else:
            path = cfg.socket_path or "mbp-serve.sock"
            with contextlib.suppress(OSError):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path, limit=limit)
            self.bound = ("unix", str(path))
        self._scheduler_task = asyncio.ensure_future(self._scheduler())

    async def run(self, *, ready: threading.Event | None = None) -> None:
        """Start, serve until shutdown is requested, then drain."""
        await self.start()
        try:
            if ready is not None:
                ready.set()
            await self._stop_event.wait()
        finally:
            await self._shutdown()

    def request_shutdown(self) -> None:
        """Ask a running server to stop (safe from any thread)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        with contextlib.suppress(RuntimeError):
            # The loop may already be closed: stopping twice is a no-op.
            loop.call_soon_threadsafe(event.set)

    async def _shutdown(self) -> None:
        self._stopping = True
        self._stop_event.set()
        self._work_available.set()  # wake the scheduler so it can exit
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scheduler_task
        # Unprocessed queue entries get a clean refusal, not silence.
        for client in list(self._clients.values()):
            while client.queue:
                request, _, _ = client.queue.popleft()
                self._queued -= 1
                await self._send(client, error_response(
                    request.get("id"), "shutting_down",
                    "server is shutting down"))
        pending = [task for task in (*self._job_tasks, *self._plan_futures)
                   if not task.done()]
        if pending:
            done, live = await asyncio.wait(
                pending, timeout=self.config.drain_timeout)
            for task in live:
                task.cancel()
            if live:
                await asyncio.wait(live, timeout=1.0)
        for client in list(self._clients.values()):
            client.writer.close()
            with contextlib.suppress(Exception):
                await client.writer.wait_closed()
        self._clients.clear()
        if self.engine is not None:
            self.engine.close()
        if self._plans is not None:
            self._plans.shutdown(wait=False, cancel_futures=True)
        if self.bound is not None and self.bound[0] == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self.bound[1])
        if self._trace_sink is not None:
            self._trace_sink.close()
        if self._tmp_cache is not None:
            with contextlib.suppress(OSError):
                self._tmp_cache.cleanup()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        client = _Client(self._next_client_id, writer)
        self._next_client_id += 1
        self._clients[client.client_id] = client
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The stream limit tripped: the line boundary is
                    # lost, so reply and close this connection.
                    self.telemetry.count("serve_errors")
                    await self._send(client, error_response(
                        None, "too_large",
                        f"request frame exceeds "
                        f"{self.config.max_request_bytes} bytes"))
                    break
                if not line:
                    break
                await self._handle_frame(client, line)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._clients.pop(client.client_id, None)
            self._queued -= len(client.queue)
            client.queue.clear()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_frame(self, client: _Client, line: bytes) -> None:
        from .protocol import decode_frame

        request_id = None
        try:
            frame = decode_frame(
                line, max_bytes=self.config.max_request_bytes)
            request_id = frame.get("id")
            request = validate_request(frame)
        except ProtocolError as exc:
            self.telemetry.count("serve_errors")
            await self._send(client, error_response(
                request_id, exc.code, exc.message))
            return
        self.telemetry.count("serve_requests")
        op = request["op"]
        if self._stopping:
            await self._send(client, error_response(
                request_id, "shutting_down", "server is shutting down"))
            return
        # Control operations answer inline and never queue.
        if op == "ping":
            await self._send(client, ok_response(request_id, "ping", {
                "server": "mbp-serve", "version": SIMULATOR_VERSION}))
            return
        if op == "stats":
            await self._send(client, ok_response(
                request_id, "stats", await self._stats_payload()))
            return
        if op == "shutdown":
            await self._send(client, ok_response(
                request_id, "shutdown", {"stopping": True}))
            self._stop_event.set()
            return
        # Work operations: bounded per-client queue = the backpressure
        # edge.  A full queue refuses *this* client only.
        if len(client.queue) >= self.config.max_queue:
            self.telemetry.count("serve_rejected")
            await self._send(client, error_response(
                request_id, "overloaded",
                f"client queue is full ({self.config.max_queue} pending); "
                "retry after a response arrives"))
            return
        # Entries carry their enqueue stamps so the request's trace can
        # show queueing time as its own span.
        client.queue.append((request, time.time(), time.perf_counter()))
        self._queued += 1
        self._queued_peak = max(self._queued_peak, self._queued)
        self._work_available.set()

    async def _send(self, client: _Client, frame: dict[str, Any]) -> None:
        from .protocol import encode_frame

        data = encode_frame(frame)
        try:
            async with client.write_lock:
                client.writer.write(data)
                await client.writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; its result stays in the cache

    # ------------------------------------------------------------------
    # Scheduling: round-robin fairness across client queues.
    # ------------------------------------------------------------------

    def _pick_job(self) -> tuple[_Client, dict[str, Any],
                                 float, float] | None:
        """The next queued request, rotating across clients by id."""
        waiting = sorted(cid for cid, client in self._clients.items()
                         if client.queue)
        if not waiting:
            return None
        chosen = next((cid for cid in waiting if cid > self._rr_cursor),
                      waiting[0])
        self._rr_cursor = chosen
        client = self._clients[chosen]
        request, enqueued_wall, enqueued_perf = client.queue.popleft()
        self._queued -= 1
        return client, request, enqueued_wall, enqueued_perf

    async def _scheduler(self) -> None:
        while True:
            await self._job_slots.acquire()
            picked = self._pick_job()
            while picked is None:
                if self._stopping:
                    self._job_slots.release()
                    return
                self._work_available.clear()
                await self._work_available.wait()
                picked = self._pick_job()
            client, request, enqueued_wall, enqueued_perf = picked
            task = asyncio.ensure_future(
                self._run_job(client, request, enqueued_wall, enqueued_perf))
            self._job_tasks.add(task)
            task.add_done_callback(self._finish_job)

    def _finish_job(self, task: asyncio.Task) -> None:
        self._job_tasks.discard(task)
        self._job_slots.release()

    async def _run_job(self, client: _Client, request: dict[str, Any],
                       enqueued_wall: float, enqueued_perf: float) -> None:
        request_id = request["id"]
        op = request["op"]
        trace_id = request.get("trace_id")
        answer = {"simulate": self._answer_simulate,
                  "suite": self._answer_suite,
                  "sweep": self._answer_sweep}[op]
        trc = self.tracer
        # One root span per request; a client-chosen trace_id links the
        # server-side tree into the client's own trace.
        with trc.span("serve_request", trace_id=trace_id,
                      attributes={"op": op,
                                  "client": client.client_id}) as req_span:
            ctx = req_span.context
            trc.add_span("serve_queue",
                         time.perf_counter() - enqueued_perf,
                         parent=ctx, start=enqueued_wall,
                         attributes={"depth": self._queued})
            try:
                if self.config.request_timeout is not None:
                    payload = await asyncio.wait_for(
                        answer(request, ctx), self.config.request_timeout)
                else:
                    payload = await answer(request, ctx)
                frame = ok_response(request_id, op, payload)
            except asyncio.TimeoutError:
                self.telemetry.count("serve_timeouts")
                req_span.set_status("error")
                frame = error_response(
                    request_id, "timeout",
                    f"request exceeded the server's "
                    f"{self.config.request_timeout:g}s budget (the "
                    "computation continues and will serve a retry from "
                    "the cache)")
            except ProtocolError as exc:
                self.telemetry.count("serve_errors")
                req_span.set_status("error")
                frame = error_response(request_id, exc.code, exc.message)
            except _Failure as exc:
                self.telemetry.count("serve_errors")
                req_span.set_status("error")
                frame = error_response(request_id, exc.code, exc.message)
            except Exception as exc:  # noqa: BLE001 - never drop a reply
                self.telemetry.count("serve_errors")
                req_span.set_status("error")
                frame = error_response(
                    request_id, "internal", f"{type(exc).__name__}: {exc}")
            if trace_id is not None:
                frame["trace_id"] = trace_id
            with trc.span("serve_reply", parent=ctx,
                          attributes={"ok": bool(frame.get("ok"))}):
                await self._send(client, frame)

    # ------------------------------------------------------------------
    # Operations: each request runs as one WorkPlan.
    # ------------------------------------------------------------------

    async def _run_plan(self, plan: WorkPlan,
                        ctx: TraceContext | None = None) -> list[Any]:
        """Run ``plan`` on a plan thread; return its outcomes.

        Shielded: a timed-out requester must not cancel a queued plan,
        which still finishes into the cache for the retry.
        """
        self.telemetry.count("serve_units", len(plan))
        future = asyncio.get_running_loop().run_in_executor(
            self._plans, self._execute, plan, ctx)
        self._plan_futures.add(future)
        future.add_done_callback(self._plan_futures.discard)
        return await asyncio.shield(future)

    def _execute(self, plan: WorkPlan,
                 ctx: TraceContext | None) -> list[Any]:
        """The daemon's one funnel (runs on a plan thread): cache scan,
        coalescing and dispatch all happen in :func:`execute_plan`,
        whose spans are folded into the ``serve_*`` names.  When tracing
        is on, the plan's recorder writes each span to the daemon's log
        as it closes, so a plan that never finishes still leaves its
        finished spans on disk."""
        recorder = SpanRecorder(sink=self._trace_sink)
        outcomes = execute_plan(plan, engine=self.engine, cache=self.cache,
                                batch=self.config.batch, tracer=recorder,
                                trace_parent=ctx)
        timers = PhaseTimers.from_spans(recorder.spans)
        for name, count in timers.counters.items():
            if count and name in _SERVE_COUNTERS:
                self.telemetry.count(_SERVE_COUNTERS[name], count)
        for name, seconds in timers.phases.items():
            if name in _SERVE_PHASES:
                self.telemetry.add_phase(_SERVE_PHASES[name], seconds)
        return outcomes

    @staticmethod
    def _entries(units: Sequence[WorkUnit], outcomes: Sequence[Any],
                 ) -> tuple[list[dict], list[dict]]:
        """Reply entries for the results and failure records (with
        their protocol error codes) for the rest."""
        results: list[dict] = []
        failures: list[dict] = []
        for unit, outcome in zip(units, outcomes):
            if isinstance(outcome, SimulationResult):
                results.append({"trace": unit.trace,
                                "result": outcome.to_json(),
                                "from_cache": outcome.from_cache,
                                "coalesced": outcome.coalesced})
                continue
            code = _FAILURE_CODES[outcome.stage]
            message = outcome.error
            if code == "bad_request":
                message = f"cannot configure predictor: {message}"
            failures.append({"trace": unit.trace, "code": code,
                             "error": message})
        return results, failures

    @staticmethod
    def _sim_config(request: dict[str, Any]) -> SimulationConfig:
        return SimulationConfig(
            warmup_instructions=request["warmup"],
            max_instructions=request["max_instructions"])

    def _sim_engine(self, request: dict[str, Any]) -> str:
        return request["engine"] or self.config.sim_engine

    async def _answer_simulate(self, request: dict[str, Any],
                               ctx: TraceContext | None = None,
                               ) -> dict[str, Any]:
        plan = WorkPlan.for_suite(
            _predictor_factory(request["predictor"], request["parameters"]),
            [request["trace"]], self._sim_config(request),
            sim_engine=self._sim_engine(request))
        results, failures = self._entries(
            plan.units, await self._run_plan(plan, ctx))
        if failures:
            raise _Failure(failures[0]["code"], failures[0]["error"])
        entry = results[0]
        entry["predictor"] = request["predictor"]
        return entry

    @staticmethod
    def _aggregate(results: list[dict]) -> dict[str, Any]:
        mpkis = [entry["result"]["metrics"]["mpki"] for entry in results]
        mispredictions = sum(entry["result"]["metrics"]["mispredictions"]
                             for entry in results)
        instructions = sum(entry["result"]["metadata"]["simulation_instr"]
                           for entry in results)
        return {
            "mean_mpki": sum(mpkis) / len(mpkis) if mpkis else None,
            "aggregate_mpki": (1000.0 * mispredictions / instructions
                               if instructions else 0.0),
            "total_mispredictions": mispredictions,
            "cache_hits": sum(entry["from_cache"] for entry in results),
            "coalesced": sum(entry["coalesced"] for entry in results),
        }

    async def _answer_suite(self, request: dict[str, Any],
                            ctx: TraceContext | None = None,
                            ) -> dict[str, Any]:
        factory = _predictor_factory(request["predictor"],
                                     request["parameters"])
        plan = WorkPlan.for_suite(factory, request["traces"],
                                  self._sim_config(request),
                                  sim_engine=self._sim_engine(request))
        results, failures = self._entries(
            plan.units, await self._run_plan(plan, ctx))
        return {"predictor": request["predictor"], "results": results,
                "failures": failures, "aggregate": self._aggregate(results)}

    async def _answer_sweep(self, request: dict[str, Any],
                            ctx: TraceContext | None = None,
                            ) -> dict[str, Any]:
        all_parameters: list[dict[str, Any]] = []
        factories: list[tuple[int, Callable[[], Any]]] = []
        for tag, value in enumerate(request["values"]):
            parameters = dict(request["parameters"])
            parameters[request["parameter"]] = value
            all_parameters.append(parameters)
            factories.append(
                (tag, _predictor_factory(request["predictor"], parameters)))
        # One plan over the whole sweep: the config axis across points
        # is exactly what the batched evaluator stacks.
        plan = WorkPlan.for_points(factories, request["traces"],
                                   self._sim_config(request),
                                   sim_engine=self._sim_engine(request))
        outcomes = plan.group_outcomes(await self._run_plan(plan, ctx))
        units = plan.group_outcomes(plan.units)
        points: list[dict[str, Any]] = []
        for tag, parameters in enumerate(all_parameters):
            results, failures = self._entries(units.get(tag, []),
                                              outcomes.get(tag, []))
            point = {"parameters": parameters}
            point.update(self._aggregate(results))
            point["failures"] = failures
            points.append(point)
        scored = [point for point in points
                  if point["mean_mpki"] is not None]
        best = min(scored, key=lambda point: point["mean_mpki"],
                   default=None)
        return {
            "predictor": request["predictor"],
            "parameter": request["parameter"],
            "points": points,
            "best": None if best is None else {
                "parameters": best["parameters"],
                "mean_mpki": best["mean_mpki"],
            },
        }

    async def _stats_payload(self) -> dict[str, Any]:
        cache_stats = await asyncio.to_thread(self.cache.stats)
        # Plan threads tally while this runs: copy under the lock.
        tallies = self.telemetry.snapshot()
        return {
            "counters": tallies["counters"],
            "phases": tallies["phases"],
            "queue": {"depth": self._queued, "peak": self._queued_peak,
                      "limit_per_client": self.config.max_queue},
            "inflight": len(self._plan_futures),
            "clients": len(self._clients),
            "engine": (self.engine.stats.to_json()
                       if self.engine is not None else None),
            "cache": cache_stats.to_json(),
            "tracing": {
                "enabled": self.tracer.enabled,
                "log": (str(self._trace_sink.path)
                        if self._trace_sink is not None else None),
            },
            "server": {
                "workers": self.config.workers,
                "sim_engine": self.config.sim_engine,
                "batch": self.config.batch,
                "address": list(self.bound) if self.bound else None,
                "request_timeout": self.config.request_timeout,
            },
        }


# ----------------------------------------------------------------------
# Embedding: run a server on a background thread.
# ----------------------------------------------------------------------


class ServerHandle:
    """A server running on its own thread (from :func:`start_in_thread`).

    ``socket_path`` / ``address`` locate the listener; :meth:`stop`
    drains and joins.  Usable as a context manager.
    """

    def __init__(self, server: MbpServer, thread: threading.Thread):
        self.server = server
        self._thread = thread

    @property
    def address(self) -> tuple:
        """``("unix", path)`` or ``("tcp", host, port)``."""
        return self.server.bound

    @property
    def socket_path(self) -> str | None:
        """The unix socket path, or ``None`` for a TCP server."""
        bound = self.server.bound
        return bound[1] if bound and bound[0] == "unix" else None

    def stop(self, timeout: float = 60.0) -> None:
        """Request shutdown and wait for the server thread to exit."""
        self.server.request_shutdown()
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_thread(config: ServeConfig | None = None,
                    *, timeout: float = 60.0) -> ServerHandle:
    """Start an :class:`MbpServer` on a daemon thread and wait until
    it is accepting connections.

    The embedding entry point used by tests, doctests and notebook
    sessions; the CLI daemon (`mbp serve`) runs the loop on the main
    thread instead.
    """
    server = MbpServer(config)
    ready = threading.Event()
    startup_error: list[BaseException] = []

    def _runner() -> None:
        try:
            asyncio.run(server.run(ready=ready))
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            startup_error.append(exc)
        finally:
            ready.set()

    thread = threading.Thread(target=_runner, name="mbp-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout):
        server.request_shutdown()
        raise TimeoutError("mbp serve did not start within the timeout")
    if startup_error:
        raise RuntimeError(
            f"mbp serve failed to start: {startup_error[0]!r}")
    return ServerHandle(server, thread)
