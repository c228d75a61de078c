"""Batch simulation over trace suites.

The paper's evaluation methodology runs every predictor over whole suites
of traces and reports the slowest / average / fastest simulation time
(Table III).  This module is the harness for that: run a predictor factory
over many traces — serially or across processes — and aggregate timing
and MPKI distributions.

A *factory* (zero-argument callable returning a fresh
:class:`~repro.core.predictor.Predictor`) is used instead of a predictor
instance so every trace starts from cold state, exactly like launching a
fresh simulator binary per trace.

Two robustness/scale features beyond the paper:

* ``cache=`` plugs in a :class:`repro.cache.SimulationCache` (or just a
  directory path): traces whose results are already cached are served
  without simulating — cache hits bypass the worker pool entirely and
  are excluded from :attr:`BatchResult.timing`.
* per-trace failures are wrapped into :class:`TraceFailure` records that
  name the offending trace; the rest of the suite always completes.  The
  default (``on_error="raise"``) then raises a :class:`SuiteError`
  carrying the partial results; ``on_error="collect"`` returns them in
  :attr:`BatchResult.failures` instead.

Observability: ``instrumentation=`` accepts :mod:`repro.telemetry`
phase timers, which then report where a suite's wall-clock went
(cache lookups vs. simulation) and how many traces hit the cache; a
finished :class:`BatchResult` can be turned into a provenance document
with :func:`repro.telemetry.suite_manifest`.
"""

from __future__ import annotations

import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from ..sbbt.trace import TraceData
from .errors import SimulationError
from .output import SimulationResult
from .plan import WorkPlan, execute_plan
from .predictor import Predictor
from .simulator import SimulationConfig, simulate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..cache import SimulationCache
    from ..telemetry.instrumentation import Instrumentation
    from .engine import ExecutionEngine

__all__ = [
    "TimingSummary",
    "BatchResult",
    "TraceFailure",
    "TraceSimulationError",
    "SuiteError",
    "run_suite",
]

PredictorFactory = Callable[[], Predictor]
TraceLike = Union[TraceData, str, Path]
CacheLike = Union["SimulationCache", str, Path, None]


@dataclass(frozen=True, slots=True)
class TimingSummary:
    """Slowest / average / fastest of a set of per-trace wall times.

    The exact aggregation Table III reports for each (simulator,
    predictor) pair.
    """

    slowest: float
    average: float
    fastest: float
    total: float

    @classmethod
    def from_times(cls, times: Sequence[float]) -> "TimingSummary":
        """Aggregate a non-empty sequence of wall-clock times."""
        if not times:
            raise ValueError("cannot summarize an empty set of times")
        return cls(
            slowest=max(times),
            average=statistics.fmean(times),
            fastest=min(times),
            total=sum(times),
        )

    @classmethod
    def zero(cls) -> "TimingSummary":
        """The all-zero summary (a suite served entirely from cache)."""
        return cls(slowest=0.0, average=0.0, fastest=0.0, total=0.0)


@dataclass(frozen=True, slots=True)
class TraceFailure:
    """One trace that could not be simulated.

    ``details`` carries the worker-side traceback text, so a failure in a
    child process is as debuggable as an inline one.
    """

    trace_name: str
    error: str
    details: str = ""

    def __str__(self) -> str:
        return f"{self.trace_name}: {self.error}"


class TraceSimulationError(SimulationError):
    """A single trace of a suite failed; names the trace, keeps the rest."""

    def __init__(self, failure: TraceFailure):
        super().__init__(str(failure))
        self.failure = failure


class SuiteError(SimulationError):
    """One or more traces of a suite failed (the rest completed).

    ``partial`` holds the :class:`BatchResult` of every trace that did
    succeed (already cached, if a cache was in use), so a long suite
    interrupted by one bad file loses nothing.
    """

    def __init__(self, failures: Sequence[TraceFailure],
                 partial: "BatchResult"):
        names = ", ".join(f.trace_name for f in failures)
        super().__init__(
            f"{len(failures)} of {len(failures) + len(partial.results)} "
            f"traces failed: {names}"
        )
        self.failures = list(failures)
        self.partial = partial


@dataclass(slots=True)
class BatchResult:
    """Results of one predictor over a suite of traces."""

    results: list[SimulationResult]
    failures: list[TraceFailure] = field(default_factory=list)

    @property
    def timing(self) -> TimingSummary:
        """Slowest/average/fastest simulation time across the suite.

        Cache hits are excluded — their stored times describe the run
        that populated the cache, not this one.  A suite answered
        entirely from cache — or one with no successful results at all
        (every trace failed) — reports :meth:`TimingSummary.zero`.
        """
        times = [r.simulation_time for r in self.results if not r.from_cache]
        if not times:
            return TimingSummary.zero()
        return TimingSummary.from_times(times)

    @property
    def cache_hits(self) -> int:
        """How many results were served from the cache."""
        return sum(1 for r in self.results if r.from_cache)

    @property
    def total_mispredictions(self) -> int:
        """Mispredictions summed over every trace."""
        return sum(r.mispredictions for r in self.results)

    @property
    def total_instructions(self) -> int:
        """Measured instructions summed over every trace."""
        return sum(r.simulation_instructions for r in self.results)

    def mean_mpki(self) -> float:
        """Arithmetic mean of per-trace MPKIs (the championship metric)."""
        if not self.results:
            raise ValueError("empty batch")
        return statistics.fmean(r.mpki for r in self.results)

    def aggregate_mpki(self) -> float:
        """MPKI over the pooled instruction stream of the whole suite."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * self.total_mispredictions / instructions

    def by_trace(self) -> dict[str, SimulationResult]:
        """Results keyed by trace name."""
        return {r.trace_name: r for r in self.results}


def _run_one(factory: PredictorFactory, trace: TraceLike,
             config: SimulationConfig, name: str | None,
             probe: bool = False,
             predictor: Predictor | None = None,
             sim_engine: str = "scalar"
             ) -> SimulationResult | TraceFailure:
    """Simulate one trace with a freshly constructed predictor.

    Never raises: any exception (bad trace file, failing factory,
    predictor bug) is wrapped into a :class:`TraceFailure` naming the
    trace, so a process-pool worker reports the real problem instead of
    surfacing an opaque late exception — and the rest of the suite keeps
    going.

    ``probe=True`` builds a fresh :class:`repro.probe.PredictionProbe`
    in the worker — one per trace, so process-pool runs never share
    accumulators — and the report travels back on the (picklable)
    result's ``probe_report``.

    ``predictor`` optionally supplies a pre-built **cold** instance to
    use instead of calling ``factory()`` — the spec-derivation instance
    :func:`repro.core.predictor.derive_spec` had to construct anyway.
    Callers must never pass a trained predictor here.
    """
    try:
        run_probe = None
        if probe:
            from ..probe import PredictionProbe
            run_probe = PredictionProbe()
        return simulate(predictor if predictor is not None else factory(),
                        trace, config, trace_name=name, probe=run_probe,
                        engine=sim_engine)
    except Exception as exc:  # noqa: BLE001 - deliberate fault barrier
        return TraceFailure(
            trace_name=name if name is not None else str(trace),
            error=f"{type(exc).__name__}: {exc}",
            details=traceback.format_exc(),
        )


def _resolve_cache(cache: CacheLike) -> "SimulationCache | None":
    """Accept a cache object or a directory path."""
    if cache is None:
        return None
    if isinstance(cache, (str, Path)):
        # Imported here: repro.cache depends on repro.core, so a
        # module-level import would be circular.
        from ..cache import SimulationCache
        return SimulationCache(cache)
    return cache


def run_suite(factory: PredictorFactory, traces: Sequence[TraceLike],
              config: SimulationConfig | None = None, *,
              names: Sequence[str] | None = None,
              workers: int = 1,
              engine: "ExecutionEngine | None" = None,
              cache: CacheLike = None,
              on_error: str = "raise",
              instrumentation: "Instrumentation | None" = None,
              probe: bool = False,
              sim_engine: str = "scalar",
              chunk: int | str = "auto",
              batch: str | bool = "auto",
              tracer: "Any" = None,
              trace_parent: "Any" = None,
              ) -> BatchResult:
    """Run a fresh predictor over every trace of a suite.

    Parameters
    ----------
    factory:
        Zero-argument callable building a cold predictor.  Must be
        picklable when ``workers > 1`` (module-level function or class).
    traces:
        Paths to SBBT traces or in-memory :class:`TraceData` objects.
    names:
        Optional display names (defaults to paths / ``trace[i]``).
    workers:
        Process count.  ``1`` (default) runs inline, which is also the
        right mode for timing measurements — parallel workers contend for
        cores and distort per-trace times.  ``workers > 1`` opens a
        private :class:`repro.core.engine.ExecutionEngine` for this call.
    engine:
        A :class:`repro.core.engine.ExecutionEngine` to dispatch through
        instead of a private one.  The engine's persistent workers
        and resident shared-memory traces amortize pool startup and
        trace shipping across *many* ``run_suite`` calls (whole sweeps
        and searches); when given, it takes precedence over ``workers``
        (the engine was built with its own worker count).  The caller
        owns the engine's lifecycle.
    cache:
        A :class:`repro.cache.SimulationCache`, a directory path to open
        one in, or ``None`` (default, no caching).  Cached traces are
        not simulated at all — no predictor construction, no worker
        submission — and new results are stored for next time.
    on_error:
        ``"raise"`` (default): if any trace fails, finish the suite, then
        raise :class:`SuiteError` naming the failures and carrying the
        partial :class:`BatchResult`.  ``"collect"``: return normally
        with the failures recorded in :attr:`BatchResult.failures`.
    instrumentation:
        Optional :mod:`repro.telemetry` phase timers: records a
        "cache_lookup" phase around the cache scan, a "simulate" phase
        around the actual simulations, and "cache_hit" / "cache_miss" /
        "trace_failure" counters.  Suite-level only — per-trace phase
        detail would distort the Table III timing methodology when
        workers contend for cores.
    probe:
        ``True`` attaches a fresh :class:`repro.probe.PredictionProbe`
        to every *simulated* trace (cache hits carry no probe data) and
        leaves each report on its result's ``probe_report``.  Off by
        default; it perturbs simulation time, so leave it off for
        Table III-style timing runs.
    sim_engine:
        Per-trace simulation engine, forwarded to
        :func:`repro.core.simulator.simulate`'s ``engine`` parameter
        (``"scalar"``, ``"vectorized"`` or ``"auto"``).  Named
        ``sim_engine`` because ``engine`` already selects the execution
        engine above.  Cache keys are engine-independent — both engines
        produce identical results, so they share entries.
    chunk:
        Engine-path dispatch granularity, forwarded to
        :meth:`~repro.core.engine.ExecutionEngine.run_plan`: ``"auto"``
        (default) packs several traces per worker round-trip sized by
        the measured per-trace cost; an integer forces that chunk size.
        Ignored by the serial path.
    batch:
        Config-batched evaluation, forwarded to
        :func:`~repro.core.plan.execute_plan`: ``"auto"`` (default)
        groups cache-missed vectorized-capable units that share a trace
        and evaluates each group in one stacked numpy pass (a suite of
        one factory over distinct traces forms no groups — batching
        pays off when many configs share a trace, i.e. sweeps and
        searches); ``"off"`` forces per-unit evaluation.  Results are
        bit-identical either way.
    tracer:
        Optional :mod:`repro.tracing` tracer (with ``trace_parent``, the
        context to nest under), forwarded to
        :func:`~repro.core.plan.execute_plan` — the suite's cache scan,
        simulations and engine dispatch become one span tree.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError(f"on_error must be 'raise' or 'collect', got {on_error!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    # Lower into the WorkPlan IR and run it through the shared execution
    # funnel (cache scan + inline / engine dispatch) — the same
    # path sweeps, searches, the serve daemon and the CLI use.
    plan = WorkPlan.for_suite(factory, traces, config, names=names,
                              probe=probe, sim_engine=sim_engine)
    outcomes = execute_plan(plan, workers=workers, engine=engine,
                            cache=cache, instrumentation=instrumentation,
                            chunk=chunk, batch=batch, tracer=tracer,
                            trace_parent=trace_parent)

    results = [s for s in outcomes if isinstance(s, SimulationResult)]
    failures = [s for s in outcomes if isinstance(s, TraceFailure)]
    batch = BatchResult(results=results, failures=failures)
    if failures and on_error == "raise":
        raise SuiteError(failures, batch)
    return batch
