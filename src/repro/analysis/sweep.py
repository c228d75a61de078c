"""Parameter sweeps (paper Section VI-A).

The paper's first use case: fix a table budget, sweep the GShare history
length, and watch the MPKI.  In C++ MBPlib this is a CMake for-loop over
template parameters (Listing 3); in Python the same idea is a plain loop
over constructor arguments — the library design (user code owns the run)
is what makes both one-liners.

Sweeps lower into the :class:`~repro.core.plan.WorkPlan` IR: the whole
grid — every (configuration, trace) pair, grouped by a per-point tag —
becomes **one** plan handed to :func:`~repro.core.plan.execute_plan`.
Serially that runs the exact same simulations in the exact same order as
the historical per-point loop; with an engine the entire sweep streams
through one persistent worker pool with the traces resident in shared
memory and several units packed per worker round-trip (adaptive chunked
dispatch), so pool startup, trace shipping *and* per-task dispatch
overhead are paid once for the whole sweep, not once per point.  Pass
your own ``engine=`` to amortize across *several* sweeps and searches;
with only ``workers=`` the sweep creates and closes a private engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence, Union

from pathlib import Path

from ..core.batch import BatchResult, CacheLike, SuiteError, TraceFailure
from ..core.configured import configure
from ..core.engine import engine_scope
from ..core.output import SimulationResult
from ..core.plan import WorkPlan, execute_plan
from ..core.predictor import Predictor
from ..core.simulator import SimulationConfig
from ..sbbt.trace import TraceData

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ExecutionEngine

__all__ = ["SweepPoint", "SweepResult", "sweep_parameter", "sweep_grid",
           "evaluate_param_sets"]

TraceLike = Union[TraceData, str, Path]


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One configuration's aggregate result over the sweep's trace set.

    ``num_failures`` and ``cache_hits`` record how the point was
    obtained: a point whose every trace failed carries
    ``mean_mpki=nan`` (only reachable with ``on_error="collect"``).
    """

    parameters: dict[str, Any]
    mean_mpki: float
    aggregate_mpki: float
    total_mispredictions: int
    num_failures: int = 0
    cache_hits: int = 0

    def __str__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        return f"{params}: mean MPKI {self.mean_mpki:.4f}"


@dataclass(slots=True)
class SweepResult:
    """All points of a sweep, with convenience selectors."""

    points: list[SweepPoint]

    def best(self) -> SweepPoint:
        """The point with the lowest mean MPKI (all-failed points,
        whose mean is ``nan``, never win)."""
        if not self.points:
            raise ValueError("empty sweep")
        scored = [p for p in self.points if not math.isnan(p.mean_mpki)]
        if not scored:
            raise ValueError("every sweep point failed")
        return min(scored, key=lambda p: p.mean_mpki)

    def series(self, parameter: str) -> list[tuple[Any, float]]:
        """(parameter value, mean MPKI) pairs, for plotting or tables."""
        return [(p.parameters[parameter], p.mean_mpki) for p in self.points]

    def table(self) -> str:
        """A fixed-width text table of every point."""
        lines = []
        for point in self.points:
            params = " ".join(f"{k}={v}" for k, v in point.parameters.items())
            lines.append(f"{params:<40s} mean_mpki={point.mean_mpki:10.4f}")
        return "\n".join(lines)


def evaluate_param_sets(factory: Callable[..., Predictor],
                        param_sets: Sequence[dict[str, Any]],
                        traces: Sequence[TraceLike],
                        config: SimulationConfig | None = None, *,
                        cache: CacheLike = None,
                        engine: "ExecutionEngine | None" = None,
                        chunk: int | str = "auto",
                        batch: str | bool = "auto",
                        sim_engine: str = "scalar",
                        on_error: str = "raise",
                        tracer: Any = None,
                        trace_parent: Any = None,
                        ) -> list[BatchResult]:
    """Evaluate many parameter sets of ``factory`` over one trace set.

    The shared lowering step of sweeps and searches: every (parameter
    set, trace) pair becomes a :class:`~repro.core.plan.WorkUnit` tagged
    with its parameter-set index, the whole cross product runs as one
    plan through :func:`~repro.core.plan.execute_plan`, and the outcomes
    are regrouped into one :class:`~repro.core.batch.BatchResult` per
    parameter set (trace order preserved).

    ``sim_engine`` selects the per-unit simulation engine; with
    ``"vectorized"`` or ``"auto"`` and ``batch="auto"`` (the default),
    all cache-missed points sharing a trace are evaluated in one
    stacked numpy pass — the whole sweep becomes a handful of batched
    group evaluations instead of one pass per point, with bit-identical
    results (``batch="off"`` opts out).

    Each parameter set becomes an interned
    :class:`~repro.core.configured.ConfiguredFactory`: picklable, so
    plans fan out across processes, and derived once, so a re-run sweep
    keys its points without building predictors.  Failure semantics
    with ``on_error="raise"`` (the default) match
    ``run_suite(on_error="raise")`` applied point by point: if any
    point has failures, a :class:`~repro.core.batch.SuiteError` is
    raised for the earliest such point, carrying its partial results.
    ``on_error="collect"`` instead records each point's failures on its
    :class:`~repro.core.batch.BatchResult` and always returns the full
    list.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}")
    plan = WorkPlan.for_points(
        [(tag, configure(factory, parameters))
         for tag, parameters in enumerate(param_sets)],
        traces, config, sim_engine=sim_engine)
    outcomes = execute_plan(plan, engine=engine, cache=cache, chunk=chunk,
                            batch=batch, tracer=tracer, trace_parent=trace_parent)
    grouped = plan.group_outcomes(outcomes)
    batches: list[BatchResult] = []
    for tag in range(len(param_sets)):
        point_outcomes = grouped.get(tag, [])
        batch_result = BatchResult(
            results=[o for o in point_outcomes
                     if isinstance(o, SimulationResult)],
            failures=[o for o in point_outcomes
                      if isinstance(o, TraceFailure)],
        )
        if batch_result.failures and on_error == "raise":
            raise SuiteError(batch_result.failures, batch_result)
        batches.append(batch_result)
    return batches


def _evaluate_points(factory: Callable[..., Predictor],
                     param_sets: Sequence[dict[str, Any]],
                     traces: Sequence[TraceLike],
                     config: SimulationConfig | None,
                     cache: CacheLike,
                     engine: "ExecutionEngine | None",
                     chunk: int | str,
                     batch: str | bool = "auto",
                     sim_engine: str = "scalar",
                     on_error: str = "raise",
                     tracer: Any = None,
                     trace_parent: Any = None) -> list[SweepPoint]:
    """Lower a whole sweep into one plan; one :class:`SweepPoint` per
    parameter set."""
    batches = evaluate_param_sets(factory, param_sets, traces, config,
                                  cache=cache, engine=engine, chunk=chunk,
                                  batch=batch, sim_engine=sim_engine,
                                  on_error=on_error,
                                  tracer=tracer, trace_parent=trace_parent)
    return [
        SweepPoint(
            parameters=parameters,
            mean_mpki=(point.mean_mpki() if point.results
                       else float("nan")),
            aggregate_mpki=point.aggregate_mpki(),
            total_mispredictions=point.total_mispredictions,
            num_failures=len(point.failures),
            cache_hits=point.cache_hits,
        )
        for parameters, point in zip(param_sets, batches)
    ]


def sweep_parameter(factory: Callable[..., Predictor], parameter: str,
                    values: Iterable[Any], traces: Sequence[TraceLike],
                    config: SimulationConfig | None = None,
                    fixed: dict[str, Any] | None = None, *,
                    cache: CacheLike = None,
                    workers: int = 1,
                    engine: "ExecutionEngine | None" = None,
                    chunk: int | str = "auto",
                    batch: str | bool = "auto",
                    sim_engine: str = "scalar",
                    on_error: str = "raise",
                    tracer: Any = None,
                    trace_parent: Any = None) -> SweepResult:
    """Sweep one constructor parameter of a predictor over a trace set.

    With ``cache=`` (a :class:`repro.cache.SimulationCache` or directory
    path), every (configuration, trace) result is remembered, so a
    refined or re-run sweep only simulates grid points it has never seen
    — overlapping values cost nothing.  ``workers > 1`` runs the whole
    sweep through one private :class:`~repro.core.engine.\
ExecutionEngine` (one worker pool, one shared-memory trace shipment and
    adaptive chunked dispatch for every point); pass ``engine=`` instead
    to reuse a pool you already pay for across several sweeps and
    searches.  ``chunk`` (``"auto"`` or a fixed size) sets the engine's
    dispatch granularity.

    ``sim_engine`` (``"scalar"``, ``"vectorized"`` or ``"auto"``)
    selects the per-point simulation engine; combined with
    ``batch="auto"`` (the default), vectorized-capable points sharing a
    trace are evaluated in one stacked numpy pass — the classic
    history-length sweep becomes one batched group per trace.
    ``on_error="collect"`` records per-point failures on the
    :class:`SweepPoint` (``num_failures``; an all-failed point reports
    ``mean_mpki=nan``) instead of raising
    :class:`~repro.core.batch.SuiteError`.

    >>> # sweep = sweep_parameter(GShare, "history_length", range(6, 31),
    >>> #                         traces)   # the paper's Listing 3 sweep
    """
    fixed = dict(fixed or {})
    param_sets = [{**fixed, parameter: value} for value in values]
    with engine_scope(engine, workers) as scoped:
        points = _evaluate_points(factory, param_sets, traces, config,
                                  cache, scoped, chunk,
                                  batch=batch, sim_engine=sim_engine,
                                  on_error=on_error,
                                  tracer=tracer, trace_parent=trace_parent)
    return SweepResult(points=points)


def sweep_grid(factory: Callable[..., Predictor],
               grid: dict[str, Sequence[Any]],
               traces: Sequence[TraceLike],
               config: SimulationConfig | None = None, *,
               cache: CacheLike = None,
               workers: int = 1,
               engine: "ExecutionEngine | None" = None,
               chunk: int | str = "auto",
               batch: str | bool = "auto",
               sim_engine: str = "scalar",
               on_error: str = "raise",
               tracer: Any = None,
               trace_parent: Any = None) -> SweepResult:
    """Full-factorial sweep over a small parameter grid.

    The number of configurations is the product of the grid's axis sizes
    — exactly the exponential blow-up Section VI-B warns about, which is
    why :mod:`repro.analysis.search` exists for large spaces.  ``cache``,
    ``workers``, ``engine``, ``chunk``, ``batch``, ``sim_engine`` and
    ``on_error`` behave as in :func:`sweep_parameter`; a grid refined
    with extra axis values re-simulates only the new combinations.
    """
    import itertools

    names = list(grid)
    param_sets = [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]
    with engine_scope(engine, workers) as scoped:
        points = _evaluate_points(factory, param_sets, traces, config,
                                  cache, scoped, chunk,
                                  batch=batch, sim_engine=sim_engine,
                                  on_error=on_error,
                                  tracer=tracer, trace_parent=trace_parent)
    return SweepResult(points=points)
