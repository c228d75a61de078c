"""Parameter-space search (paper Section VI-B).

State-of-the-art predictors have dozens of parameters, so exhaustive
sweeps are impossible; the paper's answer is that a *library* lets users
drive any optimizer they like, calling the simulator inside the
objective.  This module demonstrates exactly that with two dependency-
free optimizers: seeded random search and greedy coordinate descent
(hill climbing one parameter at a time).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from pathlib import Path

import numpy as np

from ..core.batch import CacheLike, run_suite
from ..core.engine import engine_scope
from ..core.predictor import Predictor
from ..core.simulator import SimulationConfig
from ..sbbt.trace import TraceData
from .sweep import evaluate_param_sets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import ExecutionEngine

__all__ = ["SearchSpace", "SearchResult", "random_search", "hill_climb"]

TraceLike = Union[TraceData, str, Path]


@dataclass(frozen=True, slots=True)
class SearchSpace:
    """Discrete candidate values per constructor parameter."""

    axes: dict[str, tuple[Any, ...]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("search space needs at least one axis")
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no candidate values")

    def size(self) -> int:
        """Number of points in the full grid."""
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """One uniformly random configuration."""
        return {
            name: values[int(rng.integers(len(values)))]
            for name, values in self.axes.items()
        }


@dataclass(slots=True)
class SearchResult:
    """Best configuration found plus the full evaluation history."""

    best_parameters: dict[str, Any]
    best_mpki: float
    evaluations: list[tuple[dict[str, Any], float]]

    @property
    def num_evaluations(self) -> int:
        """Simulated configurations (the search budget consumed)."""
        return len(self.evaluations)


def _objective(factory: Callable[..., Predictor],
               traces: Sequence[TraceLike],
               config: SimulationConfig | None,
               cache: CacheLike = None,
               engine: "ExecutionEngine | None" = None,
               chunk: int | str = "auto",
               batch: str | bool = "auto",
               sim_engine: str = "scalar",
               ) -> Callable[[dict[str, Any]], float]:
    """The MPKI objective, memoized twice over.

    The in-memory dict short-circuits repeats within one search run; the
    optional on-disk ``cache`` (a :class:`repro.cache.SimulationCache` or
    directory path) persists every (configuration, trace) result, so a
    re-run or refined search — or a sweep over an overlapping grid —
    only simulates configurations never seen before.  ``engine`` routes
    every evaluation through one persistent worker pool with the traces
    resident in shared memory, so the per-evaluation cost is pure
    simulation, not orchestration.
    """
    seen: dict[tuple, float] = {}

    def evaluate(parameters: dict[str, Any]) -> float:
        key = tuple(sorted(parameters.items()))
        if key not in seen:
            result = run_suite(functools.partial(factory, **parameters),
                               traces, config, cache=cache, engine=engine,
                               chunk=chunk, batch=batch,
                               sim_engine=sim_engine)
            seen[key] = result.mean_mpki()
        return seen[key]

    return evaluate


def random_search(factory: Callable[..., Predictor], space: SearchSpace,
                  traces: Sequence[TraceLike], budget: int = 20,
                  seed: int = 0,
                  config: SimulationConfig | None = None, *,
                  cache: CacheLike = None,
                  workers: int = 1,
                  engine: "ExecutionEngine | None" = None,
                  chunk: int | str = "auto",
                  batch: str | bool = "auto",
                  sim_engine: str = "scalar") -> SearchResult:
    """Evaluate ``budget`` random configurations; keep the best.

    Sampling only consumes the seeded RNG — no evaluation feeds back
    into it — so all ``budget`` configurations are drawn up front,
    deduplicated (the memoization the sequential loop applied one call
    at a time), and lowered into **one**
    :class:`~repro.core.plan.WorkPlan` spanning the whole search.  The
    evaluation history is then reconstructed in sample order, so results
    are identical to the historical one-configuration-at-a-time loop.

    ``workers > 1`` runs that plan through a private
    :class:`~repro.core.engine.ExecutionEngine` with adaptive chunked
    dispatch; ``engine=`` reuses a caller-owned one instead; ``chunk``
    sets the engine's dispatch granularity.  ``sim_engine`` selects the
    per-unit simulation engine; with ``"vectorized"`` or ``"auto"`` and
    ``batch="auto"`` (default), candidates sharing a trace are
    evaluated in one stacked numpy pass (bit-identical results).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    samples = [space.sample(rng) for _ in range(budget)]

    def _key(parameters: dict[str, Any]) -> tuple:
        return tuple(sorted(parameters.items()))

    unique: list[dict[str, Any]] = []
    position: dict[tuple, int] = {}
    for parameters in samples:
        key = _key(parameters)
        if key not in position:
            position[key] = len(unique)
            unique.append(parameters)

    with engine_scope(engine, workers) as scoped:
        batches = evaluate_param_sets(factory, unique, traces, config,
                                      cache=cache, engine=scoped,
                                      chunk=chunk, batch=batch,
                                      sim_engine=sim_engine)
    mpkis = [batch.mean_mpki() for batch in batches]

    history = [(parameters, mpkis[position[_key(parameters)]])
               for parameters in samples]
    best_parameters: dict[str, Any] | None = None
    best_mpki = float("inf")
    for parameters, mpki in history:
        if mpki < best_mpki:
            best_parameters, best_mpki = parameters, mpki
    assert best_parameters is not None
    return SearchResult(best_parameters=best_parameters,
                        best_mpki=best_mpki, evaluations=history)


def hill_climb(factory: Callable[..., Predictor], space: SearchSpace,
               traces: Sequence[TraceLike],
               start: dict[str, Any] | None = None,
               max_rounds: int = 5,
               config: SimulationConfig | None = None, *,
               cache: CacheLike = None,
               workers: int = 1,
               engine: "ExecutionEngine | None" = None,
               chunk: int | str = "auto",
               batch: str | bool = "auto",
               sim_engine: str = "scalar") -> SearchResult:
    """Greedy coordinate descent over the discrete space.

    Each round tries every candidate value of every axis (one axis at a
    time) and keeps any strict improvement; stops when a full round
    changes nothing or ``max_rounds`` is exhausted.  ``cache`` persists
    evaluations across runs (see :func:`_objective`), which makes
    restarting a climb from a different seed point nearly free on the
    already-visited part of the space.  ``workers`` / ``engine`` /
    ``chunk`` behave as in :func:`random_search` — but unlike random
    search, each candidate depends on the previous accept/reject
    decision, so evaluations stay sequential; each one still lowers its
    trace suite into a plan via :func:`~repro.core.batch.run_suite`.
    """
    current = dict(start) if start is not None else {
        name: values[len(values) // 2] for name, values in space.axes.items()
    }
    history: list[tuple[dict[str, Any], float]] = []
    with engine_scope(engine, workers) as scoped:
        evaluate = _objective(factory, traces, config, cache, scoped,
                              chunk, batch, sim_engine)
        current_mpki = evaluate(current)
        history.append((dict(current), current_mpki))
        for _ in range(max_rounds):
            improved = False
            for name, values in space.axes.items():
                for value in values:
                    if value == current[name]:
                        continue
                    candidate = {**current, name: value}
                    mpki = evaluate(candidate)
                    history.append((candidate, mpki))
                    if mpki < current_mpki:
                        current, current_mpki = candidate, mpki
                        improved = True
            if not improved:
                break
    return SearchResult(best_parameters=current, best_mpki=current_mpki,
                        evaluations=history)
