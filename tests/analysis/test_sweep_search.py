"""Tests for parameter sweeps and searches (Sections VI-A/B)."""

import pytest

from repro.analysis.search import SearchSpace, hill_climb, random_search
from repro.analysis.sweep import sweep_grid, sweep_parameter
from repro.core.engine import ExecutionEngine, engine_scope
from repro.predictors import Bimodal, GShare
from tests.conftest import make_trace


def _pattern_trace(period=6, n=1200):
    """One branch with a fixed periodic pattern: longer history wins."""
    return make_trace([0x4000] * n, [(i % period) < period - 1
                                     for i in range(n)])


class TestSweepParameter:
    def test_history_sweep_prefers_longer_history(self):
        # The paper's canonical example (Listing 3): sweep GShare's H.
        traces = [_pattern_trace(period=7)]
        sweep = sweep_parameter(GShare, "history_length", [1, 8],
                                traces, fixed={"log_table_size": 10})
        series = dict(sweep.series("history_length"))
        assert series[8] < series[1]
        assert sweep.best().parameters["history_length"] == 8

    def test_points_carry_aggregates(self):
        sweep = sweep_parameter(Bimodal, "log_table_size", [4, 6],
                                [_pattern_trace()])
        for point in sweep.points:
            assert point.total_mispredictions >= 0
            assert point.aggregate_mpki >= 0.0
            assert "log_table_size" in str(point)

    def test_table_rendering(self):
        sweep = sweep_parameter(Bimodal, "log_table_size", [4, 6],
                                [_pattern_trace()])
        table = sweep.table()
        assert "log_table_size=4" in table
        assert "mean_mpki=" in table

    def test_empty_sweep_best_rejected(self):
        sweep = sweep_parameter(Bimodal, "log_table_size", [],
                                [_pattern_trace()])
        with pytest.raises(ValueError):
            sweep.best()


class TestSweepGrid:
    def test_full_factorial(self):
        sweep = sweep_grid(
            GShare,
            {"history_length": [2, 6], "log_table_size": [8, 10]},
            [_pattern_trace()],
        )
        assert len(sweep.points) == 4
        combos = {(p.parameters["history_length"],
                   p.parameters["log_table_size"]) for p in sweep.points}
        assert combos == {(2, 8), (2, 10), (6, 8), (6, 10)}


class TestSearchSpace:
    def test_size(self):
        space = SearchSpace({"a": (1, 2, 3), "b": (4, 5)})
        assert space.size() == 6

    def test_sample_in_space(self):
        import numpy as np

        space = SearchSpace({"a": (1, 2), "b": ("x", "y")})
        rng = np.random.default_rng(0)
        for _ in range(10):
            sample = space.sample(rng)
            assert sample["a"] in (1, 2)
            assert sample["b"] in ("x", "y")

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpace({})
        with pytest.raises(ValueError):
            SearchSpace({"a": ()})


class TestRandomSearch:
    def test_finds_better_than_worst(self):
        space = SearchSpace({"history_length": (1, 4, 8),
                             "log_table_size": (8,)})
        result = random_search(GShare, space, [_pattern_trace(period=7)],
                               budget=6, seed=1)
        assert result.num_evaluations == 6
        assert result.best_parameters["history_length"] >= 4

    def test_deterministic_given_seed(self):
        space = SearchSpace({"history_length": (1, 2, 8)})
        traces = [_pattern_trace()]
        a = random_search(GShare, space, traces, budget=4, seed=7)
        b = random_search(GShare, space, traces, budget=4, seed=7)
        assert a.best_parameters == b.best_parameters
        assert a.best_mpki == b.best_mpki

    def test_budget_validation(self):
        space = SearchSpace({"history_length": (1,)})
        with pytest.raises(ValueError):
            random_search(GShare, space, [_pattern_trace()], budget=0)


class TestEngineScope:
    def test_caller_engine_passes_through_unclosed(self):
        with ExecutionEngine(workers=1) as engine:
            with engine_scope(engine, workers=4) as scoped:
                assert scoped is engine
            assert not engine.closed

    def test_serial_yields_none(self):
        with engine_scope(None, workers=1) as scoped:
            assert scoped is None

    def test_private_engine_opened_and_closed(self):
        with engine_scope(None, workers=2) as scoped:
            assert isinstance(scoped, ExecutionEngine)
            assert scoped.workers == 2
        assert scoped.closed


class TestParallelDrivers:
    """workers= / engine= give identical numbers to serial runs."""

    def test_sweep_workers_matches_serial(self):
        traces = [_pattern_trace(period=7), _pattern_trace(period=3)]
        serial = sweep_parameter(GShare, "history_length", [1, 4, 8],
                                 traces, fixed={"log_table_size": 10})
        threaded = sweep_parameter(GShare, "history_length", [1, 4, 8],
                                   traces, fixed={"log_table_size": 10},
                                   workers=2)
        assert ([(p.parameters, p.mean_mpki, p.total_mispredictions)
                 for p in threaded.points]
                == [(p.parameters, p.mean_mpki, p.total_mispredictions)
                    for p in serial.points])

    def test_sweep_amortizes_one_shared_engine(self):
        traces = [_pattern_trace(period=7), _pattern_trace(period=3)]
        with ExecutionEngine(workers=2) as engine:
            sweep_parameter(GShare, "history_length", [1, 4, 8], traces,
                            fixed={"log_table_size": 10}, engine=engine)
            stats = engine.stats
            # Two traces shipped once for all three grid points.
            assert stats.traces_published == 2
            assert stats.tasks_dispatched == 6
            assert stats.trace_reuses > 0

    def test_grid_workers_matches_serial(self):
        traces = [_pattern_trace()]
        grid = {"history_length": [2, 6], "log_table_size": [8, 10]}
        serial = sweep_grid(GShare, grid, traces)
        threaded = sweep_grid(GShare, grid, traces, workers=2)
        assert ([p.mean_mpki for p in threaded.points]
                == [p.mean_mpki for p in serial.points])

    def test_random_search_workers_matches_serial(self):
        space = SearchSpace({"history_length": (1, 4, 8)})
        traces = [_pattern_trace(period=7)]
        serial = random_search(GShare, space, traces, budget=4, seed=3)
        threaded = random_search(GShare, space, traces, budget=4, seed=3,
                                 workers=2)
        assert threaded.best_parameters == serial.best_parameters
        assert threaded.best_mpki == serial.best_mpki
        assert threaded.evaluations == serial.evaluations

    def test_hill_climb_engine_matches_serial(self):
        space = SearchSpace({"history_length": (1, 4, 8)})
        traces = [_pattern_trace(period=7)]
        serial = hill_climb(GShare, space, traces, max_rounds=2)
        with ExecutionEngine(workers=2) as engine:
            engined = hill_climb(GShare, space, traces, max_rounds=2,
                                 engine=engine)
        assert engined.best_parameters == serial.best_parameters
        assert engined.best_mpki == serial.best_mpki


class TestHillClimb:
    def test_climbs_to_better_history(self):
        space = SearchSpace({"history_length": (1, 2, 4, 8),
                             "log_table_size": (8, 10)})
        result = hill_climb(GShare, space, [_pattern_trace(period=7)],
                            start={"history_length": 1,
                                   "log_table_size": 8})
        assert result.best_parameters["history_length"] >= 4
        assert result.best_mpki <= result.evaluations[0][1]

    def test_history_records_every_evaluation(self):
        space = SearchSpace({"history_length": (1, 8)})
        result = hill_climb(GShare, space, [_pattern_trace()],
                            max_rounds=1)
        assert result.num_evaluations >= 2
