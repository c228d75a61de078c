"""Config-batched evaluation vs per-unit evaluation: bit-exact, always.

The batched evaluator (``execute_plan(batch="auto")``) stacks
same-shape vectorized kernels along a config axis and reuses one trace
context per group.  None of that may be visible in results: for every
table-indexed predictor in the catalog, for arbitrary traces, configs
and group mixes (cache hits next to misses, singletons, heterogeneous
table shapes, scalar units interleaved), the ``SimulationResult`` JSON
document and the probe report must be **byte-identical** to a
``batch="off"`` run.  Failure isolation must also match: a unit that
fails inside a stacked pass fails alone, exactly as it would alone.

Uses `hypothesis` when the environment provides it; otherwise the same
properties run against draws from a seeded ``random.Random``, so the
file never silently skips.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import replace

import pytest

from repro.cache import SimulationCache
from repro.core.batch import TraceFailure
from repro.core.output import SimulationResult
from repro.core.plan import (
    WorkPlan,
    _partition,
    execute_plan,
    normalize_batch,
)
from repro.core.simulator import SimulationConfig
from repro.predictors import Bimodal, GShare
from repro.telemetry import PhaseTimers
from repro.telemetry.instrumentation import FUNNEL_SPANS
from tests.conftest import execute_folded, make_trace
from tests.core.test_vectorized_catalog import (
    CATALOG,
    comparable_document,
    random_config,
    random_trace,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


def assert_outcomes_identical(batched, per_unit) -> None:
    """Positionally identical outcomes, serialized-form equality."""
    assert len(batched) == len(per_unit)
    for a, b in zip(batched, per_unit):
        assert type(a) is type(b), (a, b)
        if isinstance(a, SimulationResult):
            assert comparable_document(a) == comparable_document(b)
            # Probe reports compare *serialized*: same values, same key
            # order (report tables golden-test on ordering).
            assert (json.dumps(a.probe_report)
                    == json.dumps(b.probe_report))
        else:
            assert isinstance(a, TraceFailure)
            assert a.trace_name == b.trace_name


def check_sweep_shape(name: str, seed: int) -> None:
    """The headline property: a batched config sweep == per-unit runs."""
    rng = random.Random(seed)
    factory_seeds = [rng.randint(0, 2**30)
                     for _ in range(rng.randint(2, 5))]
    factories = [
        (tag, lambda s=s, f=CATALOG[name]: f(random.Random(s)))
        for tag, s in enumerate(factory_seeds)
    ]
    trace = random_trace(rng, num_branches=rng.randint(2, 300),
                         pool_size=rng.randint(1, 30),
                         conditional_fraction=rng.choice([0.5, 0.8, 1.0]))
    config = random_config(rng, trace)
    plan = WorkPlan.for_points(factories, [trace], config,
                               sim_engine="auto")
    if rng.random() < 0.5:
        # A probed unit runs the scalar loop on its own, outside the
        # group its neighbours form.
        units = list(plan.units)
        probed = rng.randrange(len(units))
        units[probed] = replace(units[probed], probe=True)
        plan = WorkPlan(units=tuple(units))
    grouped = sum(not unit.probe for unit in plan)
    batched, timers = execute_folded(plan, batch="auto")
    per_unit = execute_plan(plan, batch="off")
    assert_outcomes_identical(batched, per_unit)
    assert timers.counters.get("batch_groups") == \
        (1 if grouped >= 2 else None)
    assert timers.counters.get("batch_units") == \
        (grouped if grouped >= 2 else None)


if HAVE_HYPOTHESIS:

    @pytest.mark.parametrize("name", sorted(CATALOG))
    class TestBatchedCatalogDifferential:
        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
        def test_batched_equals_per_unit(self, name, seed):
            check_sweep_shape(name, seed)

else:  # pragma: no cover - environments without hypothesis

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("seed", range(10))
    def test_batched_equals_per_unit(name, seed):
        check_sweep_shape(name, seed * 6007 + hash(name) % 1000)


# ----------------------------------------------------------------------
# Group-forming policy.
# ----------------------------------------------------------------------


def _point_plan(trace, values, *, sim_engine="auto", probe=False,
                log_table_size=8):
    factories = [
        (tag, lambda h=h, lts=log_table_size: GShare(
            history_length=h, log_table_size=lts))
        for tag, h in enumerate(values)
    ]
    return WorkPlan.for_points(factories, [trace], SimulationConfig(),
                               probe=probe, sim_engine=sim_engine)


class TestBatchGroupPolicy:
    def test_normalize_batch(self):
        assert normalize_batch("auto") is True
        assert normalize_batch(True) is True
        assert normalize_batch("off") is False
        assert normalize_batch(False) is False
        with pytest.raises(ValueError):
            normalize_batch("on")

    def test_units_sharing_a_trace_group(self, small_trace):
        plan = _point_plan(small_trace, [2, 4, 6])
        groups, loose = _partition(plan.units, batch=True)
        assert groups == [[0, 1, 2]]
        assert loose == []

    def test_scalar_units_stay_loose(self, small_trace):
        plan = _point_plan(small_trace, [2, 4, 6], sim_engine="scalar")
        groups, loose = _partition(plan.units, batch=True)
        assert groups == []
        assert loose == [0, 1, 2]

    def test_singletons_stay_loose(self, small_trace, server_trace):
        # One config over two distinct traces: nothing to stack.
        plan = WorkPlan.for_suite(lambda: GShare(4, 8),
                                  [small_trace, server_trace],
                                  SimulationConfig(), sim_engine="auto")
        groups, loose = _partition(plan.units, batch=True)
        assert groups == []
        assert loose == [0, 1]

    def test_mixed_engines_split_and_loose_is_sorted(self, small_trace):
        units = _point_plan(small_trace, [2, 4, 6]).units
        scalar = _point_plan(small_trace, [8], sim_engine="scalar").units
        plan = WorkPlan(units=(units[0], scalar[0], units[1], units[2]))
        groups, loose = _partition(plan.units, batch=True)
        assert groups == [[0, 2, 3]]
        assert loose == [1]

    def test_path_traces_group_by_string(self, tmp_path, small_trace):
        from repro.sbbt.writer import write_trace

        path = tmp_path / "t.sbbt"
        write_trace(path, small_trace)
        plan = _point_plan(str(path), [2, 4])
        groups, loose = _partition(plan.units, batch=True)
        assert groups == [[0, 1]]
        assert loose == []

    def test_batch_off_leaves_every_unit_loose(self, small_trace):
        plan = _point_plan(small_trace, [2, 4, 6])
        groups, loose = _partition(plan.units, batch=False)
        assert groups == []
        assert loose == [0, 1, 2]


# ----------------------------------------------------------------------
# Inline execution through the funnel.
# ----------------------------------------------------------------------


class TestInlineBatching:
    def test_off_means_no_counters(self, small_trace):
        plan = _point_plan(small_trace, [2, 4, 6])
        _, timers = execute_folded(plan, batch="off")
        assert "batch_groups" not in timers.counters
        assert "batch_eval" not in timers.phases

    def test_auto_records_phase_and_counters(self, small_trace):
        plan = _point_plan(small_trace, [2, 4, 6])
        _, timers = execute_folded(plan, batch="auto")
        assert timers.counters["batch_groups"] == 1
        assert timers.counters["batch_units"] == 3
        assert timers.phases["batch_eval"] > 0.0

    def test_batch_eval_attributes_are_all_folded(self, small_trace):
        from repro.tracing import SpanRecorder

        plan = _point_plan(small_trace, [2, 4, 6])
        recorder = SpanRecorder()
        execute_plan(plan, batch="auto", tracer=recorder)
        (span,) = [s for s in recorder.spans if s.name == "batch_eval"]
        counters = PhaseTimers.from_spans(recorder.spans).counters
        assert set(span.attributes) <= set(FUNNEL_SPANS["batch_eval"])
        for name, value in span.attributes.items():
            assert counters[name] == value, name

    def test_heterogeneous_shapes_one_group(self, small_trace):
        # Different table sizes stack separately but still share one
        # group (and one trace context).
        factories = [
            (tag, lambda h=h, lts=lts: GShare(h, lts))
            for tag, (h, lts) in enumerate(
                [(2, 6), (4, 6), (4, 9), (8, 9), (8, 12)])
        ]
        plan = WorkPlan.for_points(factories, [small_trace],
                                   SimulationConfig(), sim_engine="auto")
        batched, timers = execute_folded(plan, batch="auto")
        per_unit = execute_plan(plan, batch="off")
        assert_outcomes_identical(batched, per_unit)
        assert timers.counters["batch_groups"] == 1
        assert timers.counters["batch_units"] == 5

    def test_mixed_cache_hits_and_misses(self, small_trace, tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        plan = _point_plan(small_trace, [2, 4, 6, 8])
        # Warm two of the four configurations.
        warm = execute_plan(plan.subset([1, 3]), cache=cache)
        assert all(isinstance(r, SimulationResult) for r in warm)
        batched, timers = execute_folded(plan, cache=cache, batch="auto")
        assert [r.from_cache for r in batched] == [False, True, False, True]
        # Only the two misses formed the stacked pass.
        assert timers.counters["batch_groups"] == 1
        assert timers.counters["batch_units"] == 2
        per_unit = execute_plan(plan, batch="off")
        assert_outcomes_identical(batched, per_unit)

    def test_fully_warm_cache_forms_no_groups(self, small_trace, tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        plan = _point_plan(small_trace, [2, 4])
        execute_plan(plan, cache=cache)
        batched, timers = execute_folded(plan, cache=cache, batch="auto")
        assert all(r.from_cache for r in batched)
        assert "batch_groups" not in timers.counters

    def test_probe_reports_survive_batching(self, small_trace):
        plan = _point_plan(small_trace, [2, 4, 6], probe=True)
        batched = execute_plan(plan, batch="auto")
        per_unit = execute_plan(plan, batch="off")
        for result in batched:
            assert result.probe_report is not None
        assert_outcomes_identical(batched, per_unit)

    def test_failing_unit_fails_alone(self, small_trace):
        def broken():
            raise RuntimeError("constructor exploded")

        good = _point_plan(small_trace, [2, 4]).units
        bad = WorkUnit_like = WorkPlan.for_suite(
            broken, [small_trace], SimulationConfig(),
            sim_engine="auto").units
        plan = WorkPlan(units=(good[0], bad[0], good[1]))
        batched = execute_plan(plan, batch="auto")
        per_unit = execute_plan(plan, batch="off")
        assert isinstance(batched[0], SimulationResult)
        assert isinstance(batched[1], TraceFailure)
        assert isinstance(batched[2], SimulationResult)
        assert_outcomes_identical(batched, per_unit)

    def test_unreadable_trace_fails_every_member(self, tmp_path):
        # One failure stage for a trace that cannot be read, whichever
        # way the unit runs: inline per unit, inline batched, or on an
        # engine worker.
        from repro.core.engine import ExecutionEngine

        not_sbbt = tmp_path / "not-sbbt.sbbt"
        not_sbbt.write_bytes(b"this is not an SBBT trace\n" * 8)
        with ExecutionEngine(workers=1) as engine:
            for trace in (str(tmp_path / "missing.sbbt"), str(not_sbbt)):
                plan = _point_plan(trace, [2, 4, 6])
                for outcomes in (execute_plan(plan, batch="off"),
                                 execute_plan(plan, batch="auto"),
                                 execute_plan(plan, engine=engine)):
                    assert [(type(r), r.trace_name, r.stage)
                            for r in outcomes] == \
                        [(TraceFailure, u.name, "trace") for u in plan]

    def test_two_traces_two_groups(self, small_trace, server_trace):
        factories = [(tag, lambda h=h: GShare(h, 8))
                     for tag, h in enumerate([2, 4])]
        plan = WorkPlan.for_points(factories, [small_trace, server_trace],
                                   SimulationConfig(), sim_engine="auto")
        batched, timers = execute_folded(plan, batch="auto")
        per_unit = execute_plan(plan, batch="off")
        assert_outcomes_identical(batched, per_unit)
        assert timers.counters["batch_groups"] == 2
        assert timers.counters["batch_units"] == 4


# ----------------------------------------------------------------------
# Engine execution: digest-affinity packing + worker-side batching.
# ----------------------------------------------------------------------


class TestEngineBatching:
    def _plan_two_traces(self, tmp_path):
        from repro.sbbt.writer import write_trace
        from repro.traces.synth import generate_trace
        from repro.traces.workloads import PROFILES

        paths = []
        for i in range(2):
            path = tmp_path / f"t{i}.sbbt"
            write_trace(path, generate_trace(
                PROFILES["short_server"], seed=20 + i, num_branches=2000))
            paths.append(str(path))
        # functools.partial, not a lambda: factories must survive the
        # pickle trip to the worker processes.
        factories = [
            (tag, functools.partial(GShare, history_length=h,
                                    log_table_size=8))
            for tag, h in enumerate([2, 4, 6, 8])
        ]
        # Plan order interleaves the traces; digest-affinity packing
        # must still put each trace's units into one chunk.
        return WorkPlan.for_points(factories, paths, SimulationConfig(),
                                   sim_engine="auto")

    def test_worker_batching_is_bit_exact(self, tmp_path):
        from repro.core.engine import ExecutionEngine

        plan = self._plan_two_traces(tmp_path)
        per_unit = execute_plan(plan, batch="off")
        with ExecutionEngine(workers=2) as engine:
            batched = execute_plan(plan, engine=engine, chunk=4,
                                   batch="auto")
            assert engine.stats.batch_groups == 2
            assert engine.stats.batch_units == 8
        assert_outcomes_identical(batched, per_unit)

    def test_inline_and_engine_worker_run_alike(self, tmp_path):
        # Both backends run units through one runner and know a trace
        # by its content: a plan mixing two batch groups with loose
        # scalar and singleton units, and a plan with one more unit on
        # a byte-identical copy of the first trace (it joins that
        # trace's group), each give the same result JSON and the same
        # batch counts inline and as one chunk on a one-worker engine.
        import shutil

        from repro.core.engine import ExecutionEngine
        from repro.sbbt.writer import write_trace
        from repro.traces.synth import generate_trace
        from repro.traces.workloads import PROFILES

        plan = self._plan_two_traces(tmp_path)
        loose = WorkPlan.for_points(
            [(9, functools.partial(GShare, history_length=3,
                                   log_table_size=8))],
            [plan[0].trace, plan[1].trace], SimulationConfig(),
            sim_engine="scalar")
        single = tmp_path / "single.sbbt"
        write_trace(single, generate_trace(PROFILES["short_server"],
                                           seed=30, num_branches=2000))
        copy = shutil.copy(plan[0].trace, tmp_path / "copy.sbbt")
        mixed = WorkPlan(units=plan.units + loose.units
                         + (replace(plan[0], trace=str(single)),))
        copied = WorkPlan(units=plan.units
                          + (replace(plan[0], trace=str(copy)),))
        for plan, groups, units in ((mixed, 2, 8), (copied, 2, 9)):
            inline, inline_timers = execute_folded(plan, batch="auto")
            with ExecutionEngine(workers=1) as engine:
                worker, worker_timers = execute_folded(
                    plan, engine=engine, chunk=len(plan), batch="auto")
            assert all(isinstance(r, SimulationResult) for r in inline)
            assert [comparable_document(r) for r in inline] == \
                [comparable_document(r) for r in worker]
            counts = ("batch_groups", "batch_units", "context_reuse")
            assert [inline_timers.counters[n] for n in counts] == \
                [worker_timers.counters[n] for n in counts]
            assert inline_timers.counters["batch_groups"] == groups
            assert inline_timers.counters["batch_units"] == units

    def test_batch_off_dispatches_per_unit(self, tmp_path):
        from repro.core.engine import ExecutionEngine

        plan = self._plan_two_traces(tmp_path)
        with ExecutionEngine(workers=2) as engine:
            execute_plan(plan, engine=engine, chunk=4, batch="off")
            assert engine.stats.batch_groups == 0
            assert engine.stats.batch_units == 0

    def test_single_unit_chunks_never_batch(self, tmp_path):
        from repro.core.engine import ExecutionEngine

        plan = self._plan_two_traces(tmp_path)
        per_unit = execute_plan(plan, batch="off")
        with ExecutionEngine(workers=2) as engine:
            batched = execute_plan(plan, engine=engine, chunk=1,
                                   batch="auto")
            assert engine.stats.batch_groups == 0
        assert_outcomes_identical(batched, per_unit)

    def test_dispatch_span_carries_the_folded_batch_counters(self,
                                                             tmp_path):
        from repro.core.engine import ExecutionEngine
        from repro.tracing import SpanRecorder

        plan = self._plan_two_traces(tmp_path)
        recorder = SpanRecorder()
        with ExecutionEngine(workers=2) as engine:
            execute_plan(plan, engine=engine, chunk=4, batch="auto",
                         tracer=recorder)
        (dispatch,) = [s for s in recorder.spans
                       if s.name == "engine_dispatch"]
        counters = PhaseTimers.from_spans(recorder.spans).counters
        assert counters["batch_groups"] == 2
        assert counters["batch_units"] == 8
        assert counters["context_reuse"] > 0
        # Every engine counter is on the span and folded, none dropped.
        for name in FUNNEL_SPANS["engine_dispatch"]:
            assert dispatch.attributes[name] == counters[name], name

    def test_engine_stats_json_carries_batch_counters(self, tmp_path):
        from repro.core.engine import ExecutionEngine

        plan = self._plan_two_traces(tmp_path)
        with ExecutionEngine(workers=2) as engine:
            execute_plan(plan, engine=engine, chunk=4, batch="auto")
            stats = engine.stats.to_json()
        assert stats["batch_groups"] == 2
        assert stats["batch_units"] == 8


# ----------------------------------------------------------------------
# The sweep driver: collect mode, per-point failure accounting.
# ----------------------------------------------------------------------


class TestSweepCollect:
    def test_collect_counts_failures_per_point(self, tmp_path, small_trace):
        from repro.analysis.sweep import sweep_parameter
        from repro.sbbt.writer import write_trace

        good = tmp_path / "good.sbbt"
        write_trace(good, small_trace)
        sweep = sweep_parameter(
            GShare, "history_length", [2, 4],
            [str(good), str(tmp_path / "missing.sbbt")],
            SimulationConfig(), {"log_table_size": 8},
            sim_engine="auto", on_error="collect")
        for point in sweep.points:
            assert point.num_failures == 1
            assert point.mean_mpki == point.mean_mpki  # not NaN
        assert sweep.best() is not None

    def test_all_failed_sweep_has_nan_points_and_no_best(self, tmp_path):
        import math

        from repro.analysis.sweep import sweep_parameter

        sweep = sweep_parameter(
            GShare, "history_length", [2, 4],
            [str(tmp_path / "missing.sbbt")],
            SimulationConfig(), {"log_table_size": 8},
            sim_engine="auto", on_error="collect")
        assert all(math.isnan(p.mean_mpki) for p in sweep.points)
        with pytest.raises(ValueError, match="every sweep point failed"):
            sweep.best()

    def test_raise_mode_still_raises(self, tmp_path):
        from repro.analysis.sweep import sweep_parameter
        from repro.core.batch import SuiteError

        with pytest.raises(SuiteError):
            sweep_parameter(
                GShare, "history_length", [2, 4],
                [str(tmp_path / "missing.sbbt")],
                SimulationConfig(), {"log_table_size": 8})

    def test_batched_sweep_matches_unbatched(self, small_trace):
        from repro.analysis.sweep import sweep_parameter

        batched = sweep_parameter(
            Bimodal, "log_table_size", [4, 6, 8], [small_trace],
            SimulationConfig(), sim_engine="auto", batch="auto")
        per_unit = sweep_parameter(
            Bimodal, "log_table_size", [4, 6, 8], [small_trace],
            SimulationConfig(), sim_engine="auto", batch="off")
        assert ([p.mean_mpki for p in batched.points]
                == [p.mean_mpki for p in per_unit.points])
        assert batched.best().parameters == per_unit.best().parameters
