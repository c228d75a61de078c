"""The work-plan IR and its execution funnel (repro.core.plan).

Covers the ISSUE-8 tentpole: every driver lowers into one
WorkPlan/WorkUnit IR, ``execute_plan`` is the single cache + dispatch
funnel, and chunked engine dispatch is byte-identical to the serial
path.
"""

import dataclasses
import functools
import json
import sys
import threading
from collections import Counter

import pytest

import repro.sbbt.digest as sbbt_digest
from repro.cache import SimulationCache
from repro.core.batch import TraceFailure, run_suite
from repro.core.engine import ExecutionEngine
from repro.core.output import SimulationResult
from repro.core.plan import (WorkPlan, WorkUnit, _trace_identity,
                             chunk_cost_size, default_trace_names,
                             execute_plan, normalize_chunk)
from repro.core.simulator import SimulationConfig
from repro.predictors import Bimodal, GShare
from repro.sbbt.writer import write_trace
from repro.telemetry import PhaseTimers
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES
from repro.tracing import SpanRecorder
from tests.conftest import execute_folded


def bimodal_factory():
    return Bimodal(log_table_size=10)


def gshare_factory():
    return GShare(history_length=8, log_table_size=10)


class _RaisingBimodal(Bimodal):
    def predict(self, ip):
        raise RuntimeError("predictor bug")


def _raising_factory():
    return _RaisingBimodal(log_table_size=4)


@pytest.fixture(scope="module")
def traces():
    return [generate_trace(PROFILES["short_mobile"], seed=700 + i,
                           num_branches=1200)
            for i in range(4)]


def _comparable(result):
    document = result.to_json()
    document["metrics"].pop("simulation_time")
    return json.dumps(document, sort_keys=True)


class TestNormalizeChunk:
    def test_auto_means_adaptive(self):
        assert normalize_chunk("auto") is None

    def test_integers_pass_through(self):
        assert normalize_chunk(1) == 1
        assert normalize_chunk(7) == 7
        assert normalize_chunk("5") == 5

    @pytest.mark.parametrize("bad", [0, -3, "0", "sometimes", None, 2.5])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            normalize_chunk(bad)


class TestChunkCostSize:
    def test_cold_start_probes_singletons(self):
        assert chunk_cost_size(None, 100, 4,
                               target_seconds=0.2, max_chunk=64) == 1

    def test_empty_queue(self):
        assert chunk_cost_size(0.01, 0, 4,
                               target_seconds=0.2, max_chunk=64) == 0

    def test_warm_targets_round_trip_seconds(self):
        # 10 ms per unit, 0.2 s target -> 20 units per chunk.
        assert chunk_cost_size(0.010, 1000, 4,
                               target_seconds=0.2, max_chunk=64) == 20

    def test_capped_by_max_chunk(self):
        assert chunk_cost_size(1e-6, 1000, 4,
                               target_seconds=0.2, max_chunk=64) == 64

    def test_tail_splits_across_workers(self):
        # 6 units left on 4 workers: never hand one worker all 6.
        assert chunk_cost_size(1e-6, 6, 4,
                               target_seconds=0.2, max_chunk=64) == 2

    def test_slow_units_never_pack(self):
        # Units slower than the target stay singletons.
        assert chunk_cost_size(1.5, 1000, 4,
                               target_seconds=0.2, max_chunk=64) == 1


class TestLowering:
    def test_default_trace_names(self, traces, tmp_path):
        path = tmp_path / "t.sbbt"
        assert default_trace_names([traces[0], path, traces[1]]) == \
            ["trace[0]", str(path), "trace[2]"]

    def test_for_suite_shape(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        assert len(plan) == len(traces)
        assert [u.name for u in plan] == [f"trace[{i}]"
                                          for i in range(len(traces))]
        assert all(u.factory is bimodal_factory for u in plan)
        assert all(u.tag == 0 for u in plan)
        assert plan[0].config == SimulationConfig()

    def test_for_suite_custom_names(self, traces):
        names = [f"n{i}" for i in range(len(traces))]
        plan = WorkPlan.for_suite(bimodal_factory, traces, names=names)
        assert [u.name for u in plan] == names

    def test_for_suite_name_length_mismatch(self, traces):
        with pytest.raises(ValueError):
            WorkPlan.for_suite(bimodal_factory, traces, names=["just-one"])

    def test_for_points_cross_product(self, traces):
        factories = [(0, bimodal_factory), (1, gshare_factory)]
        plan = WorkPlan.for_points(factories, traces)
        assert len(plan) == 2 * len(traces)
        assert plan.tags() == [0, 1]
        # Trace order preserved within each tag, tags in given order.
        assert [u.tag for u in plan] == [0] * len(traces) + [1] * len(traces)
        assert [u.factory for u in plan.units[:len(traces)]] == \
            [bimodal_factory] * len(traces)

    def test_subset_preserves_given_order(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        sub = plan.subset([2, 0])
        assert [u.name for u in sub] == ["trace[2]", "trace[0]"]

    def test_group_outcomes_by_tag(self, traces):
        factories = [(5, bimodal_factory), (9, gshare_factory)]
        plan = WorkPlan.for_points(factories, traces[:2])
        grouped = plan.group_outcomes(["a", "b", "c", "d"])
        assert grouped == {5: ["a", "b"], 9: ["c", "d"]}

    def test_group_outcomes_length_mismatch(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with pytest.raises(ValueError):
            plan.group_outcomes(["too", "few"])


class TestExecutePlan:
    def test_serial_matches_run_suite(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        outcomes = execute_plan(plan)
        batch = run_suite(bimodal_factory, traces)
        assert [_comparable(o) for o in outcomes] == \
            [_comparable(r) for r in batch.results]

    def test_engine_chunked_matches_serial(self, traces):
        plan = WorkPlan.for_suite(gshare_factory, traces)
        serial = execute_plan(plan)
        with ExecutionEngine(workers=2) as engine:
            chunked = execute_plan(plan, engine=engine, chunk=2)
            assert engine.stats.chunks_dispatched == 2
            assert engine.stats.tasks_dispatched == len(traces)
        assert [_comparable(o) for o in chunked] == \
            [_comparable(o) for o in serial]

    def test_fixed_chunk_one_is_unit_dispatch(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with ExecutionEngine(workers=2) as engine:
            execute_plan(plan, engine=engine, chunk=1)
            assert engine.stats.chunks_dispatched == len(traces)

    def test_cache_round_trip(self, traces, tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        first, timers = execute_folded(plan, cache=cache)
        assert timers.counters["cache_miss"] == len(traces)
        assert "cache_lookup" in timers.phases
        second, warm = execute_folded(plan, cache=cache)
        assert warm.counters["cache_hit"] == len(traces)
        assert warm.counters.get("cache_miss", 0) == 0
        assert [_comparable(o) for o in second] == \
            [_comparable(o) for o in first]

    def test_chunk_telemetry_counters(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with ExecutionEngine(workers=2) as engine:
            _, timers = execute_folded(plan, engine=engine, chunk=2)
        assert timers.counters["task_chunk"] == 2
        assert timers.counters["chunk_size"] == len(traces)
        assert "chunk_dispatch" in timers.phases
        assert "chunk_dispatch" in engine.stats.phases

    def test_tagged_plan_regroups_like_separate_suites(self, traces):
        factories = [(0, bimodal_factory), (1, gshare_factory)]
        plan = WorkPlan.for_points(factories, traces)
        with ExecutionEngine(workers=2) as engine:
            grouped = plan.group_outcomes(
                execute_plan(plan, engine=engine))
        bimodal = run_suite(bimodal_factory, traces)
        gshare = run_suite(gshare_factory, traces)
        assert [_comparable(o) for o in grouped[0]] == \
            [_comparable(r) for r in bimodal.results]
        assert [_comparable(o) for o in grouped[1]] == \
            [_comparable(r) for r in gshare.results]

    def test_per_unit_failure_isolation(self, traces, tmp_path):
        missing = tmp_path / "missing.sbbt"
        plan = WorkPlan.for_suite(bimodal_factory,
                                  [traces[0], missing, traces[1]])
        outcomes = execute_plan(plan)
        assert isinstance(outcomes[0], SimulationResult)
        assert isinstance(outcomes[1], TraceFailure)
        assert isinstance(outcomes[2], SimulationResult)

    @pytest.mark.parametrize("cached", [False, True])
    def test_bad_predictor_configuration_is_a_per_unit_failure(
            self, traces, tmp_path, cached):
        bad = functools.partial(GShare, history_length=-3)
        plan = WorkPlan.for_points([(0, GShare), (1, bad)], traces[:1])
        cache = SimulationCache(tmp_path / "cache") if cached else None
        good, failed = execute_plan(plan, cache=cache)
        assert isinstance(good, SimulationResult)
        assert isinstance(failed, TraceFailure)
        assert failed.trace_name == plan[1].name
        assert failed.error == "ValueError: history_length must be >= 1"
        assert failed.stage == "predictor"

    def test_failure_stages(self, traces, tmp_path):
        missing = tmp_path / "missing.sbbt"
        plan = WorkPlan.for_suite(bimodal_factory, [missing])
        cache = SimulationCache(tmp_path / "cache")
        (failed,) = execute_plan(plan, cache=cache)
        assert failed.stage == "trace"
        with ExecutionEngine(workers=1) as engine:
            (published,) = execute_plan(plan, engine=engine)
        assert published.stage == "trace"
        (crashed,) = execute_plan(
            WorkPlan.for_suite(_raising_factory, traces[:1]))
        assert crashed.stage == "simulate"

    def test_bad_workers_rejected(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with pytest.raises(ValueError):
            execute_plan(plan, workers=0)

    def test_bad_chunk_rejected_before_dispatch(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with pytest.raises(ValueError):
            execute_plan(plan, chunk=0)


class TestCoalescing:
    """Calls sharing a cache handle compute each key once: the scan
    claims keys, and a unit whose key is claimed elsewhere follows."""

    def test_duplicate_units_in_one_plan_compute_once(self, traces,
                                                      tmp_path):
        plan = WorkPlan.for_suite(bimodal_factory,
                                  [traces[0], traces[0], traces[1]])
        cache = SimulationCache(tmp_path / "cache")
        (first, copy, other), timers = execute_folded(plan, cache=cache)
        assert cache.stores == 2
        assert timers.counters["cache_miss"] == 2
        assert timers.counters["coalesced"] == 1
        assert (first.coalesced, copy.coalesced, other.coalesced) == \
            (False, True, False)
        assert copy.trace_name == plan[1].name
        assert copy.mispredictions == first.mispredictions
        assert copy == dataclasses.replace(first, trace_name=copy.trace_name)

    def _follow(self, traces, tmp_path):
        """A plan started while its only key is claimed elsewhere."""
        plan = WorkPlan.for_suite(bimodal_factory, traces[:1])
        cache = SimulationCache(tmp_path / "cache")
        key = cache.key_for(traces[0], bimodal_factory().spec())
        assert cache.claim(key, leader="elsewhere") is None
        outcomes = []
        follower = threading.Thread(
            target=lambda: outcomes.extend(execute_plan(plan, cache=cache)))
        follower.start()
        # The follower creates its waiter lazily once it starts waiting.
        for _ in range(1000):
            if cache._claims[key].waiter is not None:
                break
            follower.join(0.01)
        assert cache._claims[key].waiter is not None
        assert cache.misses == 0  # a follower never reads the cache
        return plan, cache, key, follower, outcomes

    def test_follower_copies_the_leader_outcome(self, traces, tmp_path):
        plan, cache, key, follower, outcomes = self._follow(traces, tmp_path)
        (leader,) = execute_plan(plan)
        cache.release(key, leader)
        follower.join(30)
        (outcome,) = outcomes
        assert outcome.coalesced and not leader.coalesced
        assert outcome.trace_name == plan[0].name
        assert _comparable(outcome) == _comparable(leader)
        assert cache.stores == 0 and cache.misses == 0

    def test_follower_computes_when_the_leader_shares_nothing(
            self, traces, tmp_path):
        plan, cache, key, follower, outcomes = self._follow(traces, tmp_path)
        cache.release(key)
        follower.join(30)
        (outcome,) = outcomes
        assert isinstance(outcome, SimulationResult)
        assert not outcome.coalesced
        assert cache.misses == 1 and cache.stores == 1
        assert cache._claims == {}

    def test_concurrent_plans_store_each_key_once(self, traces, tmp_path):
        """Eight threads (more than cores) run overlapping plans, each in
        its own unit order, on one cache handle: every key is simulated
        once, nobody deadlocks, and every outcome is right."""
        import random
        import sys

        units = [(factory, trace) for factory in (bimodal_factory,
                                                  gshare_factory)
                 for trace in traces]
        reference = {id(trace): {} for trace in traces}
        for factory, trace in units:
            (outcome,) = execute_plan(WorkPlan.for_suite(factory, [trace]))
            reference[id(trace)][factory] = _comparable(
                dataclasses.replace(outcome, trace_name=""))
        plans = []
        for seed in range(8):
            order = list(units)
            random.Random(seed).shuffle(order)
            plans.append(WorkPlan(units=tuple(
                WorkUnit(factory=factory, trace=trace, name=f"{seed}-{i}",
                         config=SimulationConfig())
                for i, (factory, trace) in enumerate(order))))
        cache = SimulationCache(tmp_path / "cache")
        results: list[list | None] = [None] * len(plans)
        counts: list[dict] = [{} for _ in plans]

        def run(k):
            results[k], timers = execute_folded(plans[k], cache=cache)
            counts[k] = timers.counters

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(len(plans))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stores == cache.misses == len(units)
        assert cache._claims == {}
        for plan, outcomes, counters in zip(plans, results, counts):
            assert (counters.get("cache_hit", 0) + counters["cache_miss"]
                    + counters.get("coalesced", 0)) == len(plan)
            for unit, outcome in zip(plan, outcomes):
                assert outcome.trace_name == unit.name
                assert _comparable(dataclasses.replace(
                    outcome, trace_name="")) == \
                    reference[id(unit.trace)][unit.factory]

    def test_claims_are_released_when_the_plan_raises(self, traces,
                                                      tmp_path):
        plan = WorkPlan.for_suite(bimodal_factory, traces[:2])
        cache = SimulationCache(tmp_path / "cache")
        engine = ExecutionEngine(workers=1)
        engine.close()
        with pytest.raises(Exception):
            execute_plan(plan, cache=cache, engine=engine)
        assert cache._claims == {}


def _sweep_factories(points=16):
    return [(h, lambda h=h: GShare(history_length=h, log_table_size=10))
            for h in range(1, points + 1)]


@pytest.fixture
def digest_calls(monkeypatch):
    """Count ``trace_digest`` calls per trace (reset by the test)."""
    calls = Counter()
    original = sbbt_digest.trace_digest

    def spy(trace):
        calls[_trace_identity(trace)] += 1
        return original(trace)

    monkeypatch.setattr(sbbt_digest, "trace_digest", spy)
    return calls


def _record_keys(monkeypatch, cache):
    """Record every key ``cache.get`` is asked for, in call order."""
    keys = []
    original = cache.get

    def get(key):
        keys.append(key)
        return original(key)

    monkeypatch.setattr(cache, "get", get)
    return keys


class TestEventStreamAccounting:
    """Every number comes from the plan's own spans, folded per call."""

    def test_concurrent_plans_count_only_their_own_chunks(self, traces):
        suite = (traces + traces)[:6]
        plans = [WorkPlan.for_suite(bimodal_factory, suite)
                 for _ in range(4)]
        folded: list[PhaseTimers | None] = [None] * len(plans)
        start = threading.Barrier(len(plans))
        with ExecutionEngine(workers=2) as engine:
            chunks_before = engine.stats.chunks_dispatched

            def run(k):
                recorder = SpanRecorder()
                start.wait()
                execute_plan(plans[k], engine=engine, chunk=1,
                             batch="off", tracer=recorder)
                folded[k] = PhaseTimers.from_spans(recorder.spans)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=run, args=(k,))
                           for k in range(len(plans))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            growth = engine.stats.chunks_dispatched - chunks_before
        for timers in folded:
            assert timers.counters["task_chunk"] == 6
            assert timers.counters["task_dispatch"] == 6
        assert sum(t.counters["task_chunk"] for t in folded) == growth

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("backend", ["inline", "engine"])
    def test_every_unit_is_counted_once(self, traces, tmp_path, backend,
                                        warm):
        bad = functools.partial(GShare, history_length=-3)
        plan = WorkPlan(units=tuple(
            WorkUnit(factory=factory, trace=trace, name=f"u{i}",
                     config=SimulationConfig())
            for i, (factory, trace) in enumerate([
                (gshare_factory, traces[0]),
                (bimodal_factory, traces[1]),
                (gshare_factory, traces[0]),  # duplicate of u0
                (bad, traces[0]),
                (bimodal_factory, tmp_path / "missing.sbbt"),
            ])))
        cache = SimulationCache(tmp_path / "cache")
        with ExecutionEngine(workers=2) as engine:
            run_engine = engine if backend == "engine" else None
            if warm:
                execute_plan(plan, cache=cache, engine=run_engine)
            outcomes, timers = execute_folded(plan, cache=cache,
                                              engine=run_engine)
        counters = timers.counters
        results = [o for o in outcomes if isinstance(o, SimulationResult)]
        computed = [r for r in results
                    if not r.from_cache and not r.coalesced]
        hits = counters.get("cache_hit", 0)
        coalesced = counters.get("coalesced", 0)
        failed = counters.get("trace_failure", 0)
        assert hits == sum(r.from_cache for r in results)
        assert coalesced == sum(r.coalesced for r in results)
        assert failed == len(outcomes) - len(results) == 2
        assert hits + coalesced + failed + len(computed) == len(plan)
        assert (hits, coalesced, len(computed)) == \
            ((3, 0, 0) if warm else (0, 1, 2))


class TestDigestOncePerPlan:
    """The cache scan digests each distinct trace once per call."""

    @pytest.mark.parametrize("batch", ["auto", "off"])
    def test_one_digest_per_trace_and_identical_keys(
            self, traces, tmp_path, monkeypatch, digest_calls, batch):
        paths = []
        for i, data in enumerate(traces[:2]):
            path = tmp_path / f"t{i}.sbbt.xz"
            write_trace(path, data)
            paths.append(path)
        suite = [paths[0], str(paths[1]), traces[2]]
        plan = WorkPlan.for_points(_sweep_factories(), suite,
                                   sim_engine="auto")
        assert len(plan) == 48
        cache = SimulationCache(tmp_path / "cache")
        keys = _record_keys(monkeypatch, cache)
        expected_calls = {_trace_identity(t): 1 for t in suite}

        cold = execute_plan(plan, cache=cache, batch=batch)
        assert dict(digest_calls) == expected_calls
        assert cache.misses == len(plan)
        cold_keys = list(keys)

        digest_calls.clear()
        keys.clear()
        warm = execute_plan(plan, cache=cache, batch=batch)
        assert dict(digest_calls) == expected_calls
        assert cache.hits == len(plan)
        assert keys == cold_keys

        assert keys == [
            cache.key_for(unit.trace, unit.factory().spec(), unit.config)
            for unit in plan]
        uncached = execute_plan(plan, batch=batch)
        assert all(isinstance(o, SimulationResult) for o in cold)
        assert [_comparable(o) for o in warm] == \
            [_comparable(o) for o in cold] == \
            [_comparable(o) for o in uncached]

    @pytest.mark.parametrize("batch", ["auto", "off"])
    def test_failed_digest_is_per_unit_and_never_memoized(
            self, traces, tmp_path, digest_calls, batch):
        good = tmp_path / "good.sbbt.xz"
        write_trace(good, traces[0])
        missing = tmp_path / "missing.sbbt.xz"
        truncated = tmp_path / "truncated.sbbt.xz"
        write_trace(truncated, traces[1])
        raw = truncated.read_bytes()
        truncated.write_bytes(raw[:len(raw) // 2])

        expected_errors = {}
        for bad in (missing, truncated):
            with pytest.raises(Exception) as info:
                sbbt_digest.trace_digest(bad)
            expected_errors[str(bad)] = \
                f"{type(info.value).__name__}: {info.value}"
        digest_calls.clear()

        suite = [good, missing, truncated]
        plan = WorkPlan.for_points(_sweep_factories(4), suite,
                                   sim_engine="auto")
        reference = [o for o, unit in zip(execute_plan(plan, batch=batch),
                                          plan) if unit.trace == good]
        cache = SimulationCache(tmp_path / "cache")
        for pass_name in ("cold", "warm"):
            digest_calls.clear()
            outcomes, timers = execute_folded(plan, cache=cache, batch=batch)
            counters = timers.counters
            assert (counters.get("cache_hit", 0)
                    + counters.get("cache_miss", 0)
                    + counters.get("trace_failure", 0)) == len(plan), \
                pass_name
            assert counters["trace_failure"] == 8
            # The good trace is digested once; each bad-trace unit
            # retries its own digest and records its own failure.
            assert digest_calls[_trace_identity(good)] == 1
            assert digest_calls[_trace_identity(missing)] == 4
            assert digest_calls[_trace_identity(truncated)] == 4
            good_outcomes = []
            for unit, outcome in zip(plan, outcomes):
                if unit.trace == good:
                    assert isinstance(outcome, SimulationResult)
                    good_outcomes.append(outcome)
                else:
                    assert isinstance(outcome, TraceFailure)
                    assert outcome.trace_name == unit.name
                    assert outcome.error == expected_errors[str(unit.trace)]
            assert [_comparable(o) for o in good_outcomes] == \
                [_comparable(o) for o in reference]
        assert counters["cache_hit"] == 4


@pytest.fixture
def decode_calls(monkeypatch):
    """Count ``read_trace`` calls on the inline path, per trace."""
    import repro.core.simulator as simulator

    calls = Counter()
    original = simulator.read_trace

    def spy(path, *args, **kwargs):
        calls[str(path)] += 1
        return original(path, *args, **kwargs)

    monkeypatch.setattr(simulator, "read_trace", spy)
    return calls


class TestDecodeOncePerRun:
    """The inline loop decodes a trace once for each run of
    consecutive units over it, as Table III's TAGE-then-GShare pairs
    are."""

    def _trace_major(self, paths, sim_engine="scalar"):
        return WorkPlan(units=tuple(
            WorkUnit(factory=factory, trace=path, name=f"{tag}-{i}",
                     config=SimulationConfig(), sim_engine=sim_engine)
            for i, path in enumerate(paths)
            for tag, factory in (("bimodal", bimodal_factory),
                                 ("gshare", gshare_factory))))

    @pytest.mark.parametrize("sim_engine", ["scalar", "vectorized"])
    def test_one_decode_per_run_and_identical_results(
            self, traces, tmp_path, decode_calls, sim_engine):
        from repro.core.batch import _run_one

        paths = []
        for i, data in enumerate(traces[:3]):
            path = tmp_path / f"t{i}.sbbt.xz"
            write_trace(path, data)
            paths.append(path)
        plan = self._trace_major(paths, sim_engine)
        outcomes = execute_plan(plan, batch="off")
        assert dict(decode_calls) == {str(path): 1 for path in paths}
        # Each outcome is what the unit gives on its own.
        alone = [_run_one(unit.factory, unit.trace, unit.config, unit.name,
                          sim_engine=unit.sim_engine) for unit in plan]
        assert [_comparable(o) for o in outcomes] == \
            [_comparable(o) for o in alone]
        # A trace that comes back after another is decoded again: only
        # the current trace is kept.
        decode_calls.clear()
        execute_plan(plan.subset([0, 2, 1]), batch="off")
        assert decode_calls[str(paths[0])] == 2

    def test_unreadable_trace_fails_each_unit_as_alone(
            self, traces, tmp_path, decode_calls):
        from repro.core.batch import _run_one

        good = tmp_path / "good.sbbt.xz"
        write_trace(good, traces[0])
        truncated = tmp_path / "truncated.sbbt.xz"
        write_trace(truncated, traces[1])
        raw = truncated.read_bytes()
        truncated.write_bytes(raw[:len(raw) // 2])
        missing = tmp_path / "missing.sbbt.xz"
        plan = self._trace_major([good, truncated, missing])
        outcomes = execute_plan(plan, batch="off")
        assert decode_calls[str(good)] == 1
        for unit, outcome in zip(plan, outcomes):
            alone = _run_one(unit.factory, unit.trace, unit.config,
                             unit.name)
            if unit.trace == good:
                assert _comparable(outcome) == _comparable(alone)
                continue
            assert isinstance(outcome, TraceFailure)
            assert (outcome.trace_name, outcome.error, outcome.stage) == \
                (alone.trace_name, alone.error, alone.stage)
