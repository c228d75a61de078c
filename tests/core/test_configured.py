"""Configured factories: each configuration derived once
(repro.core.configured).

A configured factory builds one cold instance, keeps its spec, key
prefixes, vector kernel and untrained stats, and drops the instance.
These tests pin what that buys and what it must not change: cache hits
and kernel units build no predictor, equal configurations are one
interned object across pickling, engine workers and serve requests,
and a configuration that cannot be built fails every unit every time.
"""

from __future__ import annotations

import gc
import json
import pickle
import weakref

import numpy as np
import pytest

import repro.core.configured as configured
import repro.serve.server as serve_server
from repro.cache import SimulationCache
from repro.core.batch import TraceFailure
from repro.core.configured import ColdHandOff, ConfiguredFactory, configure
from repro.core.engine import ExecutionEngine
from repro.core.output import SimulationResult
from repro.core.plan import WorkPlan, execute_plan
from repro.core.simulator import SimulationConfig, simulate
from repro.core.vectorized import run_unit_group
from repro.predictors import Bimodal, GShare, HashedPerceptron, Tournament
from repro.registry import predictor_factory
from repro.serve import MbpClient, ServeConfig, start_in_thread
from repro.sbbt.writer import write_trace
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


class CountingGShare(GShare):
    """A GShare that counts its constructions and keeps a weak roster of
    its live instances."""

    built = 0
    live: "weakref.WeakSet[CountingGShare]" = weakref.WeakSet()

    def __init__(self, *args, **kwargs):
        CountingGShare.built += 1
        super().__init__(*args, **kwargs)
        CountingGShare.live.add(self)


class ProcessBimodal(Bimodal):
    """A bimodal whose execution stats report how many instances its
    process had built when they were read."""

    built = 0

    def __init__(self, *args, **kwargs):
        ProcessBimodal.built += 1
        super().__init__(*args, **kwargs)

    def execution_stats(self):
        return {"built_in_process": ProcessBimodal.built}


def small_bimodal() -> Bimodal:
    return Bimodal(log_table_size=8)


def perceptron_tournament() -> Tournament:
    return Tournament(meta=Bimodal(log_table_size=10),
                      bp0=HashedPerceptron(), bp1=GShare(log_table_size=10))


@pytest.fixture(scope="module")
def traces():
    return [generate_trace(PROFILES["short_mobile"], seed=900 + i,
                           num_branches=1500)
            for i in range(3)]


@pytest.fixture
def counted():
    CountingGShare.built = 0
    yield CountingGShare
    CountingGShare.built = 0


def _comparable(outcome):
    assert isinstance(outcome, SimulationResult), outcome
    doc = outcome.to_json()
    doc["metrics"].pop("simulation_time")
    return doc


class TestInterning:
    def test_equal_configurations_are_one_object(self):
        factory = configure(GShare, {"history_length": 9})
        assert configure(GShare, {"history_length": np.int64(9)}) is factory
        assert configure(configure(GShare), {"history_length": 9}) \
            is factory
        assert configure(GShare, {"history_length": 10}) is not factory
        assert predictor_factory("gshare", {"history_length": 9}) \
            is factory
        assert predictor_factory("gshare") is configure(GShare)

    def test_calls_build_fresh_predictors(self):
        factory = configure(GShare, {"history_length": 9})
        first, second = factory(), factory()
        assert first is not second
        assert first.history_length == 9

    def test_params_without_canonical_form_are_not_interned(self):
        marker = object()
        assert configure(GShare, {"marker": marker}) is not configure(
            GShare, {"marker": marker})

    def test_intern_table_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(configured, "INTERN_LIMIT", 8)
        monkeypatch.setattr(configured, "_interned", {})
        for history in range(1, 40):
            configure(GShare, {"history_length": history})
            assert len(configured._interned) <= 8
        # The table was cleared when full, never evicted piecemeal.
        assert configure(GShare, {"history_length": 39}) is configure(
            GShare, {"history_length": 39})


class TestRoundTrips:
    def test_pickle_returns_the_interned_object(self):
        factory = predictor_factory("gshare", {"history_length": 11})
        assert pickle.loads(pickle.dumps(factory)) is factory

    def test_engine_worker_derives_each_configuration_once(self, traces):
        factory = configure(ProcessBimodal, {"log_table_size": 9})
        plan = WorkPlan.for_suite(factory, traces, sim_engine="vectorized")
        with ExecutionEngine(workers=1) as engine:
            # Start the worker before this process derives anything.
            execute_plan(WorkPlan.for_suite(Bimodal, traces[:1]),
                         engine=engine)
            runs = [execute_plan(plan, engine=engine, batch=batch)
                    for batch in ("off", "auto", "off")]
        stats = {json_stats(outcome) for run in runs for outcome in run}
        # Every unit of every plan read the stats of one derivation.
        assert len(stats) == 1
        assert factory._derivation is None  # this process derived nothing
        expected = [_comparable(simulate(Bimodal(log_table_size=9), trace,
                                         trace_name=unit.name))
                    for trace, unit in zip(traces, plan)]
        for run in runs:
            for outcome, reference in zip(run, expected):
                doc = _comparable(outcome)
                doc["predictor_statistics"] = reference[
                    "predictor_statistics"]
                assert doc == reference

    def test_plain_callable_reaches_engine_workers_as_itself(
            self, tmp_path, traces):
        handoff = ColdHandOff(small_bimodal)
        handoff.derivation()  # holds a cold instance, which never ships
        assert pickle.loads(pickle.dumps(handoff)) is small_bimodal
        plan = WorkPlan.for_suite(small_bimodal, traces)
        with ExecutionEngine(workers=1) as engine:
            cached = execute_plan(plan, engine=engine,
                                  cache=SimulationCache(tmp_path / "c"))
        assert not any(outcome.from_cache for outcome in cached)
        assert [_comparable(o) for o in cached] == \
            [_comparable(o) for o in execute_plan(plan)]

    def test_serve_requests_resolve_to_the_interned_object(
            self, tmp_path, traces, monkeypatch):
        path = tmp_path / "t.sbbt"
        write_trace(path, traces[0])
        seen = []
        original = serve_server._predictor_factory

        def recording(name, parameters):
            factory = original(name, parameters)
            seen.append(factory)
            return factory

        monkeypatch.setattr(serve_server, "_predictor_factory", recording)
        handle = start_in_thread(ServeConfig(
            socket_path=str(tmp_path / "mbp.sock"), workers=0))
        try:
            with MbpClient(socket_path=handle.socket_path) as client:
                for _ in range(2):
                    client.simulate(str(path), "gshare",
                                    parameters={"history_length": 7})
        finally:
            handle.stop()
        assert len(seen) == 2
        assert seen[0] is seen[1] is predictor_factory(
            "gshare", {"history_length": 7})


def json_stats(outcome):
    assert isinstance(outcome, SimulationResult), outcome
    return tuple(sorted(outcome.predictor_statistics.items()))


class TestNoConstruction:
    def test_warm_plan_builds_no_predictor(self, tmp_path, traces, counted):
        factory = configure(counted, {"history_length": 6,
                                      "log_table_size": 10})
        cache = SimulationCache(tmp_path / "cache")
        plan = WorkPlan.for_suite(factory, traces)
        cold = execute_plan(plan, cache=cache)
        counted.built = 0
        warm = execute_plan(plan, cache=cache)
        assert counted.built == 0
        assert all(outcome.from_cache for outcome in warm)
        assert [_comparable(o) for o in warm] == \
            [_comparable(o) for o in cold]

    def test_batched_kernel_group_builds_no_predictor(self, traces,
                                                       counted):
        factories = [configure(counted, {"history_length": h,
                                         "log_table_size": 10})
                     for h in (3, 5, 7)]
        units = [(factory, SimulationConfig(), f"h{i}", "vectorized")
                 for i, factory in enumerate(factories)]
        first, _ = run_unit_group(traces[0], units)
        assert counted.built == len(factories)  # one derivation each
        counted.built = 0
        again, _ = run_unit_group(traces[0], units)
        plan = WorkPlan.for_points(list(enumerate(factories)), traces,
                                   sim_engine="auto")
        batched = execute_plan(plan)
        loose = execute_plan(plan, batch="off")
        assert counted.built == 0
        assert [_comparable(o) for o in again] == \
            [_comparable(o) for o in first]
        assert [_comparable(o) for o in batched] == \
            [_comparable(o) for o in loose]
        expected = [_comparable(simulate(unit.factory(), unit.trace,
                                         trace_name=unit.name))
                    for unit in plan]
        assert [_comparable(o) for o in batched] == expected

    def test_derivation_keeps_no_instance(self, counted):
        factory = configure(counted, {"history_length": 4,
                                      "log_table_size": 9})
        derivation = factory.derivation()
        gc.collect()
        assert len(counted.live) == 0
        assert derivation.kernel is not None
        assert derivation.spec == GShare(history_length=4,
                                         log_table_size=9).spec()

    @pytest.mark.parametrize("name", ["tournament", "perceptron",
                                      "perceptron-tournament"])
    def test_results_share_no_mutable_state(self, traces, name):
        # The last one reports its stats through the kernel's
        # ``KernelRun.stats`` with nested untrained stats of its bases.
        factory = (configure(perceptron_tournament)
                   if name == "perceptron-tournament"
                   else predictor_factory(name))
        plan = WorkPlan.for_suite(factory, traces[:1], sim_engine="auto")
        (first,) = execute_plan(plan)
        reference = json.loads(json.dumps(_comparable(first)))
        for stats in (first.predictor_metadata,
                      first.predictor_statistics):
            for value in stats.values():
                if isinstance(value, dict):
                    value["tampered"] = True
            stats["tampered"] = True
        (second,) = execute_plan(plan)
        assert _comparable(second) == reference


class TestBadConfiguration:
    @pytest.mark.parametrize("path", ["cached", "inline", "batched",
                                      "engine"])
    def test_fails_every_unit_every_call(self, tmp_path, traces, path):
        bad = configure(GShare, {"history_length": 0})
        good = configure(GShare, {"history_length": 5})
        sim_engine = "vectorized" if path == "batched" else "auto"
        plan = WorkPlan.for_points([(0, bad), (1, good)], traces[:2],
                                   sim_engine=sim_engine)
        kwargs = {}
        if path == "cached":
            kwargs["cache"] = SimulationCache(tmp_path / "cache")
        engine = ExecutionEngine(workers=1) if path == "engine" else None
        try:
            for _ in range(2):
                outcomes = execute_plan(plan, engine=engine, **kwargs)
                failed, passed = outcomes[:2], outcomes[2:]
                assert all(isinstance(o, TraceFailure) for o in failed)
                assert [o.stage for o in failed] == ["predictor"] * 2
                assert all(o.error == "ValueError: history_length must be "
                           ">= 1" for o in failed)
                assert all(isinstance(o, SimulationResult) for o in passed)
                assert bad._derivation is None
        finally:
            if engine is not None:
                engine.close()

    def test_derivation_raises_afresh(self):
        bad = configure(GShare, {"history_length": 0})
        for _ in range(2):
            with pytest.raises(ValueError, match="history_length"):
                bad.derivation()
        assert bad._derivation is None
        assert isinstance(bad, ConfiguredFactory)
