"""The persistent execution engine (repro.core.engine).

Covers the ISSUE-5 acceptance criteria:

* caller-owned-engine, private-engine and serial ``run_suite`` produce
  byte-identical ``SimulationResult`` JSON (modulo the wall-clock
  ``simulation_time`` field, which no two runs can share);
* no shared-memory segments survive engine shutdown — after a normal
  close, after worker exceptions, after a worker *crash*, and under the
  ``spawn`` start method;
* the trace_ship / trace_attach / trace_reuse accounting proves each
  trace is published once globally and attached at most once per worker.
"""

import gc
import json
import threading
from multiprocessing import shared_memory

import pytest

from repro.cache import SimulationCache
from repro.core.batch import TraceFailure, run_suite
from repro.core.engine import ExecutionEngine
from repro.core.errors import SimulationError
from repro.core.plan import WorkPlan, WorkUnit, execute_plan
from repro.core.predictor import derive_spec
from repro.core.simulator import SimulationConfig
from repro.predictors import Bimodal, GShare
from repro.sbbt.writer import write_trace
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


def bimodal_factory():
    """Module-level factory: picklable for worker processes."""
    return Bimodal(log_table_size=10)


def gshare_factory():
    return GShare(history_length=8, log_table_size=10)


class _CrashingPredictor(Bimodal):
    """Kills its worker process outright (not a catchable exception)."""

    def predict(self, ip):
        import os
        os._exit(13)


def crashing_factory():
    return _CrashingPredictor(log_table_size=4)


def failing_factory():
    raise RuntimeError("factory exploded")


def _make_traces(count=3, branches=1500):
    return [generate_trace(PROFILES["short_mobile"], seed=90 + i,
                           num_branches=branches)
            for i in range(count)]


@pytest.fixture(scope="module")
def traces():
    return _make_traces()


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, traces):
    directory = tmp_path_factory.mktemp("engine")
    paths = []
    for i, trace in enumerate(traces):
        path = directory / f"t{i}.sbbt"
        write_trace(path, trace)
        paths.append(path)
    return paths


def _segments_alive(names):
    """Which of the named shared-memory segments still exist."""
    alive = []
    for name in names:
        try:
            handle = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        handle.close()
        alive.append(name)
    return alive


def _comparable(result):
    """Listing-1 JSON minus the wall-clock-only field."""
    document = result.to_json()
    document["metrics"].pop("simulation_time")
    return json.dumps(document, sort_keys=True)


class TestDifferential:
    def test_engine_pool_serial_identical_json(self, trace_files):
        serial = run_suite(bimodal_factory, trace_files, workers=1)
        private = run_suite(bimodal_factory, trace_files, workers=2)
        with ExecutionEngine(workers=2) as engine:
            engined = run_suite(bimodal_factory, trace_files, engine=engine)
        expected = [_comparable(r) for r in serial.results]
        assert [_comparable(r) for r in private.results] == expected
        assert [_comparable(r) for r in engined.results] == expected

    def test_in_memory_traces_match_files(self, traces, trace_files):
        serial = run_suite(gshare_factory, traces)
        with ExecutionEngine(workers=2) as engine:
            from_memory = run_suite(gshare_factory, traces, engine=engine)
            from_files = run_suite(gshare_factory, trace_files, engine=engine)
            # Same content: published once, not once per spelling.
            assert engine.stats.traces_published == len(traces)
        assert ([r.mispredictions for r in from_memory.results]
                == [r.mispredictions for r in serial.results])
        assert ([r.mispredictions for r in from_files.results]
                == [r.mispredictions for r in serial.results])

    def test_repeat_suites_are_deterministic(self, trace_files):
        with ExecutionEngine(workers=2) as engine:
            first = run_suite(bimodal_factory, trace_files, engine=engine)
            second = run_suite(bimodal_factory, trace_files, engine=engine)
        assert ([_comparable(r) for r in first.results]
                == [_comparable(r) for r in second.results])

    def test_order_and_names_preserved(self, trace_files):
        names = [f"trace-{i}" for i in range(len(trace_files))]
        with ExecutionEngine(workers=2) as engine:
            batch = run_suite(bimodal_factory, trace_files, engine=engine,
                              names=names)
        assert [r.trace_name for r in batch.results] == names


class TestLifecycle:
    def test_segments_unlinked_on_close(self, traces):
        engine = ExecutionEngine(workers=2)
        run_suite(bimodal_factory, traces, engine=engine)
        names = engine.segment_names()
        assert len(names) == len(traces)
        engine.close()
        assert _segments_alive(names) == []
        assert engine.closed

    def test_close_is_idempotent(self, traces):
        engine = ExecutionEngine(workers=1)
        engine.publish(traces[0])
        engine.close()
        engine.close()

    def test_closed_engine_refuses_work(self, traces):
        engine = ExecutionEngine(workers=1)
        engine.close()
        with pytest.raises(SimulationError):
            engine.publish(traces[0])

    def test_finalizer_backstops_forgotten_close(self, traces):
        engine = ExecutionEngine(workers=1)
        engine.publish(traces[0])
        names = engine.segment_names()
        del engine
        gc.collect()
        assert _segments_alive(names) == []

    def test_segments_unlinked_after_worker_exception(self, traces):
        with ExecutionEngine(workers=2) as engine:
            batch = run_suite(failing_factory, traces, engine=engine,
                              on_error="collect")
            names = engine.segment_names()
            assert len(batch.failures) == len(traces)
            assert all("factory exploded" in f.error for f in batch.failures)
        assert _segments_alive(names) == []

    def test_engine_survives_worker_crash(self, traces):
        with ExecutionEngine(workers=2) as engine:
            crashed = run_suite(crashing_factory, traces, engine=engine,
                                on_error="collect")
            assert len(crashed.failures) == len(traces)
            assert engine.stats.pool_restarts >= 1
            names = engine.segment_names()
            # The pool is replaced and the resident traces survive: a
            # healthy suite on the same engine still works.
            recovered = run_suite(bimodal_factory, traces, engine=engine)
            assert len(recovered.results) == len(traces)
        assert _segments_alive(names) == []

    def test_missing_trace_file_is_isolated(self, tmp_path, traces):
        missing = tmp_path / "missing.sbbt"
        mixed = [traces[0], missing, traces[1]]
        with ExecutionEngine(workers=2) as engine:
            batch = run_suite(bimodal_factory, mixed, engine=engine,
                              on_error="collect")
        # The healthy traces still simulated; only the unreadable one
        # became a failure (same isolation as serial and pool dispatch).
        assert len(batch.results) == 2
        assert len(batch.failures) == 1
        assert batch.failures[0].trace_name == str(missing)
        assert "FileNotFoundError" in batch.failures[0].error
        serial = run_suite(bimodal_factory, [traces[0], traces[1]])
        assert ([r.mispredictions for r in batch.results]
                == [r.mispredictions for r in serial.results])

    def test_missing_trace_file_raises_suite_error(self, tmp_path, traces):
        from repro.core.batch import SuiteError

        missing = tmp_path / "missing.sbbt"
        with ExecutionEngine(workers=2) as engine:
            with pytest.raises(SuiteError):
                run_suite(bimodal_factory, [traces[0], missing],
                          engine=engine)

    def test_spawn_start_method(self, traces):
        serial = run_suite(bimodal_factory, traces[:2])
        with ExecutionEngine(workers=2, start_method="spawn") as engine:
            assert engine.stats.start_method == "spawn"
            batch = run_suite(bimodal_factory, traces[:2], engine=engine)
            names = engine.segment_names()
        assert ([r.mispredictions for r in batch.results]
                == [r.mispredictions for r in serial.results])
        assert _segments_alive(names) == []


class TestAccounting:
    def test_ship_once_attach_per_worker_reuse_rest(self, traces):
        points = 4
        with ExecutionEngine(workers=2) as engine:
            for _ in range(points):
                run_suite(bimodal_factory, traces, engine=engine)
            stats = engine.stats
        assert stats.traces_published == len(traces)
        assert stats.tasks_dispatched == points * len(traces)
        # Each worker maps a trace at most once; everything else reuses
        # the resident copy.
        assert stats.trace_attaches <= engine.workers * len(traces)
        assert (stats.trace_attaches + stats.trace_reuses
                == stats.tasks_dispatched)
        assert stats.trace_reuses > 0
        assert stats.shared_bytes > 0
        assert "publish" in stats.phases and "dispatch" in stats.phases

    def test_publish_dedupes_paths_and_content(self, traces, trace_files):
        with ExecutionEngine(workers=1) as engine:
            first = engine.publish(trace_files[0])
            again = engine.publish(trace_files[0])
            as_memory = engine.publish(traces[0])
            assert first == again
            assert as_memory.digest == first.digest
            assert engine.stats.traces_published == 1
            assert engine.resident_traces == 1

    def test_instrumentation_counters(self, traces):
        from repro.telemetry import PhaseTimers
        from repro.tracing import SpanRecorder

        recorder = SpanRecorder()
        # Three rounds: 9 tasks against at most workers x traces = 6
        # possible first attaches guarantees resident reuses.
        with ExecutionEngine(workers=2) as engine:
            for _ in range(3):
                run_suite(bimodal_factory, traces, engine=engine,
                          tracer=recorder)
        timers = PhaseTimers.from_spans(recorder.spans)
        counters = timers.counters
        assert counters["task_dispatch"] == 3 * len(traces)
        assert counters["trace_ship"] == len(traces)
        assert counters.get("trace_reuse", 0) > 0
        assert "engine_dispatch" in timers.phases

    def test_cache_hits_bypass_dispatch(self, tmp_path, traces):
        cache = SimulationCache(tmp_path / "cache")
        baseline = run_suite(bimodal_factory, traces, cache=cache)
        with ExecutionEngine(workers=2) as engine:
            cached = run_suite(bimodal_factory, traces, engine=engine,
                               cache=cache)
            assert engine.stats.tasks_dispatched == 0
        assert cached.cache_hits == len(traces)
        assert ([r.mispredictions for r in cached.results]
                == [r.mispredictions for r in baseline.results])


class TestDeriveSpec:
    def test_class_factory_ignores_unbound_spec(self):
        spec, instance = derive_spec(Bimodal)
        assert instance is not None
        assert spec == instance.spec()

    def test_cheap_hook_skips_construction(self):
        calls = []

        class SpecOnlyFactory:
            def __call__(self):
                calls.append("built")
                return Bimodal(log_table_size=10)

            def spec(self):
                return Bimodal(log_table_size=10).spec()

        factory = SpecOnlyFactory()
        spec, instance = derive_spec(factory)
        assert instance is None
        assert calls == []
        assert spec == Bimodal(log_table_size=10).spec()

    def test_serial_cached_suite_constructs_once_per_simulation(
            self, tmp_path, traces):
        built = []

        def counting_factory():
            built.append(1)
            return Bimodal(log_table_size=10)

        cache = SimulationCache(tmp_path / "spec-cache")
        run_suite(counting_factory, traces, cache=cache)
        # One spec-derivation instance, reused for the first trace, plus
        # one construction for each remaining trace.
        assert len(built) == len(traces)
        built.clear()
        run_suite(counting_factory, traces, cache=cache)
        # Full cache hit: only the spec derivation remains.
        assert len(built) == 1


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=1, window=0)

    def test_repr(self, traces):
        engine = ExecutionEngine(workers=2)
        engine.publish(traces[0])
        assert "resident_traces=1" in repr(engine)
        engine.close()
        assert "closed" in repr(engine)


class TestMidChunkRecovery:
    """ISSUE-8 satellite: a worker crash *inside* a chunk loses as
    little as possible — finished units are recovered from the spool,
    exactly one unit takes the blame, only unstarted units re-dispatch,
    and no shared-memory segments (or spool files) are left behind."""

    def _mixed_plan(self, traces, crash_at):
        from repro.core.plan import WorkPlan, WorkUnit
        from repro.core.simulator import SimulationConfig
        config = SimulationConfig()
        units = []
        for i, trace in enumerate(traces):
            factory = crashing_factory if i == crash_at else bimodal_factory
            units.append(WorkUnit(factory=factory, trace=trace,
                                  name=f"unit-{i}", config=config))
        return WorkPlan(units=tuple(units))

    def test_crash_mid_chunk_recovers_finished_units(self, traces):
        import os
        plan = self._mixed_plan(_make_traces(count=4), crash_at=2)
        with ExecutionEngine(workers=1) as engine:
            outcomes = dict(engine.run_plan(plan, chunk=4))
            names = engine.segment_names()
            stats = engine.stats
            # Units 0 and 1 finished before the crash: their spooled
            # outcomes survive the worker's death.
            assert stats.units_recovered == 2
            assert outcomes[0].trace_name == "unit-0"
            assert outcomes[1].trace_name == "unit-1"
            assert outcomes[0].mispredictions > 0
            # Exactly one TraceFailure: the unit executing at the crash.
            assert isinstance(outcomes[2], TraceFailure)
            assert outcomes[2].trace_name == "unit-2"
            assert sum(isinstance(o, TraceFailure)
                       for o in outcomes.values()) == 1
            # The unstarted tail unit was re-dispatched, not failed.
            assert stats.units_retried == 1
            assert outcomes[3].trace_name == "unit-3"
            assert outcomes[3].mispredictions > 0
            # 4 planned + 1 retry, in 1 crashed chunk + 1 retry chunk.
            assert stats.tasks_dispatched == 5
            assert stats.chunks_dispatched == 2
            assert stats.pool_restarts == 1
            # The spool directory holds no stale checkpoint files.
            assert engine._spool is not None
            assert os.listdir(engine._spool.name) == []
            spool_dir = engine._spool.name
        assert _segments_alive(names) == []
        assert not os.path.exists(spool_dir)

    def test_recovered_outcomes_match_serial(self, traces):
        local = _make_traces(count=4)
        plan = self._mixed_plan(local, crash_at=2)
        serial = [run_suite(bimodal_factory, [t]).results[0]
                  for t in local]
        with ExecutionEngine(workers=1) as engine:
            outcomes = dict(engine.run_plan(plan, chunk=4))
        for i in (0, 1, 3):
            expected = serial[i]
            got = outcomes[i]
            assert got.mispredictions == expected.mispredictions
            assert (got.num_conditional_branches
                    == expected.num_conditional_branches)

    def test_crash_on_first_unit_retries_whole_tail(self, traces):
        plan = self._mixed_plan(_make_traces(count=3), crash_at=0)
        with ExecutionEngine(workers=1) as engine:
            outcomes = dict(engine.run_plan(plan, chunk=3))
            stats = engine.stats
            names = engine.segment_names()
        # Nothing finished before the crash: no recoveries, the first
        # unit is poisoned, both unstarted units retried and succeed.
        assert stats.units_recovered == 0
        assert stats.units_retried == 2
        assert isinstance(outcomes[0], TraceFailure)
        assert outcomes[1].mispredictions > 0
        assert outcomes[2].mispredictions > 0
        assert stats.pool_restarts == 1
        assert _segments_alive(names) == []

    def test_engine_stays_usable_after_mid_chunk_crash(self, traces):
        plan = self._mixed_plan(_make_traces(count=4), crash_at=1)
        with ExecutionEngine(workers=1) as engine:
            dict(engine.run_plan(plan, chunk=4))
            batch = run_suite(bimodal_factory, traces, engine=engine)
            assert len(batch.results) == len(traces)
            assert not batch.failures

    def test_pool_broken_before_submit_is_replaced(self, traces):
        """A pool another plan's crash broke between this plan fetching
        it and submitting to it is replaced, not raised."""
        import os
        from concurrent.futures.process import BrokenProcessPool

        plan = self._mixed_plan(_make_traces(count=2), crash_at=None)
        with ExecutionEngine(workers=1) as engine:
            with pytest.raises(BrokenProcessPool):
                engine._ensure_pool().submit(os._exit, 13).result(30)
            outcomes = dict(engine.run_plan(plan))
            assert engine.stats.pool_restarts == 1
        assert [outcomes[i].trace_name for i in range(2)] == \
            ["unit-0", "unit-1"]

    def test_stats_json_carries_chunk_counters(self, traces):
        plan = self._mixed_plan(_make_traces(count=4), crash_at=2)
        with ExecutionEngine(workers=1) as engine:
            dict(engine.run_plan(plan, chunk=4))
            document = engine.stats.to_json()
        assert document["units_recovered"] == 2
        assert document["units_retried"] == 1
        assert document["chunks_dispatched"] == 2
        assert "chunk_dispatch" in document["phases"]


class TestConcurrentRunPlan:
    """Several threads may drive ``run_plan`` generators on one engine
    at once (the serve daemon's plan threads do): they must share one
    pool, never collide on spool ids, and leak nothing."""

    def test_four_threads_on_one_fresh_engine(self, monkeypatch):
        import repro.core.engine as engine_module

        constructed = []

        class CountingPool(engine_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                constructed.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor",
                            CountingPool)
        local = _make_traces(count=4)
        plans = [WorkPlan.for_suite(factory, local,
                                    names=[f"p{k}-t{i}"
                                           for i in range(len(local))])
                 for k, factory in enumerate((bimodal_factory,
                                              gshare_factory) * 2)]
        inline = [[_comparable(o) for o in execute_plan(plan)]
                  for plan in plans]
        barrier = threading.Barrier(len(plans))
        outcomes: list[dict | None] = [None] * len(plans)
        errors: list[Exception] = []

        def drive(k):
            try:
                barrier.wait(timeout=30)
                outcomes[k] = dict(engine.run_plan(plans[k], chunk=2))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with ExecutionEngine(workers=2) as engine:
            threads = [threading.Thread(target=drive, args=(k,))
                       for k in range(len(plans))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            names = engine.segment_names()
        assert not errors, errors
        assert len(constructed) == 1
        for k, plan in enumerate(plans):
            assert [_comparable(outcomes[k][i])
                    for i in range(len(plan))] == inline[k]
        assert names
        assert _segments_alive(names) == []

    def test_pool_never_forks_while_a_publish_holds_the_tracker(
            self, monkeypatch, trace_files):
        """The pool forks its worker on its first submit.  If a second
        plan is publishing right then, the fork must wait for it: a
        worker forked while ``publish`` holds the resource tracker's
        lock inherits the lock held and hangs at its first attach."""
        import multiprocessing
        import time
        from multiprocessing import resource_tracker

        import repro.core.engine as engine_module

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        real_register = resource_tracker.register
        holding = threading.Event()

        def slow_register(name, rtype):
            if threading.current_thread() is publisher:
                with resource_tracker._resource_tracker._lock:
                    holding.set()
                    time.sleep(0.5)  # a fork now inherits the lock held
            return real_register(name, rtype)

        class RacingPool(engine_module.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                # The first submit forks: start a publish right before.
                if publisher.ident is None:
                    publisher.start()
                    holding.wait(timeout=1)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(resource_tracker, "register", slow_register)
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor",
                            RacingPool)
        engine = ExecutionEngine(workers=1, start_method="fork")
        publisher = threading.Thread(
            target=engine.publish, args=(trace_files[1],))
        plan = WorkPlan.for_suite(bimodal_factory, [trace_files[0]])
        outcomes = []
        runner = threading.Thread(target=lambda: outcomes.extend(
            execute_plan(plan, engine=engine)), daemon=True)
        runner.start()
        runner.join(timeout=30)
        publisher.join(timeout=30)
        hung = runner.is_alive()
        if hung:  # kill the stuck worker so close() can return
            for process in list(engine._pool._processes.values()):
                process.kill()
        engine.close()
        assert not hung, "the forked worker hung on an inherited lock"
        assert [_comparable(o) for o in outcomes] == [
            _comparable(o) for o in execute_plan(plan)]
