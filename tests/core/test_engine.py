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
import multiprocessing
import os
import tempfile
import threading
from multiprocessing import shared_memory

import pytest

from repro.cache import SimulationCache
from repro.core.batch import TraceFailure, run_suite
from repro.core.engine import ExecutionEngine
from repro.core.errors import SimulationError, TraceFormatError
from repro.core.output import SimulationResult
from repro.core.plan import WorkPlan, WorkUnit, execute_plan
from repro.core.predictor import derive_spec
from repro.core.simulator import SimulationConfig
from repro.predictors import Bimodal, GShare
from repro.sbbt.header import HEADER_SIZE
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


#: Environment variable naming the gate file of _GatedCrashingPredictor.
CRASH_GATE_ENV = "MBP_TEST_CRASH_GATE"


class _GatedCrashingPredictor(Bimodal):
    """Kills its worker once the file named by ``CRASH_GATE_ENV`` exists,
    so a test decides when the crash happens."""

    def predict(self, ip):
        import os
        import time
        deadline = time.monotonic() + 60
        while (not os.path.exists(os.environ[CRASH_GATE_ENV])
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os._exit(13)


def gated_crashing_factory():
    return _GatedCrashingPredictor(log_table_size=4)


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

    def test_unpicklable_factory_fails_its_chunk_only(self, traces):
        config = SimulationConfig()
        factories = [bimodal_factory, lambda: Bimodal(log_table_size=10),
                     bimodal_factory]
        plan = WorkPlan(units=tuple(
            WorkUnit(factory=factory, trace=trace, name=f"unit-{i}",
                     config=config)
            for i, (factory, trace) in enumerate(zip(factories, traces))))
        with ExecutionEngine(workers=1) as engine:
            outcomes = dict(engine.run_plan(plan, chunk=1))
            stats = engine.stats
        assert isinstance(outcomes[1], TraceFailure)
        assert outcomes[1].trace_name == "unit-1"
        assert outcomes[0].mispredictions > 0
        assert outcomes[2].mispredictions > 0
        # Nothing was sent for the failed chunk and no worker died.
        assert stats.chunks_dispatched == 2
        assert stats.pool_restarts == 0
        assert stats.units_retried == 0

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

    def test_publish_rejects_a_bomb_in_bounded_memory(self, tmp_path):
        """A bad signature in front of 64 MiB of zeros (~10 KB of xz):
        publish reads the header first, so the error comes before the
        body is decompressed, and it names the file."""
        import tracemalloc

        from tests.sbbt.test_robustness import TestFileFailureInjection

        bomb = str(TestFileFailureInjection._xz_bomb(
            tmp_path / "bomb.sbbt.xz"))
        with ExecutionEngine(workers=1) as engine:
            tracemalloc.start()
            try:
                with pytest.raises(TraceFormatError,
                                   match="signature") as excinfo:
                    engine.publish(bomb)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert engine.resident_traces == 0
        assert peak < 2 << 20
        assert str(excinfo.value).startswith(f"{bomb}: ")

    def test_publish_names_a_file_as_read_trace_does(self, tmp_path):
        from repro.sbbt.reader import read_trace
        from tests.sbbt.test_robustness import _valid_payload

        payload = bytearray(_valid_payload())
        payload[HEADER_SIZE] |= 0b0001_0000  # a reserved bit of packet 0
        path = tmp_path / "reserved.sbbt"
        path.write_bytes(bytes(payload))
        with pytest.raises(TraceFormatError) as inline:
            read_trace(str(path))
        with ExecutionEngine(workers=1) as engine:
            with pytest.raises(TraceFormatError) as published:
                engine.publish(str(path))
        assert "reserved bits" in str(inline.value)
        assert str(published.value) == str(inline.value)

    def test_run_plan_publishes_each_trace_once_per_call(
            self, tmp_path, traces, trace_files):
        missing = tmp_path / "missing.sbbt"
        suite = [trace_files[0], str(trace_files[0]), traces[1], missing]
        plan = WorkPlan.for_points(
            [(0, bimodal_factory), (1, gshare_factory)], suite)
        with ExecutionEngine(workers=1) as engine:
            calls = []
            publish = engine.publish

            def counting_publish(trace):
                calls.append(str(trace) if not hasattr(trace, "ips")
                             else "<memory>")
                return publish(trace)

            engine.publish = counting_publish
            outcomes = dict(engine.run_plan(plan))
            shipped = engine.stats.traces_published
        # One publish per distinct trace object: a path and its string
        # publish apart but ship one segment, as their content is one.
        # The missing file is tried again by each of its units, and
        # each records its own failure.
        assert sorted(calls) == sorted(
            [str(trace_files[0])] * 2 + ["<memory>"] + [str(missing)] * 2)
        assert shipped == 2
        for index, unit in enumerate(plan):
            if unit.trace is missing:
                assert outcomes[index].stage == "trace"
                assert outcomes[index].trace_name == unit.name
            else:
                assert isinstance(outcomes[index], SimulationResult)

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

    def test_repr(self, traces):
        engine = ExecutionEngine(workers=2)
        engine.publish(traces[0])
        assert "resident_traces=1" in repr(engine)
        engine.close()
        assert "closed" in repr(engine)


#: The crash tests run under both of these start methods: a forked
#: worker inherits the parent's state, a spawned one imports afresh.
CRASH_START_METHODS = [method for method in ("fork", "spawn")
                       if method in multiprocessing.get_all_start_methods()]


class _UnpicklableStats(Bimodal):
    """Simulates fine, but its result cannot be pickled home."""

    def execution_stats(self):
        return {"hook": lambda: None}


def unpicklable_factory():
    return _UnpicklableStats(log_table_size=10)


def _worker_processes(engine):
    return [worker.process for worker in engine._workers]


class TestMidChunkRecovery:
    """A worker crash *inside* a chunk loses as little as possible:
    the records that streamed home before the crash are recovered,
    exactly one unit takes the blame, only unstarted units re-dispatch,
    only the dead worker is replaced, and nothing is left behind — no
    shared-memory segment, no worker process, no temporary file."""

    def _mixed_plan(self, traces, crash_at, factory=crashing_factory):
        from repro.core.plan import WorkPlan, WorkUnit
        from repro.core.simulator import SimulationConfig
        config = SimulationConfig()
        units = []
        for i, trace in enumerate(traces):
            unit_factory = factory if i == crash_at else bimodal_factory
            units.append(WorkUnit(factory=unit_factory, trace=trace,
                                  name=f"unit-{i}", config=config))
        return WorkPlan(units=tuple(units))

    def test_crash_mid_chunk_recovers_finished_units(self, traces):
        plan = self._mixed_plan(_make_traces(count=4), crash_at=2)
        for method in CRASH_START_METHODS:
            temp_before = set(os.listdir(tempfile.gettempdir()))
            with ExecutionEngine(workers=1, start_method=method) as engine:
                outcomes = dict(engine.run_plan(plan, chunk=4))
                names = engine.segment_names()
                stats = engine.stats
                processes = _worker_processes(engine)
                # Units 0 and 1 finished before the crash: their
                # streamed records survive the worker's death.
                assert stats.units_recovered == 2
                assert outcomes[0].trace_name == "unit-0"
                assert outcomes[1].trace_name == "unit-1"
                assert outcomes[0].mispredictions > 0
                # Exactly one TraceFailure: the unit executing at the
                # crash.
                assert isinstance(outcomes[2], TraceFailure)
                assert outcomes[2].trace_name == "unit-2"
                assert "WorkerCrashed" in outcomes[2].error
                assert sum(isinstance(o, TraceFailure)
                           for o in outcomes.values()) == 1
                # The unstarted tail unit was re-dispatched, not failed.
                assert stats.units_retried == 1
                assert outcomes[3].trace_name == "unit-3"
                assert outcomes[3].mispredictions > 0
                # 4 planned + 1 retry, in 1 crashed chunk + 1 retry
                # chunk, on one replacement worker.
                assert stats.tasks_dispatched == 5
                assert stats.chunks_dispatched == 2
                assert stats.pool_restarts == 1
            assert _segments_alive(names) == []
            assert not any(process.is_alive() for process in processes)
            # Recovery needs no checkpoint files: nothing was written
            # under the temporary directory.
            assert set(os.listdir(tempfile.gettempdir())) <= temp_before

    def test_recovered_outcomes_match_serial(self, traces):
        local = _make_traces(count=4)
        plan = self._mixed_plan(local, crash_at=2)
        serial = [run_suite(bimodal_factory, [t],
                            names=[f"unit-{i}"]).results[0]
                  for i, t in enumerate(local)]
        for method in CRASH_START_METHODS:
            with ExecutionEngine(workers=1, start_method=method) as engine:
                outcomes = dict(engine.run_plan(plan, chunk=4))
            for i in (0, 1, 3):
                assert _comparable(outcomes[i]) == _comparable(serial[i])

    def test_crash_on_first_unit_retries_whole_tail(self, traces):
        plan = self._mixed_plan(_make_traces(count=3), crash_at=0)
        for method in CRASH_START_METHODS:
            with ExecutionEngine(workers=1, start_method=method) as engine:
                outcomes = dict(engine.run_plan(plan, chunk=3))
                stats = engine.stats
                names = engine.segment_names()
            # Nothing finished before the crash: no recoveries, the
            # first unit is poisoned, both unstarted units retried and
            # succeed.
            assert stats.units_recovered == 0
            assert stats.units_retried == 2
            assert isinstance(outcomes[0], TraceFailure)
            assert outcomes[1].mispredictions > 0
            assert outcomes[2].mispredictions > 0
            assert stats.pool_restarts == 1
            assert _segments_alive(names) == []

    def test_engine_stays_usable_after_mid_chunk_crash(self, traces):
        plan = self._mixed_plan(_make_traces(count=4), crash_at=1)
        for method in CRASH_START_METHODS:
            with ExecutionEngine(workers=1, start_method=method) as engine:
                dict(engine.run_plan(plan, chunk=4))
                batch = run_suite(bimodal_factory, traces, engine=engine)
                assert len(batch.results) == len(traces)
                assert not batch.failures

    def test_worker_killed_while_idle_is_replaced(self, traces):
        """A worker that dies between plans is replaced when the next
        plan checks it out, and none of that plan's units fail."""
        local = _make_traces(count=2)
        plan = self._mixed_plan(local, crash_at=None)
        inline = [_comparable(o) for o in execute_plan(plan)]
        for method in CRASH_START_METHODS:
            with ExecutionEngine(workers=1, start_method=method) as engine:
                dict(engine.run_plan(plan))
                (victim,) = _worker_processes(engine)
                victim.kill()
                victim.join()
                outcomes = dict(engine.run_plan(plan))
                stats = engine.stats
            assert stats.pool_restarts == 1
            assert stats.units_retried == 0
            assert [_comparable(outcomes[i]) for i in range(2)] == inline

    def test_crash_leaves_other_workers_chunks_untouched(self):
        """On two workers, one dying mid-chunk neither fails nor
        re-runs the units of the chunk on the other worker."""
        local = _make_traces(count=2, branches=800) \
            + _make_traces(count=2, branches=20000)
        plan = self._mixed_plan(local, crash_at=1)
        inline = [_comparable(o) for o in execute_plan(
            plan.subset([2, 3]))]
        for method in CRASH_START_METHODS:
            with ExecutionEngine(workers=2, start_method=method) as engine:
                # Chunks [0, 1] and [2, 3] go to the two workers at once.
                outcomes = dict(engine.run_plan(plan, chunk=2))
                stats = engine.stats
                processes = _worker_processes(engine)
            assert outcomes[0].mispredictions > 0
            assert isinstance(outcomes[1], TraceFailure)
            assert [_comparable(outcomes[2]),
                    _comparable(outcomes[3])] == inline
            assert stats.units_recovered == 1
            assert stats.units_retried == 0
            assert stats.tasks_dispatched == 4
            assert stats.chunks_dispatched == 2
            assert stats.pool_restarts == 1
            assert not any(process.is_alive() for process in processes)

    def test_unpicklable_outcome_fails_only_its_unit(self):
        local = _make_traces(count=3)
        plan = self._mixed_plan(local, crash_at=1,
                                factory=unpicklable_factory)
        inline = execute_plan(plan)
        assert isinstance(inline[1], SimulationResult)
        with ExecutionEngine(workers=1) as engine:
            outcomes = dict(engine.run_plan(plan, chunk=3))
            stats = engine.stats
        assert isinstance(outcomes[1], TraceFailure)
        assert outcomes[1].trace_name == "unit-1"
        assert "pickle" in outcomes[1].error.lower()
        assert [_comparable(outcomes[i]) for i in (0, 2)] == \
            [_comparable(inline[i]) for i in (0, 2)]
        # Not a crash, and not retried: it would fail the same way.
        assert stats.units_retried == 0
        assert stats.pool_restarts == 0
        assert stats.tasks_dispatched == 3

    def test_abandoned_plan_leaves_no_stale_records(self):
        """Closing a run_plan generator mid-plan replaces the workers it
        left mid-chunk; the next plan's outcomes match an inline run."""
        local = _make_traces(count=6)
        first = self._mixed_plan(local, crash_at=None)
        second = WorkPlan.for_suite(gshare_factory, local)
        inline = [_comparable(o) for o in execute_plan(second)]
        with ExecutionEngine(workers=2) as engine:
            running = engine.run_plan(first, chunk=1)
            next(running)
            running.close()
            outcomes = dict(engine.run_plan(second, chunk=1))
            processes = _worker_processes(engine)
        assert [_comparable(outcomes[i])
                for i in range(len(second))] == inline
        assert not any(process.is_alive() for process in processes)

    def test_stats_json_carries_chunk_counters(self, traces):
        plan = self._mixed_plan(_make_traces(count=4), crash_at=2)
        with ExecutionEngine(workers=1) as engine:
            dict(engine.run_plan(plan, chunk=4))
            document = engine.stats.to_json()
        assert document["units_recovered"] == 2
        assert document["units_retried"] == 1
        assert document["chunks_dispatched"] == 2
        assert document["pool_restarts"] == 1
        assert "chunk_dispatch" in document["phases"]


def _counting_starts(monkeypatch):
    """Patch the engine's worker start; return the list of started
    processes."""
    import repro.core.engine as engine_module

    started = []
    real_start = engine_module._start_worker

    def counting_start(context):
        worker = real_start(context)
        started.append(worker.process)
        return worker

    monkeypatch.setattr(engine_module, "_start_worker", counting_start)
    return started


class TestConcurrentRunPlan:
    """Several threads may drive ``run_plan`` generators on one engine
    at once (the serve daemon's plan threads do): they must share
    exactly ``workers`` processes, never see each other's records, and
    leak nothing."""

    def test_four_threads_on_one_fresh_engine(self, monkeypatch):
        started = _counting_starts(monkeypatch)
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
            assert engine.stats.pool_restarts == 0
        assert not errors, errors
        assert len(started) == 2
        assert not any(process.is_alive() for process in started)
        for k, plan in enumerate(plans):
            assert [_comparable(outcomes[k][i])
                    for i in range(len(plan))] == inline[k]
        assert names
        assert _segments_alive(names) == []

    def test_crash_in_one_plan_spares_concurrent_plans(self, monkeypatch):
        """A worker crash in one thread's plan fails one unit of that
        plan only; the other threads' plans come out as inline."""
        started = _counting_starts(monkeypatch)
        local = _make_traces(count=4)
        healthy = [WorkPlan.for_suite(bimodal_factory, local)
                   for _ in range(2)]
        crashing = TestMidChunkRecovery()._mixed_plan(local, crash_at=1)
        inline = [_comparable(o) for o in execute_plan(healthy[0])]
        plans = [crashing] + healthy
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
            # When nothing was waiting at the crash and no chunk checked
            # out after it, the replacement is not started yet; a plan of
            # more chunks than live workers checks out and starts it.
            extra = dict(engine.run_plan(healthy[0], chunk=1))
            assert engine.stats.pool_restarts == 1
        assert not errors, errors
        assert len(started) == 3  # two workers, one replacement
        assert sum(isinstance(o, TraceFailure)
                   for o in outcomes[0].values()) == 1
        assert isinstance(outcomes[0][1], TraceFailure)
        for k in (1, 2):
            assert [_comparable(outcomes[k][i])
                    for i in range(len(local))] == inline
        assert [_comparable(extra[i]) for i in range(len(local))] == inline

    @staticmethod
    def _wait_until(predicate, timeout=30.0):
        import time
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.01)

    def test_waiter_gets_the_replacement_of_a_crashed_worker(
            self, monkeypatch, tmp_path):
        """On one worker, a plan whose only chunk crashes on its last
        unit never checks out again; a plan waiting for that worker
        gets its replacement instead of waiting until close."""
        local = _make_traces(count=3)
        crashing = TestMidChunkRecovery()._mixed_plan(
            local[:2], crash_at=1, factory=gated_crashing_factory)
        waiting = WorkPlan.for_suite(gshare_factory, local)
        inline = [_comparable(o) for o in execute_plan(waiting)]
        gate = tmp_path / "gate"
        monkeypatch.setenv(CRASH_GATE_ENV, str(gate))
        for method in CRASH_START_METHODS:
            gate.unlink(missing_ok=True)
            outcomes: list[dict | None] = [None, None]
            errors: list[Exception] = []

            def drive(k, plan):
                try:
                    outcomes[k] = dict(engine.run_plan(plan, chunk=2))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            with ExecutionEngine(workers=1, start_method=method) as engine:
                first = threading.Thread(target=drive, args=(0, crashing))
                first.start()
                self._wait_until(lambda: engine._chunk_seq == 1)
                second = threading.Thread(target=drive, args=(1, waiting))
                second.start()
                self._wait_until(lambda: len(engine._waiting) == 1)
                gate.touch()
                first.join(timeout=60)
                second.join(timeout=60)
                hung = second.is_alive()
                stats = engine.stats
            first.join(timeout=60)
            second.join(timeout=60)
            assert not hung, "the waiting plan never got a worker"
            assert not errors, errors
            assert outcomes[0][0].mispredictions > 0
            assert isinstance(outcomes[0][1], TraceFailure)
            assert [_comparable(outcomes[1][i])
                    for i in range(len(waiting))] == inline
            assert stats.pool_restarts == 1
            assert stats.units_retried == 0

    def test_waiter_gets_workers_an_abandoned_plan_held(self):
        """A generator closed while it holds every worker kills them;
        a plan waiting for a worker gets their replacements."""
        local = _make_traces(count=6)
        abandoned = WorkPlan.for_suite(bimodal_factory, local)
        waiting = WorkPlan.for_suite(gshare_factory, local)
        inline = [_comparable(o) for o in execute_plan(waiting)]
        for method in CRASH_START_METHODS:
            outcomes: list[dict] = []
            errors: list[Exception] = []

            def drive():
                try:
                    outcomes.append(dict(engine.run_plan(waiting, chunk=1)))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            with ExecutionEngine(workers=2, start_method=method) as engine:
                running = engine.run_plan(abandoned, chunk=1)
                next(running)
                assert not engine._idle  # it holds both workers
                waiter = threading.Thread(target=drive)
                waiter.start()
                self._wait_until(lambda: len(engine._waiting) == 1)
                running.close()
                waiter.join(timeout=60)
                hung = waiter.is_alive()
                stats = engine.stats
                processes = _worker_processes(engine)
            waiter.join(timeout=60)
            assert not hung, "the waiting plan never got a worker"
            assert not errors, errors
            assert [_comparable(outcomes[0][i])
                    for i in range(len(waiting))] == inline
            assert stats.pool_restarts == 2
            assert not any(process.is_alive() for process in processes)

    def test_pool_never_forks_while_a_publish_holds_the_tracker(
            self, monkeypatch, trace_files):
        """Workers are forked when a plan first checks one out.  If a
        second plan is publishing right then, the fork must wait for it:
        a worker forked while ``publish`` holds the resource tracker's
        lock inherits the lock held and hangs at its first attach."""
        import time
        from multiprocessing import resource_tracker

        import repro.core.engine as engine_module

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        real_register = resource_tracker.register
        real_start = engine_module._start_worker
        holding = threading.Event()

        def slow_register(name, rtype):
            if threading.current_thread() is publisher:
                with resource_tracker._resource_tracker._lock:
                    holding.set()
                    time.sleep(0.5)  # a fork now inherits the lock held
            return real_register(name, rtype)

        def racing_start(context):
            # The first start forks: start a publish right before.
            if publisher.ident is None:
                publisher.start()
                holding.wait(timeout=1)
            return real_start(context)

        monkeypatch.setattr(resource_tracker, "register", slow_register)
        monkeypatch.setattr(engine_module, "_start_worker", racing_start)
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
            for process in _worker_processes(engine):
                process.kill()
        engine.close()
        assert not hung, "the forked worker hung on an inherited lock"
        assert [_comparable(o) for o in outcomes] == [
            _comparable(o) for o in execute_plan(plan)]
