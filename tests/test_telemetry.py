"""Tests for the observability layer (:mod:`repro.telemetry`).

Covers the ISSUE-2 acceptance properties:

* the disabled path makes no sink/recorder calls and produces results
  identical to an instrumented run;
* interval series sum (window deltas and cumulative counters) to the
  final ``SimulationResult`` totals under warmup and max_instructions;
* run manifests round-trip through JSON exactly;
* phase spans are recorded by the standard simulator, the vectorized
  engine, ``run_suite`` and the cache, and fold into phase timers;
* no duration anywhere depends on the non-monotonic ``time.time``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cache import SimulationCache
from repro.core.batch import run_suite
from repro.core.errors import TelemetryError
from repro.core.plan import WorkPlan, execute_plan
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import Bimodal, GShare
from repro.sbbt.writer import write_trace
from repro.telemetry import (
    CsvFileSink,
    IntervalRecorder,
    IntervalSeries,
    JsonFileSink,
    MemorySink,
    PhaseTimers,
    RunManifest,
    build_manifest,
    read_telemetry,
    suite_manifest,
    write_telemetry,
)
from repro.telemetry.interval import CSV_COLUMNS
from repro.tracing import SpanRecorder
from tests.conftest import execute_folded


class RaisingSink:
    """A sink that must never be reached (zero-overhead assertions)."""

    def emit(self, record):
        raise AssertionError("sink.emit called on the disabled path")

    def finalize(self, series):
        raise AssertionError("sink.finalize called on the disabled path")


def fold(tracer):
    """The phases and counters a recorder's spans fold into."""
    return PhaseTimers.from_spans(tracer.spans)


class TestNullInstrumentation:
    def test_disabled_run_makes_no_sink_calls(self, small_trace):
        # The sink raises on any call; it is attached to a recorder that
        # is *not* passed to simulate, proving the default path never
        # touches telemetry machinery.
        recorder = IntervalRecorder(interval=1000, sink=RaisingSink())
        simulate(Bimodal(), small_trace)
        assert recorder.series is None

    def test_disabled_run_identical_to_instrumented_run(self, small_trace):
        config = SimulationConfig(warmup_instructions=1000)
        plain = simulate(Bimodal(), small_trace, config)
        instrumented = simulate(
            Bimodal(), small_trace, config,
            tracer=SpanRecorder(),
            telemetry=IntervalRecorder(interval=500))
        assert plain.mispredictions == instrumented.mispredictions
        assert (plain.num_conditional_branches
                == instrumented.num_conditional_branches)
        assert plain.to_json()["metrics"]["mpki"] == \
            instrumented.to_json()["metrics"]["mpki"]
        # Telemetry must not leak into the Listing-1 JSON schema.
        a, b = plain.to_json(), instrumented.to_json()
        a["metrics"].pop("simulation_time")
        b["metrics"].pop("simulation_time")
        assert a == b


class TestPhaseTimers:
    def test_accumulation(self):
        timers = PhaseTimers()
        timers.add_phase("scan", 2.0)
        timers.add_phase("scan", 3.0)
        assert timers.phases == {"scan": 5.0}

    def test_counters_and_snapshot(self):
        timers = PhaseTimers()
        timers.count("hit")
        timers.count("hit", 2)
        snap = timers.snapshot()
        assert snap == {"phases": {}, "counters": {"hit": 3}}
        snap["counters"]["hit"] = 99  # snapshot is a copy
        assert timers.counters["hit"] == 3

    def test_simulator_records_the_three_phases(self, small_trace):
        tracer = SpanRecorder()
        result = simulate(Bimodal(), small_trace, tracer=tracer)
        timers = fold(tracer)
        assert list(timers.phases) == ["trace_read", "simulate_loop",
                                       "finalize"]
        assert timers.phases["simulate_loop"] == result.simulation_time
        assert timers.counters == {}

    def test_thread_safe_accumulation(self):
        """8 threads hammering one shared instance lose no updates.

        The serve daemon's workers=0 thread backend (and the engine's
        future callbacks) share one PhaseTimers across threads; an
        unlocked dict read-modify-write drops updates under that race.
        """
        import threading

        timers = PhaseTimers()
        rounds = 2000
        barrier = threading.Barrier(8)

        def hammer(tid):
            barrier.wait(timeout=30)
            for _ in range(rounds):
                timers.add_phase("shared", 0.001)
                timers.add_phase(f"own-{tid}", 1.0)
                timers.count("shared")
                timers.snapshot()

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert timers.counters["shared"] == 8 * rounds
        assert timers.phases["shared"] == pytest.approx(
            8 * rounds * 0.001)
        for tid in range(8):
            assert timers.phases[f"own-{tid}"] == rounds


class TestIntervalSeries:
    @pytest.mark.parametrize("config", [
        SimulationConfig(),
        SimulationConfig(warmup_instructions=2000),
        SimulationConfig(max_instructions=7000),
        SimulationConfig(warmup_instructions=1000, max_instructions=9000),
    ], ids=["plain", "warmup", "limit", "warmup+limit"])
    def test_series_sums_to_final_totals(self, small_trace, config):
        recorder = IntervalRecorder(interval=1000)
        result = simulate(GShare(history_length=8, log_table_size=10),
                          small_trace, config, telemetry=recorder)
        series = recorder.series
        assert series is not None
        assert series.consistent_with(result)
        assert series.total_mispredictions == result.mispredictions
        assert (series.total_conditional_branches
                == result.num_conditional_branches)
        last = series.records[-1]
        assert last.cumulative_mispredictions == result.mispredictions
        assert last.measured_instructions == result.simulation_instructions

    def test_windows_are_monotonic_and_positive(self, small_trace):
        recorder = IntervalRecorder(interval=1500)
        simulate(Bimodal(), small_trace, telemetry=recorder)
        series = recorder.series
        previous = 0
        for record in series.records:
            assert record.window_instructions > 0
            assert record.window_mispredictions >= 0
            assert record.instructions > previous
            previous = record.instructions
        assert [r.index for r in series.records] == \
            list(range(1, len(series.records) + 1))

    def test_interval_larger_than_trace_gives_one_record(self, small_trace):
        recorder = IntervalRecorder(interval=10**9)
        result = simulate(Bimodal(), small_trace, telemetry=recorder)
        assert len(recorder.series.records) == 1
        assert recorder.series.consistent_with(result)

    def test_invalid_interval_rejected(self):
        with pytest.raises(TelemetryError, match="positive"):
            IntervalRecorder(interval=0)

    def test_json_round_trip(self, small_trace):
        recorder = IntervalRecorder(interval=2000)
        simulate(Bimodal(), small_trace, telemetry=recorder)
        series = recorder.series
        clone = IntervalSeries.from_json(
            json.loads(series.to_json_string()))
        assert clone == series

    def test_from_json_rejects_junk(self):
        with pytest.raises(TelemetryError):
            IntervalSeries.from_json({"schema": 99, "records": []})
        with pytest.raises(TelemetryError):
            IntervalSeries.from_json({"nonsense": True})

    def test_csv_shape(self, small_trace):
        recorder = IntervalRecorder(interval=2000)
        simulate(Bimodal(), small_trace, telemetry=recorder)
        lines = recorder.series.to_csv().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(recorder.series.records) + 1

    def test_recorder_is_reusable(self, small_trace):
        recorder = IntervalRecorder(interval=1000)
        first = simulate(Bimodal(), small_trace, telemetry=recorder)
        first_series = recorder.series
        second = simulate(Bimodal(), small_trace, telemetry=recorder)
        assert recorder.series.consistent_with(second)
        assert first_series.consistent_with(first)

    def test_streaming_sink_receives_every_record(self, small_trace):
        sink = MemorySink()
        recorder = IntervalRecorder(interval=1000, sink=sink)
        simulate(Bimodal(), small_trace, telemetry=recorder)
        assert sink.series is recorder.series
        assert sink.records == recorder.series.records


class TestManifest:
    def test_round_trip_through_json(self, small_trace):
        config = SimulationConfig(warmup_instructions=500)
        tracer = SpanRecorder()
        predictor = GShare(history_length=8, log_table_size=10)
        result = simulate(predictor, small_trace, config, tracer=tracer)
        timers = fold(tracer)
        manifest = build_manifest(result, trace=small_trace,
                                  predictor=predictor, config=config,
                                  phases=timers.phases,
                                  counters=timers.counters or None)
        clone = RunManifest.from_json(
            json.loads(manifest.to_json_string()))
        assert clone == manifest
        assert clone.to_json() == manifest.to_json()

    def test_manifest_contents(self, small_trace):
        from repro.sbbt.digest import trace_digest

        config = SimulationConfig(warmup_instructions=500)
        predictor = GShare(history_length=8, log_table_size=10)
        tracer = SpanRecorder()
        result = simulate(predictor, small_trace, config, tracer=tracer)
        timers = fold(tracer)
        manifest = build_manifest(result, trace=small_trace,
                                  predictor=predictor, config=config,
                                  phases=timers.phases)
        assert manifest.trace_digest == trace_digest(small_trace)
        assert manifest.predictor == predictor.spec()
        assert manifest.config["warmup_instructions"] == 500
        assert manifest.metrics["mispredictions"] == result.mispredictions
        assert manifest.timing["phases"] == timers.phases
        assert "counters" not in manifest.timing
        assert manifest.cache == {"used": False, "hit": False}
        assert manifest.environment["python"]

    def test_deterministic_with_injected_provenance(self, small_trace):
        result = simulate(Bimodal(), small_trace)
        a = build_manifest(result, created="2026-08-06T00:00:00+00:00",
                           environment={})
        b = build_manifest(result, created="2026-08-06T00:00:00+00:00",
                           environment={})
        assert a.to_json() == b.to_json()

    def test_from_json_rejects_junk(self):
        with pytest.raises(TelemetryError, match="not a run manifest"):
            RunManifest.from_json({"kind": "other"})
        with pytest.raises(TelemetryError):
            RunManifest.from_json({"kind": "repro-run-manifest",
                                   "schema": 99})

    def test_write_and_read_back(self, small_trace, tmp_path):
        result = simulate(Bimodal(), small_trace)
        manifest = build_manifest(result)
        path = manifest.write(tmp_path / "manifest.json")
        document = read_telemetry(path)
        assert RunManifest.from_json(document["manifest"]) == manifest


class TestSuiteTelemetry:
    def test_run_suite_instrumentation_with_cache(self, small_trace,
                                                  server_trace, tmp_path):
        recorder = SpanRecorder()
        traces = [small_trace, server_trace]
        cache = SimulationCache(tmp_path / "cache")
        batch = run_suite(Bimodal, traces, cache=cache, tracer=recorder)
        timers = PhaseTimers.from_spans(recorder.spans)
        assert timers.counters == {"cache_hit": 0, "cache_miss": 2}
        assert "cache_lookup" in timers.phases
        assert "simulate" in timers.phases
        rerun_recorder = SpanRecorder()
        rerun = run_suite(Bimodal, traces, cache=cache,
                          tracer=rerun_recorder)
        rerun_timers = PhaseTimers.from_spans(rerun_recorder.spans)
        assert rerun_timers.counters == {"cache_hit": 2, "cache_miss": 0}
        assert rerun.cache_hits == 2
        assert batch.total_mispredictions == rerun.total_mispredictions

    def test_run_suite_counts_failures(self, small_trace, tmp_path):
        recorder = SpanRecorder()
        batch = run_suite(Bimodal, [small_trace, tmp_path / "missing.sbbt"],
                          on_error="collect", tracer=recorder)
        timers = PhaseTimers.from_spans(recorder.spans)
        assert timers.counters.get("trace_failure") == 1
        assert len(batch.failures) == 1

    def test_suite_manifest_document(self, small_trace, server_trace):
        batch = run_suite(Bimodal, [small_trace, server_trace])
        document = suite_manifest(batch, environment={},
                                  created="2026-08-06T00:00:00+00:00")
        assert document["kind"] == "repro-suite-manifest"
        assert document["num_traces"] == 2
        assert len(document["runs"]) == 2
        for run in document["runs"]:
            assert RunManifest.from_json(run).metrics["mispredictions"] >= 0
        aggregate = document["aggregate"]
        assert aggregate["total_mispredictions"] == \
            batch.total_mispredictions
        assert aggregate["timing"]["total"] == pytest.approx(
            batch.timing.total)


def one_unit(factory, trace, **fields):
    """A one-unit plan, the shape ``mbp simulate`` runs."""
    (unit,) = WorkPlan.for_suite(factory, [trace])
    return WorkPlan((replace(unit, **fields),))


class TestCacheTelemetry:
    def test_hit_and_miss_counters(self, small_trace, tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        plan = one_unit(Bimodal, small_trace, interval=1000)
        tracer = SpanRecorder()
        (fresh,) = execute_plan(plan, cache=cache, tracer=tracer)
        timers = fold(tracer)
        assert timers.counters == {"cache_hit": 0, "cache_miss": 1}
        assert list(timers.phases) == ["cache_lookup", "trace_read",
                                       "simulate_loop", "finalize",
                                       "simulate", "execute_plan"]
        assert fresh.intervals is not None
        assert fresh.intervals.consistent_with(fresh)

        hit_tracer = SpanRecorder()
        (cached,) = execute_plan(plan, cache=cache, tracer=hit_tracer)
        assert cached.from_cache
        hit_timers = fold(hit_tracer)
        assert hit_timers.counters == {"cache_hit": 1, "cache_miss": 0}
        assert list(hit_timers.phases) == ["cache_lookup", "execute_plan"]
        assert cached.intervals is None  # a hit simulates nothing

    def test_cache_hit_still_yields_valid_manifest(self, small_trace,
                                                   tmp_path):
        # A cached result must build a well-formed manifest: the cache
        # section records the hit, and run-only artifacts (interval
        # series, probe report) are simply absent, not fabricated.
        cache = SimulationCache(tmp_path / "cache")
        execute_plan(one_unit(Bimodal, small_trace), cache=cache)
        (cached,) = execute_plan(
            one_unit(Bimodal, small_trace, interval=1000), cache=cache)
        assert cached.from_cache
        manifest = build_manifest(cached, trace=small_trace,
                                  cache_used=True, environment={},
                                  created="2026-01-01T00:00:00+00:00")
        assert manifest.cache == {"used": True, "hit": True}
        assert manifest.probe is None
        document = manifest.to_json()
        assert "probe" not in document
        assert RunManifest.from_json(document) == manifest
        assert cached.intervals is None
        path = write_telemetry(tmp_path / "telemetry.json",
                               manifest=manifest)
        loaded = read_telemetry(path)
        assert loaded["manifest"]["cache"] == {"used": True, "hit": True}
        assert loaded["intervals"] is None
        assert "probe" not in loaded


class TestIntervalUnits:
    """A plan unit with ``interval`` returns its series on the result."""

    @pytest.fixture()
    def trace_path(self, small_trace, tmp_path):
        path = tmp_path / "t.sbbt"
        write_trace(path, small_trace)
        return str(path)

    def test_same_series_inline_and_on_an_engine(self, trace_path):
        from repro.core.engine import ExecutionEngine

        # Two kernel units over one trace would batch; with an interval
        # they stay loose, so each records its own series.
        plan = WorkPlan.for_suite(GShare, [trace_path, trace_path],
                                  sim_engine="auto")
        plan = WorkPlan(tuple(replace(unit, interval=700)
                              for unit in plan))
        inline, timers = execute_folded(plan)
        assert "batch_groups" not in timers.counters
        with ExecutionEngine(workers=1) as engine:
            worker = execute_plan(plan, engine=engine)
        for a, b in zip(inline, worker):
            assert a.intervals is not None
            assert a.intervals.consistent_with(a)
            assert a.intervals.to_json() == b.intervals.to_json()

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_series_matches_a_direct_recorder(self, trace_path, engine):
        recorder = IntervalRecorder(700)
        simulate(GShare(), trace_path, telemetry=recorder, engine=engine)
        (result,) = execute_plan(one_unit(GShare, trace_path, interval=700,
                                          sim_engine=engine))
        assert result.intervals.records == recorder.series.records


class TestSinksAndDocuments:
    def test_json_and_csv_file_sinks(self, small_trace, tmp_path):
        json_path = tmp_path / "series.json"
        csv_path = tmp_path / "series.csv"
        recorder = IntervalRecorder(interval=1500,
                                    sink=JsonFileSink(json_path))
        simulate(Bimodal(), small_trace, telemetry=recorder)
        loaded = IntervalSeries.from_json(json.loads(json_path.read_text()))
        assert loaded == recorder.series

        recorder = IntervalRecorder(interval=1500,
                                    sink=CsvFileSink(csv_path))
        simulate(Bimodal(), small_trace, telemetry=recorder)
        assert csv_path.read_text() == recorder.series.to_csv()

    def test_combined_document_round_trip(self, small_trace, tmp_path):
        tracer = SpanRecorder()
        recorder = IntervalRecorder(interval=2000)
        result = simulate(Bimodal(), small_trace, tracer=tracer,
                          telemetry=recorder)
        timers = fold(tracer)
        manifest = build_manifest(result, trace=small_trace)
        path = write_telemetry(tmp_path / "telemetry.json",
                               manifest=manifest, phases=timers.phases,
                               intervals=recorder.series)
        document = read_telemetry(path)
        assert document["kind"] == "repro-telemetry"
        assert RunManifest.from_json(document["manifest"]) == manifest
        assert (IntervalSeries.from_json(document["intervals"])
                == recorder.series)
        assert document["phases"] == timers.phases

    def test_read_telemetry_wraps_bare_series(self, small_trace, tmp_path):
        recorder = IntervalRecorder(interval=2000)
        simulate(Bimodal(), small_trace, telemetry=recorder)
        path = tmp_path / "series.json"
        path.write_text(recorder.series.to_json_string())
        document = read_telemetry(path)
        assert document["manifest"] is None
        assert (IntervalSeries.from_json(document["intervals"])
                == recorder.series)

    def test_read_telemetry_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            read_telemetry(path)
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(TelemetryError, match="not a telemetry"):
            read_telemetry(path)
        with pytest.raises(TelemetryError, match="cannot read"):
            read_telemetry(tmp_path / "missing.json")

    def test_csv_telemetry_document_requires_series(self, tmp_path):
        with pytest.raises(TelemetryError, match="interval series"):
            write_telemetry(tmp_path / "out.csv", manifest=None)


class TestMonotonicTiming:
    def test_simulation_never_calls_wall_clock_time(self, small_trace,
                                                    monkeypatch):
        """Timings must use time.perf_counter.

        ``time.time`` is wall clock — NTP steps make it non-monotonic,
        which would corrupt Table III measurements.  Poisoning it proves
        no timing path in the simulators depends on it; with a tracer
        it may only stamp span starts, so there it is frozen, and every
        phase duration must still be measured.
        """
        import time as time_module

        def forbidden():  # pragma: no cover - must never run
            raise AssertionError("time.time() used for simulation timing")

        monkeypatch.setattr(time_module, "time", forbidden)
        recorder = IntervalRecorder(interval=1000)
        result = simulate(Bimodal(), small_trace, telemetry=recorder)
        assert result.simulation_time >= 0.0
        assert recorder.series.consistent_with(result)

        monkeypatch.setattr(time_module, "time", lambda: 0.0)
        tracer = SpanRecorder()
        result = simulate(Bimodal(), small_trace, tracer=tracer)
        timers = fold(tracer)
        assert timers.phases["simulate_loop"] == result.simulation_time
        assert all(seconds > 0.0 for seconds in timers.phases.values())


class TestVectorizedEngineTelemetry:
    """``simulate(engine="vectorized")`` keeps the scalar engine's
    telemetry contract: same phase names, identical interval series."""

    def test_phase_names_match_scalar(self, small_trace):
        scalar_tracer, vector_tracer = SpanRecorder(), SpanRecorder()
        simulate(GShare(log_table_size=10, history_length=8), small_trace,
                 tracer=scalar_tracer)
        vector = simulate(GShare(log_table_size=10, history_length=8),
                          small_trace, engine="vectorized",
                          tracer=vector_tracer)
        scalar_timers, vector_timers = fold(scalar_tracer), \
            fold(vector_tracer)
        assert list(scalar_timers.phases) == list(vector_timers.phases) \
            == ["trace_read", "simulate_loop", "finalize"]
        assert vector_timers.phases["simulate_loop"] == \
            vector.simulation_time
        # A single unit reuses no derived history: no zero counter.
        assert vector_timers.counters == {}

    def test_interval_series_identical(self, small_trace):
        scalar_rec = IntervalRecorder(interval=1000)
        vector_rec = IntervalRecorder(interval=1000)
        a = simulate(Bimodal(log_table_size=10), small_trace,
                     telemetry=scalar_rec)
        b = simulate(Bimodal(log_table_size=10), small_trace,
                     engine="vectorized", telemetry=vector_rec)
        assert scalar_rec.series.to_json() == vector_rec.series.to_json()
        assert vector_rec.series.consistent_with(b)
        assert a.mispredictions == b.mispredictions

    def test_interval_series_identical_under_warmup_and_limit(
            self, server_trace):
        config = SimulationConfig(warmup_instructions=4000,
                                  max_instructions=15000)
        scalar_rec = IntervalRecorder(interval=700)
        vector_rec = IntervalRecorder(interval=700)
        simulate(Bimodal(log_table_size=10), server_trace, config,
                 telemetry=scalar_rec)
        b = simulate(Bimodal(log_table_size=10), server_trace, config,
                     engine="vectorized", telemetry=vector_rec)
        assert scalar_rec.series.to_json() == vector_rec.series.to_json()
        assert vector_rec.series.consistent_with(b)

    def test_result_unchanged_by_instrumentation(self, small_trace):
        plain = simulate(GShare(log_table_size=10, history_length=8),
                         small_trace, engine="vectorized")
        recorder = IntervalRecorder(interval=2000)
        instrumented = simulate(GShare(log_table_size=10, history_length=8),
                                small_trace, engine="vectorized",
                                tracer=SpanRecorder(), telemetry=recorder)
        a, b = plain.to_json(), instrumented.to_json()
        del a["metrics"]["simulation_time"]
        del b["metrics"]["simulation_time"]
        assert a == b

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_result_json_unchanged_by_tracer(self, small_trace, tmp_path,
                                             engine):
        def factory():
            return GShare(log_table_size=10, history_length=8)

        def untimed(result):
            document = result.to_json()
            del document["metrics"]["simulation_time"]
            return document

        plain = simulate(factory(), small_trace, engine=engine)
        traced = simulate(factory(), small_trace, engine=engine,
                          tracer=SpanRecorder())
        assert untimed(plain) == untimed(traced)
        cache = SimulationCache(tmp_path / "cache")
        plan = WorkPlan.for_suite(factory, [small_trace], names=["<memory>"],
                                  sim_engine=engine)
        (stored,) = execute_plan(plan, cache=cache, tracer=SpanRecorder())
        assert untimed(stored) == untimed(plain)
        (plain_hit,) = execute_plan(plan, cache=cache)
        (traced_hit,) = execute_plan(plan, cache=cache,
                                     tracer=SpanRecorder())
        assert traced_hit.from_cache
        assert (plain_hit.to_json_string() == traced_hit.to_json_string()
                == stored.to_json_string())
