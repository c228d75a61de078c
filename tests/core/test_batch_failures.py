"""Per-trace fault isolation in :func:`repro.core.batch.run_suite`.

One bad trace (or one buggy predictor) must not take down a suite: the
failure is wrapped into a :class:`TraceFailure` that names the offending
trace, every other trace still completes, and the caller chooses between
``on_error="raise"`` (a :class:`SuiteError` carrying the partial results)
and ``on_error="collect"``.
"""

from __future__ import annotations

import pytest

from repro.core.batch import SuiteError, TraceFailure, run_suite
from repro.predictors import Bimodal
from repro.sbbt.writer import write_trace
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


def bimodal_factory() -> Bimodal:
    return Bimodal(log_table_size=10)


class ExplodingPredictor(Bimodal):
    """Fails mid-simulation, after some successful predictions."""

    def __init__(self):
        super().__init__(log_table_size=10)
        self._calls = 0

    def predict(self, ip: int) -> bool:
        self._calls += 1
        if self._calls > 100:
            raise RuntimeError("predictor exploded mid-trace")
        return super().predict(ip)


def exploding_factory() -> ExplodingPredictor:
    """Module-level (hence picklable) factory for process-pool runs."""
    return ExplodingPredictor()


def test_failure_record_from_the_handled_exception():
    try:
        raise ValueError("bad value")
    except ValueError as exc:
        failure = TraceFailure.from_exception("t.sbbt", exc, stage="trace")
        default = TraceFailure.from_exception("t.sbbt", exc)
    assert failure.trace_name == "t.sbbt"
    assert failure.error == "ValueError: bad value"
    assert failure.stage == "trace"
    assert failure.details.startswith("Traceback (most recent call last)")
    assert failure.details.rstrip().endswith("ValueError: bad value")
    assert default.stage == "simulate"
    assert str(failure) == "t.sbbt: ValueError: bad value"


@pytest.fixture(scope="module")
def good_traces(tmp_path_factory):
    directory = tmp_path_factory.mktemp("failure-traces")
    paths = []
    for i in range(3):
        path = directory / f"good{i}.sbbt"
        write_trace(path, generate_trace(PROFILES["short_mobile"],
                                         seed=i, num_branches=1500))
        paths.append(path)
    return paths


@pytest.fixture()
def bad_trace(tmp_path):
    path = tmp_path / "broken.sbbt"
    path.write_bytes(b"this is not an SBBT trace")
    return path


@pytest.mark.parametrize("workers", [1, 2])
class TestBadTraceFile:
    def test_failure_names_the_trace_and_suite_completes(
            self, good_traces, bad_trace, workers):
        traces = [good_traces[0], bad_trace, *good_traces[1:]]
        batch = run_suite(bimodal_factory, traces, workers=workers,
                          on_error="collect")
        assert len(batch.results) == len(good_traces)
        assert len(batch.failures) == 1
        failure = batch.failures[0]
        assert isinstance(failure, TraceFailure)
        assert str(bad_trace) in failure.trace_name
        assert failure.error  # the exception type and message
        # Successful traces kept their order and names.
        assert [r.trace_name for r in batch.results] == \
            [str(p) for p in good_traces]

    def test_raise_mode_carries_partial_results(self, good_traces,
                                                bad_trace, workers):
        traces = [*good_traces, bad_trace]
        with pytest.raises(SuiteError) as excinfo:
            run_suite(bimodal_factory, traces, workers=workers)
        error = excinfo.value
        assert str(bad_trace) in str(error)
        assert len(error.failures) == 1
        assert len(error.partial.results) == len(good_traces)

    def test_failure_details_include_traceback(self, good_traces,
                                               bad_trace, workers):
        batch = run_suite(bimodal_factory, [bad_trace, good_traces[0]],
                          workers=workers, on_error="collect")
        assert "Traceback" in batch.failures[0].details


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_factory_mid_trace(good_traces, workers):
    """A predictor bug surfaces as a per-trace failure on every trace,
    not as a crash of the harness (or an opaque pool exception)."""
    batch = run_suite(exploding_factory, good_traces, workers=workers,
                      on_error="collect")
    assert batch.results == []
    assert len(batch.failures) == len(good_traces)
    for failure, path in zip(batch.failures, good_traces):
        assert failure.trace_name == str(path)
        assert "predictor exploded mid-trace" in failure.error


def test_partial_results_are_cached(tmp_path, good_traces, bad_trace):
    """Successes of a failing suite are cached; the retry after fixing
    the bad trace only simulates what is still missing."""
    cache_dir = tmp_path / "cache"
    with pytest.raises(SuiteError):
        run_suite(bimodal_factory, [*good_traces, bad_trace],
                  cache=cache_dir)
    # Fix the broken trace and retry: the good traces are cache hits.
    write_trace(bad_trace, generate_trace(PROFILES["short_mobile"],
                                          seed=123, num_branches=1500))
    batch = run_suite(bimodal_factory, [*good_traces, bad_trace],
                      cache=cache_dir)
    assert batch.cache_hits == len(good_traces)
    assert len(batch.results) == len(good_traces) + 1


def test_on_error_validation(good_traces):
    with pytest.raises(ValueError):
        run_suite(bimodal_factory, good_traces, on_error="ignore")


def test_all_failed_suite_reports_zero_timing(bad_trace):
    # Regression: a suite where *every* trace failed used to raise
    # ValueError from TimingSummary.from_times([]) when reading
    # batch.timing, crashing `mbp suite` after the failures were
    # already collected cleanly.
    batch = run_suite(bimodal_factory, [bad_trace], on_error="collect")
    assert batch.results == []
    assert len(batch.failures) == 1
    timing = batch.timing
    assert (timing.slowest, timing.average, timing.fastest,
            timing.total) == (0.0, 0.0, 0.0, 0.0)
