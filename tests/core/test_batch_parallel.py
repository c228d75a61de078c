"""Parallel batch execution (multiprocessing workers)."""

import json
from multiprocessing import shared_memory

import pytest

from repro.core import engine as engine_module
from repro.core.batch import run_suite
from repro.core.plan import WorkPlan, execute_plan
from repro.predictors import Bimodal
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


def bimodal_factory():
    """Module-level factory: picklable for worker processes."""
    return Bimodal(log_table_size=10)


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    from repro.sbbt.writer import write_trace

    directory = tmp_path_factory.mktemp("parallel")
    paths = []
    for i in range(4):
        trace = generate_trace(PROFILES["short_mobile"], seed=70 + i,
                               num_branches=3000)
        path = directory / f"t{i}.sbbt"
        write_trace(path, trace)
        paths.append(path)
    return paths


def _comparable(outcomes):
    """Result JSON minus the wall-clock-only field, as text."""
    documents = []
    for result in outcomes:
        document = result.to_json()
        document["metrics"].pop("simulation_time")
        documents.append(json.dumps(document, sort_keys=True))
    return documents


def _segment_alive(name):
    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


class TestParallelSuite:
    def test_parallel_matches_serial(self, trace_files, monkeypatch):
        # workers > 1 without an engine runs on a private engine that
        # must be closed, with every published segment unlinked, by the
        # time the call returns.
        opened, segments = [], []

        class RecordingEngine(engine_module.ExecutionEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

            def publish(self, trace):
                ref = super().publish(trace)
                segments.append(ref.segment)
                return ref

        monkeypatch.setattr(engine_module, "ExecutionEngine",
                            RecordingEngine)
        serial = run_suite(bimodal_factory, trace_files, workers=1)
        parallel = run_suite(bimodal_factory, trace_files, workers=2)
        assert (_comparable(parallel.results)
                == _comparable(serial.results))

        plan = WorkPlan.for_suite(bimodal_factory, trace_files)
        assert (_comparable(execute_plan(plan, workers=2))
                == _comparable(execute_plan(plan)))

        assert len(opened) == 2
        assert all(engine.closed for engine in opened)
        assert segments
        assert not any(_segment_alive(name) for name in set(segments))

    def test_parallel_preserves_order_and_names(self, trace_files):
        names = [f"trace-{i}" for i in range(len(trace_files))]
        batch = run_suite(bimodal_factory, trace_files, workers=2,
                          names=names)
        assert [r.trace_name for r in batch.results] == names

    def test_single_trace_runs_inline(self, trace_files):
        batch = run_suite(bimodal_factory, trace_files[:1], workers=4)
        assert len(batch.results) == 1
