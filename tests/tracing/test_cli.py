"""The CLI surface of tracing: --trace-dir, MBP_TRACE_DIR, mbp trace."""

import json

import pytest

from repro.cli import main
from repro.sbbt.writer import write_trace
from repro.tracing import read_spans
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


@pytest.fixture()
def trace_file(tmp_path, small_trace):
    path = tmp_path / "t.sbbt.gz"
    write_trace(path, small_trace)
    return path


@pytest.fixture()
def trace_pair(tmp_path):
    paths = []
    for i in range(2):
        trace = generate_trace(PROFILES["short_mobile"], seed=820 + i,
                               num_branches=1500)
        path = tmp_path / f"pair-{i}.sbbt"
        write_trace(path, trace)
        paths.append(str(path))
    return paths


def _span_names(directory):
    return {s.name for s in read_spans([directory])}


class TestTraceDirFlag:
    def test_simulate_writes_span_log(self, trace_file, tmp_path,
                                      capsys):
        spans_dir = tmp_path / "spans"
        assert main(["simulate", str(trace_file),
                     "--trace-dir", str(spans_dir)]) == 0
        err = capsys.readouterr().err
        assert "tracing as" in err
        (log,) = spans_dir.glob("trace-*.jsonl")
        spans = read_spans([log])
        assert {s.name for s in spans} == {
            "mbp_simulate", "execute_plan", "simulate", "unit",
            "trace_read", "simulate_loop", "finalize"}
        # The run is a one-unit plan under the command's root span, and
        # the simulator's phases nest under its unit span.
        by_name = {s.name: s for s in spans}
        assert (by_name["execute_plan"].parent_id
                == by_name["mbp_simulate"].span_id)
        for phase in ("trace_read", "simulate_loop", "finalize"):
            assert by_name[phase].parent_id == by_name["unit"].span_id
        # The announced trace id matches the log file name.
        trace_id = log.stem.removeprefix("trace-")
        assert trace_id in err
        assert {s.trace_id for s in spans} == {trace_id}

    def test_simulate_with_cache_traces_lookup(self, trace_file, tmp_path,
                                               capsys):
        cache = tmp_path / "cache"
        argv = ["simulate", str(trace_file), "--cache-dir", str(cache)]
        assert main([*argv, "--trace-dir", str(tmp_path / "miss")]) == 0
        assert main([*argv, "--trace-dir", str(tmp_path / "hit")]) == 0
        for run, names, hits in [
                ("miss", {"simulate", "unit", "trace_read",
                          "simulate_loop", "finalize"}, 0),
                ("hit", set(), 1)]:
            spans = read_spans([tmp_path / run])
            by_name = {s.name: s for s in spans}
            assert set(by_name) == {"mbp_simulate", "execute_plan",
                                    "cache_lookup", *names}
            assert (by_name["cache_lookup"].parent_id
                    == by_name["execute_plan"].span_id)
            assert by_name["cache_lookup"].attributes == {
                "cache_hit": hits, "cache_miss": 1 - hits}

    def test_suite_span_tree(self, trace_pair, tmp_path, capsys):
        spans_dir = tmp_path / "spans"
        assert main(["suite", *trace_pair, "--compact",
                     "--trace-dir", str(spans_dir)]) == 0
        names = _span_names(spans_dir)
        assert {"mbp_suite", "execute_plan", "simulate",
                "unit"} <= names

    def test_sweep_span_tree(self, trace_pair, tmp_path, capsys):
        spans_dir = tmp_path / "spans"
        assert main(["sweep", *trace_pair, "--parameter",
                     "history_length", "--values", "4,8",
                     "--trace-dir", str(spans_dir)]) == 0
        names = _span_names(spans_dir)
        # Sweeps batch by default: the same-trace grid points run as
        # one ``batch_group`` span per trace instead of per-unit spans.
        assert {"mbp_sweep", "execute_plan", "simulate",
                "batch_group"} <= names

    def test_sweep_batch_off_keeps_unit_spans(self, trace_pair,
                                              tmp_path, capsys):
        spans_dir = tmp_path / "spans"
        assert main(["sweep", *trace_pair, "--parameter",
                     "history_length", "--values", "4,8",
                     "--batch", "off",
                     "--trace-dir", str(spans_dir)]) == 0
        names = _span_names(spans_dir)
        assert {"mbp_sweep", "execute_plan", "unit"} <= names
        assert "batch_group" not in names

    def test_env_var_enables_tracing(self, trace_file, tmp_path,
                                     monkeypatch, capsys):
        spans_dir = tmp_path / "spans"
        monkeypatch.setenv("MBP_TRACE_DIR", str(spans_dir))
        assert main(["simulate", str(trace_file), "--compact"]) == 0
        assert list(spans_dir.glob("trace-*.jsonl"))

    def test_off_by_default(self, trace_file, tmp_path, monkeypatch,
                            capsys):
        monkeypatch.delenv("MBP_TRACE_DIR", raising=False)
        assert main(["simulate", str(trace_file), "--compact"]) == 0
        assert "tracing as" not in capsys.readouterr().err

    def test_all_cache_hit_run_still_traces(self, trace_file, tmp_path,
                                            capsys):
        cache = tmp_path / "cache"
        spans_dir = tmp_path / "spans"
        assert main(["suite", str(trace_file), "--compact",
                     "--cache-dir", str(cache)]) == 0
        assert main(["suite", str(trace_file), "--compact",
                     "--cache-dir", str(cache),
                     "--trace-dir", str(spans_dir)]) == 0
        spans = read_spans([spans_dir])
        by_name = {s.name: s for s in spans}
        assert by_name["cache_lookup"].attributes["cache_hit"] == 1
        assert "unit" not in by_name


class TestTraceSubcommand:
    def _traced_run(self, trace_pair, spans_dir):
        assert main(["suite", *trace_pair, "--compact",
                     "--trace-dir", str(spans_dir)]) == 0

    def test_summary(self, trace_pair, tmp_path, capsys):
        spans_dir = tmp_path / "spans"
        self._traced_run(trace_pair, spans_dir)
        assert main(["trace", "summary", str(spans_dir)]) == 0
        out = capsys.readouterr().out
        assert "Span summary" in out
        assert "execute_plan" in out
        assert "critical path" in out

    def test_export_to_stdout(self, trace_pair, tmp_path, capsys):
        spans_dir = tmp_path / "spans"
        self._traced_run(trace_pair, spans_dir)
        capsys.readouterr()
        assert main(["trace", "export", str(spans_dir)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid",
                    "tid"} <= set(event)

    def test_export_to_file(self, trace_pair, tmp_path, capsys):
        spans_dir = tmp_path / "spans"
        self._traced_run(trace_pair, spans_dir)
        out_path = tmp_path / "chrome.json"
        assert main(["trace", "export", str(spans_dir),
                     "--output", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["traceEvents"]

    def test_trace_id_filter(self, trace_pair, tmp_path, capsys):
        spans_dir = tmp_path / "spans"
        self._traced_run(trace_pair, spans_dir)
        self._traced_run(trace_pair, spans_dir)
        logs = sorted(spans_dir.glob("trace-*.jsonl"))
        assert len(logs) == 2
        wanted = logs[0].stem.removeprefix("trace-")
        capsys.readouterr()
        assert main(["trace", "export", str(spans_dir),
                     "--trace-id", wanted]) == 0
        document = json.loads(capsys.readouterr().out)
        ids = {e["args"]["trace_id"]
               for e in document["traceEvents"] if e["ph"] == "X"}
        assert ids == {wanted}

    def test_default_paths_from_env(self, trace_pair, tmp_path,
                                    monkeypatch, capsys):
        spans_dir = tmp_path / "spans"
        self._traced_run(trace_pair, spans_dir)
        monkeypatch.setenv("MBP_TRACE_DIR", str(spans_dir))
        assert main(["trace", "summary"]) == 0
        assert "Span summary" in capsys.readouterr().out

    def test_no_paths_and_no_env_is_an_error(self, monkeypatch):
        monkeypatch.delenv("MBP_TRACE_DIR", raising=False)
        with pytest.raises(SystemExit, match="no span logs"):
            main(["trace", "summary"])

    def test_no_spans_found_is_an_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no spans found"):
            main(["trace", "summary", str(empty)])

    def test_output_requires_export(self, tmp_path):
        with pytest.raises(SystemExit, match="--output requires"):
            main(["trace", "summary", str(tmp_path),
                  "--output", "x.json"])


class TestWorkersDefault:
    def test_engine_stats_still_requires_explicit_workers(
            self, trace_file):
        # default_workers caps at the unit count, so a single-trace
        # suite resolves to serial and --engine-stats must reject.
        with pytest.raises(SystemExit, match="--engine-stats requires"):
            main(["suite", str(trace_file), "--engine-stats"])

    def test_workers_one_forces_serial(self, trace_pair, capsys):
        assert main(["suite", *trace_pair, "--workers", "1",
                     "--compact"]) == 0
        assert "traces ok" in capsys.readouterr().out
