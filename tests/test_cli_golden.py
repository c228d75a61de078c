"""Golden-file tests for the ``mbp`` CLI.

Each test runs a CLI command over a deterministic generated trace and
compares the output, after normalization, against a committed golden file
in ``tests/golden/``.  Normalization replaces the run-specific parts —
temp-directory paths, wall-clock times, on-disk byte counts — with stable
placeholders, so everything else (metric values, JSON shape, key order,
formatting) is pinned exactly.

Regenerating the goldens after an intentional output change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py

then review the diff of ``tests/golden/`` like any other code change.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: Fixed generation parameters: the goldens pin this exact trace.
TRACE_ARGS = ["--category", "short_server", "--branches", "4000",
              "--seed", "2023"]


def normalize(text: str, tmp: Path) -> str:
    """Replace run-specific output fragments with stable placeholders."""
    text = text.replace(str(tmp), "<TMP>")
    # JSON wall-clock fields: "simulation_time": 0.123...
    text = re.sub(r'("simulation_time": )[0-9.e+-]+', r"\1<TIME>", text)
    # Compact-summary wall clock: (..., 0.123s)
    text = re.sub(r"\d+\.\d{3}s\)", "<TIME>)", text)
    # Cache entry sizes include the stored float times, so they drift.
    text = re.sub(r'("total_bytes": )\d+', r"\1<SIZE>", text)
    return text


def check_golden(name: str, output: str, tmp: Path) -> None:
    normalized = normalize(output, tmp)
    golden_path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(normalized)
        pytest.skip(f"regenerated {golden_path.name}")
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; run with REPRO_REGEN_GOLDEN=1 "
        "to create it"
    )
    assert normalized == golden_path.read_text(), (
        f"output differs from {golden_path.name}; if the change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and review"
    )


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-trace")
    path = directory / "golden.sbbt"
    assert main(["generate", str(path), *TRACE_ARGS]) == 0
    return path


def run(argv: list[str], capsys) -> str:
    capsys.readouterr()  # drop anything buffered by fixtures
    assert main(argv) == 0
    return capsys.readouterr().out


class TestSimulateGolden:
    def test_simulate_json(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "gshare"],
                  capsys)
        check_golden("simulate_gshare.json", out, trace_file.parent)

    def test_simulate_compact(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "bimodal",
                   "--compact"], capsys)
        check_golden("simulate_bimodal_compact.txt", out, trace_file.parent)

    def test_simulate_with_warmup(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "bimodal",
                   "--warmup", "5000"], capsys)
        check_golden("simulate_bimodal_warmup.json", out, trace_file.parent)

    def test_simulate_tage(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "tage"],
                  capsys)
        check_golden("simulate_tage.json", out, trace_file.parent)

    def test_simulate_batage(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "batage"],
                  capsys)
        check_golden("simulate_batage.json", out, trace_file.parent)

    def test_simulate_perceptron(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "perceptron"],
                  capsys)
        check_golden("simulate_perceptron.json", out, trace_file.parent)


class TestEngineGolden:
    """``--engine vectorized`` / ``--engine auto`` pin the bit-exactness
    claim at the CLI boundary: their normalized JSON must match a golden
    file *and* the scalar engine's output for the same run."""

    def test_simulate_vectorized(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "gshare",
                   "--engine", "vectorized"], capsys)
        check_golden("simulate_gshare_vectorized.json", out,
                     trace_file.parent)
        scalar = run(["simulate", str(trace_file), "--predictor", "gshare"],
                     capsys)
        assert (normalize(out, trace_file.parent)
                == normalize(scalar, trace_file.parent))

    def test_simulate_auto(self, trace_file, capsys):
        out = run(["simulate", str(trace_file), "--predictor", "tournament",
                   "--engine", "auto"], capsys)
        check_golden("simulate_tournament_auto.json", out,
                     trace_file.parent)
        scalar = run(["simulate", str(trace_file),
                      "--predictor", "tournament"], capsys)
        assert (normalize(out, trace_file.parent)
                == normalize(scalar, trace_file.parent))

    def test_simulate_auto_scalar_fallback(self, trace_file, capsys):
        # The perceptron runs auto through its hybrid kernel; the output
        # still matches the scalar engine's.
        out = run(["simulate", str(trace_file), "--predictor", "perceptron",
                   "--engine", "auto"], capsys)
        scalar = run(["simulate", str(trace_file),
                      "--predictor", "perceptron"], capsys)
        assert (normalize(out, trace_file.parent)
                == normalize(scalar, trace_file.parent))

    def test_simulate_auto_falls_back_without_kernel(self, trace_file):
        # O-GEHL has no vector kernel: auto silently runs the scalar loop.
        from repro.core.simulator import simulate
        from repro.predictors import OGehl

        assert OGehl().vector_kernel() is None
        auto = simulate(OGehl(), trace_file, engine="auto")
        scalar = simulate(OGehl(), trace_file)
        assert (normalize(auto.to_json_string(), trace_file.parent)
                == normalize(scalar.to_json_string(), trace_file.parent))


class TestInfoGolden:
    def test_info_json(self, trace_file, capsys):
        out = run(["info", str(trace_file), "--json"], capsys)
        check_golden("info.json", out, trace_file.parent)

    def test_info_human(self, trace_file, capsys):
        out = run(["info", str(trace_file)], capsys)
        check_golden("info_human.txt", out, trace_file.parent)


def _fixture_telemetry(path: Path, probe: dict | None = None) -> Path:
    """A fully deterministic telemetry document (all times fixed).

    ``mbp report`` output over this file is byte-exact, so the goldens
    pin table layout, duration formatting and section ordering without
    any normalization of the numbers themselves.
    """
    from repro.core.output import SimulationResult
    from repro.telemetry import (
        IntervalRecorder, build_manifest, write_telemetry,
    )

    result = SimulationResult(
        trace_name="golden-trace", warmup_instructions=1000,
        simulation_instructions=9000, exhausted_trace=True,
        num_branch_instructions=1800, num_conditional_branches=1500,
        mispredictions=120, simulation_time=0.25,
        predictor_metadata={"name": "GShare", "history_length": 8,
                            "log_table_size": 10})
    recorder = IntervalRecorder(interval=4000)
    recorder.start(1000)
    recorder.record(4000, 600, 50)
    recorder.record(8000, 1200, 95)
    series = recorder.finish(10000, 1500, 120)
    manifest = build_manifest(
        result,
        phases={"trace_read": 0.0125, "simulate_loop": 0.25,
                "finalize": 0.0005},
        counters={"cache_miss": 1},
        environment={"python": "3.12.0", "implementation": "CPython",
                     "platform": "linux"},
        created="2026-08-06T00:00:00+00:00")
    return write_telemetry(
        path, manifest=manifest,
        phases={"trace_read": 0.0125, "simulate_loop": 0.25,
                "finalize": 0.0005},
        counters={"cache_miss": 1}, intervals=series, probe=probe)


def _fixture_probe_report() -> dict:
    """A small deterministic probe report for the report goldens."""
    from repro.probe import PredictionProbe

    probe = PredictionProbe(top_branches=3)
    for scope, component, outcomes in [
        ("", "predictor_0", [True, True, False]),
        ("", "predictor_1", [True, False]),
        ("predictor_0", "table", [True, True, False]),
        ("predictor_1", "table", [True, False]),
    ]:
        for correct in outcomes:
            probe.record(0x400, component, correct, scope=scope)
    probe.record(0x404, "predictor_0", True,
                 overrode="predictor_1")
    probe.record(0x404, "table", True, scope="predictor_0")
    probe.record_branch_bulk(0x400, 4, 2, 2, component="predictor_0")
    probe.record_branch_bulk(0x404, 2, 2, 0, component="predictor_0")
    probe.set_structure({
        "predictor_0": {"table": {"entries": 1024, "live_fraction": 0.5,
                                  "saturated_fraction": 0.25,
                                  "entropy_bits": 1.5}},
        "predictor_1": {"table": {"entries": 1024, "live_fraction": 0.75,
                                  "saturated_fraction": 0.125,
                                  "entropy_bits": 1.25}},
    })
    return probe.report()


class TestReportGolden:
    def test_report_tables(self, tmp_path, capsys):
        path = _fixture_telemetry(tmp_path / "telemetry.json")
        out = run(["report", str(path)], capsys)
        check_golden("report_tables.txt", out, tmp_path)

    def test_report_limit(self, tmp_path, capsys):
        path = _fixture_telemetry(tmp_path / "telemetry.json")
        out = run(["report", str(path), "--limit", "1"], capsys)
        check_golden("report_limit.txt", out, tmp_path)

    def test_report_json(self, tmp_path, capsys):
        path = _fixture_telemetry(tmp_path / "telemetry.json")
        out = run(["report", str(path), "--json"], capsys)
        check_golden("report_json.json", out, tmp_path)

    def test_report_csv(self, tmp_path, capsys):
        path = _fixture_telemetry(tmp_path / "telemetry.json",
                                  probe=_fixture_probe_report())
        out = run(["report", str(path), "--format", "csv"], capsys)
        check_golden("report_csv.txt", out, tmp_path)

    def test_report_csv_and_text_agree_on_sections(self, tmp_path, capsys):
        # Every table the text renderer prints must have a CSV section.
        path = _fixture_telemetry(tmp_path / "telemetry.json",
                                  probe=_fixture_probe_report())
        text = run(["report", str(path)], capsys)
        csv_out = run(["report", str(path), "--format", "csv"], capsys)
        for title, section in [("Run manifests", "manifest"),
                               ("Phase timings", "phases"),
                               ("Interval telemetry", "intervals"),
                               ("Component attribution", "attribution"),
                               ("Top offenders", "top_offenders"),
                               ("Predictor structure", "structure")]:
            assert title in text
            assert f"# section: {section}" in csv_out

    def test_report_probe_tables(self, tmp_path, capsys):
        path = _fixture_telemetry(tmp_path / "telemetry.json",
                                  probe=_fixture_probe_report())
        out = run(["report", str(path)], capsys)
        check_golden("report_probe.txt", out, tmp_path)

    def test_simulate_telemetry_then_report(self, trace_file, tmp_path,
                                            capsys):
        """The live pipeline: not golden (times vary), but shape-checked."""
        telemetry = tmp_path / "run.json"
        run(["simulate", str(trace_file), "--predictor", "gshare",
             "--telemetry", str(telemetry), "--interval", "5000"], capsys)
        out = run(["report", str(telemetry)], capsys)
        assert "Run manifests" in out
        assert "Phase timings" in out
        assert "Interval telemetry (interval=5000" in out
        assert "simulate_loop" in out

    #: A fresh run's phases: the plan funnel's and the simulator's.
    RUN = {"execute_plan", "simulate", "trace_read", "simulate_loop",
           "finalize"}

    @pytest.mark.parametrize("extra, runs, phases, counters", [
        ([], 1, RUN, None),
        (["--cache-dir", "{tmp}"], 1, {"cache_lookup", *RUN},
         {"cache_miss": 1}),
        (["--cache-dir", "{tmp}"], 2, {"execute_plan", "cache_lookup"},
         {"cache_hit": 1}),
        (["--engine", "auto"], 1, RUN, None),
    ], ids=["no-cache", "cache-miss", "cache-hit", "engine-auto"])
    def test_simulate_telemetry_document_phases(self, trace_file, tmp_path,
                                                capsys, extra, runs,
                                                phases, counters):
        """Pins which phases and counters ``--telemetry`` records; the
        last of ``runs`` identical invocations is the one read back."""
        import json as json_module

        telemetry = tmp_path / "run.json"
        argv = ["simulate", str(trace_file), "--predictor", "gshare",
                "--telemetry", str(telemetry),
                *(arg.format(tmp=tmp_path / "cache") for arg in extra)]
        for _ in range(runs):
            run(argv, capsys)
        document = json_module.loads(telemetry.read_text())
        assert set(document["phases"]) == phases
        assert document["counters"] == counters
        assert set(document["manifest"]["timing"]["phases"]) == phases
        assert document["manifest"]["timing"].get("counters") == counters

    def test_simulate_probe_telemetry_then_report(self, trace_file,
                                                  tmp_path, capsys):
        """``--probe`` threads a live report into the document."""
        import json as json_module

        telemetry = tmp_path / "run.json"
        run(["simulate", str(trace_file), "--predictor", "tournament",
             "--telemetry", str(telemetry), "--probe"], capsys)
        document = json_module.loads(telemetry.read_text())
        assert document["probe"]["schema"] == 1
        assert document["manifest"]["probe"] == document["probe"]
        out = run(["report", str(telemetry)], capsys)
        assert "Component attribution" in out
        assert "Top offenders" in out

    def test_probe_requires_telemetry(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", str(trace_file), "--probe"])


class TestExplainGolden:
    def test_explain_tournament(self, trace_file, capsys):
        out = run(["explain", str(trace_file), "--predictor", "tournament",
                   "--top", "5"], capsys)
        check_golden("explain_tournament.txt", out, trace_file.parent)

    def test_explain_json(self, trace_file, capsys):
        out = run(["explain", str(trace_file), "--predictor", "bimodal",
                   "--top", "3", "--json"], capsys)
        check_golden("explain_bimodal.json", out, trace_file.parent)

    def test_explain_warmup(self, trace_file, capsys):
        out = run(["explain", str(trace_file), "--predictor", "gshare",
                   "--warmup", "5000", "--top", "3"], capsys)
        check_golden("explain_gshare_warmup.txt", out, trace_file.parent)

    def test_explain_tage(self, trace_file, capsys):
        # Pins the probe attribution path inside Tage.train.
        out = run(["explain", str(trace_file), "--predictor", "tage",
                   "--top", "5"], capsys)
        check_golden("explain_tage.txt", out, trace_file.parent)

    def test_explain_perceptron(self, trace_file, capsys):
        # Pins the probe attribution path inside HashedPerceptron.train.
        out = run(["explain", str(trace_file), "--predictor", "perceptron",
                   "--top", "5"], capsys)
        check_golden("explain_perceptron.txt", out, trace_file.parent)


class TestCacheGolden:
    def test_cache_stats_after_cached_simulate(self, trace_file, capsys,
                                               tmp_path):
        cache_dir = tmp_path / "cache"
        # Two identical runs: the second must be a hit, and the cached
        # JSON must equal the fresh one after time normalization.
        first = run(["simulate", str(trace_file), "--predictor", "gshare",
                     "--cache-dir", str(cache_dir)], capsys)
        second = run(["simulate", str(trace_file), "--predictor", "gshare",
                      "--cache-dir", str(cache_dir)], capsys)
        assert (normalize(first, trace_file.parent)
                == normalize(second, trace_file.parent))
        out = run(["cache", "stats", "--cache-dir", str(cache_dir)], capsys)
        check_golden("cache_stats.json", out, tmp_path)

    def test_cache_verify_and_clear(self, trace_file, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        run(["simulate", str(trace_file), "--predictor", "bimodal",
             "--cache-dir", str(cache_dir)], capsys)
        out = run(["cache", "verify", "--cache-dir", str(cache_dir)], capsys)
        assert out == "1 valid, 0 invalid\n"
        out = run(["cache", "clear", "--cache-dir", str(cache_dir)], capsys)
        assert out == f"removed 1 cache entries from {cache_dir}\n"

    def test_cache_verify_reports_corruption(self, trace_file, capsys,
                                             tmp_path):
        cache_dir = tmp_path / "cache"
        run(["simulate", str(trace_file), "--predictor", "bimodal",
             "--cache-dir", str(cache_dir)], capsys)
        entry = next(cache_dir.glob("*.json"))
        entry.write_bytes(b"garbage")
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "0 valid, 1 invalid" in out
        assert "not valid JSON" in out
