"""End-to-end tests for the ``mbp`` command-line interface."""

import json

import pytest

from repro.cli import PREDICTOR_CHOICES, build_parser, main, make_predictor
from repro.sbbt.writer import write_trace


@pytest.fixture()
def trace_file(tmp_path, small_trace):
    path = tmp_path / "t.sbbt.gz"
    write_trace(path, small_trace)
    return path


class TestPredictorRegistry:
    def test_all_choices_instantiate(self):
        for name in PREDICTOR_CHOICES:
            predictor = make_predictor(name)
            assert predictor.predict(0x40_0000) in (True, False)

    def test_unknown_predictor(self):
        with pytest.raises(SystemExit):
            make_predictor("oracle")

    def test_registry_covers_table2(self):
        # The Table II set plus the vectorized-catalog additions.
        assert set(PREDICTOR_CHOICES) == {
            "bimodal", "two-level", "gshare", "tournament", "gskew",
            "local", "yags", "perceptron", "tage", "batage",
        }


class TestSimulateCommand:
    def test_json_output(self, trace_file, capsys):
        assert main(["simulate", str(trace_file),
                     "--predictor", "bimodal"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["metrics"]["mispredictions"] > 0
        assert output["metadata"]["predictor"]["name"] == "repro Bimodal"

    def test_compact_output(self, trace_file, capsys):
        main(["simulate", str(trace_file), "--compact"])
        line = capsys.readouterr().out
        assert "mpki=" in line

    def test_warmup_flag(self, trace_file, capsys):
        main(["simulate", str(trace_file), "--warmup", "1000"])
        output = json.loads(capsys.readouterr().out)
        assert output["metadata"]["warmup_instr"] == 1000

    def test_max_instructions_flag(self, trace_file, capsys):
        main(["simulate", str(trace_file), "--max-instructions", "500"])
        output = json.loads(capsys.readouterr().out)
        assert output["metadata"]["exhausted_trace"] is False

    def test_engine_vectorized(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--predictor", "gshare",
                     "--engine", "vectorized"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["metrics"]["mispredictions"] > 0

    def test_engine_vectorized_unsupported_predictor_clean_error(
            self, trace_file):
        # No traceback: the engine mismatch must surface as a one-line
        # SystemExit message naming the predictor and the way out.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(trace_file), "--predictor", "tage",
                  "--engine", "vectorized"])
        message = str(excinfo.value)
        assert "vector kernel" in message
        assert "--engine scalar" in message

    def test_engine_vectorized_unsupported_with_cache_clean_error(
            self, trace_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(trace_file), "--predictor", "batage",
                  "--engine", "vectorized",
                  "--cache-dir", str(tmp_path / "cache")])
        assert "vector kernel" in str(excinfo.value)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache"])
    @pytest.mark.parametrize("defect", ["missing", "truncated"])
    def test_unreadable_trace_clean_error(self, small_trace, tmp_path,
                                          capsys, defect, cached):
        # No traceback: a trace that cannot be read ends the command
        # with one line naming the file and the stage that failed.
        path = tmp_path / f"{defect}.sbbt.xz"
        if defect == "truncated":
            write_trace(path, small_trace)
            raw = path.read_bytes()
            path.write_bytes(raw[:len(raw) // 2])
        argv = ["simulate", str(path)]
        if cached:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert "\n" not in message
        assert str(path) in message
        assert "trace stage failed" in message
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate"], ["suite"],
        ["sweep", "--parameter", "history_length", "--values", "4"]],
        ids=["simulate", "suite", "sweep"])
    def test_cache_dir_naming_a_file_clean_error(self, trace_file, tmp_path,
                                                 capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = [command[0], str(trace_file), *command[1:],
                "--cache-dir", str(afile)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert "\n" not in message
        assert message.startswith(f"mbp {command[0]}: ")
        assert str(afile) in message
        assert "Traceback" not in capsys.readouterr().err

    def test_engine_auto_falls_back(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--predictor", "tage",
                     "--engine", "auto"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["metrics"]["mispredictions"] > 0


class TestCompareCommand:
    def test_compare(self, trace_file, capsys):
        assert main(["compare", str(trace_file), "bimodal", "gshare"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert "mpki_delta" in output["metrics"]


class TestInfoCommand:
    def test_human_output(self, trace_file, capsys):
        assert main(["info", str(trace_file)]) == 0
        assert "branches" in capsys.readouterr().out

    def test_json_output(self, trace_file, capsys):
        main(["info", str(trace_file), "--json"])
        output = json.loads(capsys.readouterr().out)
        assert output["gap_fits_12_bits"] is True


class TestGenerateCommand:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "gen.sbbt.gz"
        assert main(["generate", str(out), "--category", "short_mobile",
                     "--branches", "2000", "--seed", "3"]) == 0
        assert out.exists()
        assert "2000 branches" in capsys.readouterr().out

    def test_generated_trace_simulates(self, tmp_path, capsys):
        out = tmp_path / "gen.sbbt"
        main(["generate", str(out), "--branches", "1500"])
        capsys.readouterr()
        main(["simulate", str(out), "--compact"])
        assert "mpki=" in capsys.readouterr().out


class TestTranslateCommand:
    def test_sbbt_to_bt9_and_back(self, tmp_path, trace_file, capsys):
        bt9 = tmp_path / "t.bt9.gz"
        assert main(["translate", str(trace_file), str(bt9),
                     "--direction", "sbbt-to-bt9"]) == 0
        assert bt9.exists()
        back = tmp_path / "back.sbbt"
        assert main(["translate", str(bt9), str(back),
                     "--direction", "bt9-to-sbbt"]) == 0
        assert "branches" in capsys.readouterr().out


class TestSuiteCommand:
    def test_json_output(self, tmp_path, small_trace, server_trace, capsys):
        a, b = tmp_path / "a.sbbt", tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        assert main(["suite", str(a), str(b),
                     "--predictor", "bimodal"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [t["trace"] for t in document["traces"]] == [str(a), str(b)]
        assert document["failures"] == []
        assert document["aggregate"]["mean_mpki"] > 0

    def test_compact_output(self, trace_file, capsys):
        assert main(["suite", str(trace_file), "--compact"]) == 0
        output = capsys.readouterr().out
        assert "mpki=" in output
        assert "mean MPKI" in output

    def test_engine_workers_match_serial(self, tmp_path, small_trace,
                                         server_trace, capsys):
        a, b = tmp_path / "a.sbbt", tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        main(["suite", str(a), str(b)])
        serial = json.loads(capsys.readouterr().out)
        assert main(["suite", str(a), str(b), "--workers", "2",
                     "--engine-stats"]) == 0
        captured = capsys.readouterr()
        threaded = json.loads(captured.out)
        for doc in (serial, threaded):
            for entry in doc["traces"]:
                entry.pop("simulation_time")
            doc["aggregate"].pop("timing")
        assert threaded == serial
        stats = json.loads(captured.err.split("engine stats: ", 1)[1])
        assert stats["traces_published"] == 2
        assert stats["tasks_dispatched"] == 2

    def test_cache_hits_reported(self, tmp_path, trace_file, capsys):
        cache = tmp_path / "cache"
        main(["suite", str(trace_file), "--cache-dir", str(cache)])
        capsys.readouterr()
        main(["suite", str(trace_file), "--cache-dir", str(cache)])
        document = json.loads(capsys.readouterr().out)
        assert document["aggregate"]["cache_hits"] == 1
        assert document["traces"][0]["from_cache"] is True

    def test_missing_trace_collected(self, tmp_path, trace_file, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["suite", str(trace_file), str(missing)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert len(document["traces"]) == 1
        assert document["failures"][0]["trace"] == str(missing)

    def test_sim_engine_vectorized_matches_scalar(self, tmp_path,
                                                  small_trace, capsys):
        path = tmp_path / "a.sbbt"
        write_trace(path, small_trace)
        main(["suite", str(path), "--predictor", "gshare"])
        scalar = json.loads(capsys.readouterr().out)
        assert main(["suite", str(path), "--predictor", "gshare",
                     "--engine", "vectorized"]) == 0
        vectorized = json.loads(capsys.readouterr().out)
        for doc in (scalar, vectorized):
            for entry in doc["traces"]:
                entry.pop("simulation_time")
            doc["aggregate"].pop("timing")
        assert vectorized == scalar

    def test_sim_engine_unsupported_collected_as_failure(
            self, trace_file, capsys):
        assert main(["suite", str(trace_file), "--predictor", "tage",
                     "--engine", "vectorized"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["traces"] == []
        assert "vector kernel" in document["failures"][0]["error"]

    def test_engine_stats_requires_workers(self, trace_file):
        with pytest.raises(SystemExit):
            main(["suite", str(trace_file), "--engine-stats"])

    def test_start_method_requires_workers(self, trace_file):
        with pytest.raises(SystemExit):
            main(["suite", str(trace_file), "--start-method", "fork"])

    def test_all_traces_failed_is_not_success(self, tmp_path, capsys):
        # An all-failure suite used to be indistinguishable from an
        # empty-but-successful one; now it exits non-zero and reports
        # explicit counts.
        missing = [str(tmp_path / "a.sbbt"), str(tmp_path / "b.sbbt")]
        assert main(["suite", *missing]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["traces"] == []
        assert document["aggregate"]["num_traces"] == 2
        assert document["aggregate"]["num_failures"] == 2
        assert len(document["failures"]) == 2

    def test_all_traces_failed_compact_footer(self, tmp_path, capsys):
        missing = str(tmp_path / "gone.sbbt")
        assert main(["suite", missing, "--compact"]) == 1
        output = capsys.readouterr().out
        assert "0/1 traces ok" in output
        assert "1 failed" in output
        assert "mean MPKI n/a" in output

    def test_compact_footer_counts_successes(self, trace_file, capsys):
        assert main(["suite", str(trace_file), "--compact"]) == 0
        output = capsys.readouterr().out
        assert "1/1 traces ok" in output
        assert "0 failed" in output

    def test_json_aggregate_counts(self, tmp_path, trace_file, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["suite", str(trace_file), str(missing)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["aggregate"]["num_traces"] == 2
        assert document["aggregate"]["num_failures"] == 1

    def test_chunk_flag_values(self, tmp_path, small_trace,
                               server_trace, capsys):
        a, b = tmp_path / "a.sbbt", tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        main(["suite", str(a), str(b), "--workers", "2"])
        baseline = json.loads(capsys.readouterr().out)
        assert main(["suite", str(a), str(b), "--workers", "2",
                     "--chunk", "2"]) == 0
        chunked = json.loads(capsys.readouterr().out)
        for doc in (baseline, chunked):
            for entry in doc["traces"]:
                entry.pop("simulation_time")
            doc["aggregate"].pop("timing")
        assert chunked == baseline

    def test_chunk_auto_is_default_spelling(self, trace_file, capsys):
        assert main(["suite", str(trace_file), "--chunk", "auto"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["0", "-2", "sometimes"])
    def test_chunk_flag_rejects_bad_values(self, trace_file, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", str(trace_file), "--chunk", bad])
        assert "--chunk" in str(excinfo.value)


class TestSweepCommand:
    def test_table_output(self, trace_file, capsys):
        assert main(["sweep", str(trace_file),
                     "--parameter", "history_length",
                     "--values", "2,8",
                     "--fixed", "log_table_size=10"]) == 0
        output = capsys.readouterr().out
        assert "history_length=2" in output
        assert "best:" in output

    def test_json_range_values(self, trace_file, capsys):
        assert main(["sweep", str(trace_file),
                     "--parameter", "history_length",
                     "--values", "2:9:3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        swept = [p["parameters"]["history_length"]
                 for p in document["points"]]
        assert swept == [2, 5, 8]
        assert document["best"]["parameters"]["history_length"] in swept

    def test_workers_match_serial(self, trace_file, capsys):
        argv = ["sweep", str(trace_file), "--parameter", "history_length",
                "--values", "2,4,8", "--json"]
        main(argv)
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--workers", "2", "--engine-stats"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == serial
        stats = json.loads(captured.err.split("engine stats: ", 1)[1])
        # One trace shipped once, then reused for the other grid points.
        assert stats["traces_published"] == 1
        assert stats["tasks_dispatched"] == 3
        assert stats["trace_reuses"] >= 1

    def test_footer_reports_points_and_batch_groups(self, trace_file,
                                                    capsys):
        assert main(["sweep", str(trace_file),
                     "--parameter", "history_length",
                     "--values", "2,4,8"]) == 0
        output = capsys.readouterr().out
        assert "sweep: 3/3 points ok" in output
        assert "1 batch groups" in output
        assert "0 trace failures" in output

    def test_batch_off_matches_auto(self, trace_file, capsys):
        argv = ["sweep", str(trace_file), "--parameter", "history_length",
                "--values", "2,4,8", "--json"]
        assert main(argv) == 0
        auto = json.loads(capsys.readouterr().out)
        assert main(argv + ["--batch", "off"]) == 0
        assert json.loads(capsys.readouterr().out) == auto

    def test_scalar_engine_matches_auto(self, trace_file, capsys):
        argv = ["sweep", str(trace_file), "--parameter", "history_length",
                "--values", "2,4", "--json"]
        assert main(argv) == 0
        auto = json.loads(capsys.readouterr().out)
        assert main(argv + ["--engine", "scalar"]) == 0
        assert json.loads(capsys.readouterr().out) == auto

    def test_all_points_failed_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["sweep", str(missing),
                     "--parameter", "history_length",
                     "--values", "2,4"]) == 1
        output = capsys.readouterr().out
        assert "0/2 points ok" in output
        assert "best:" not in output

    def test_json_reports_failures_and_null_best(self, tmp_path, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["sweep", str(missing),
                     "--parameter", "history_length",
                     "--values", "2,4", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["best"] is None
        for point in document["points"]:
            assert point["mean_mpki"] is None
            assert point["num_failures"] == 1
        assert document["aggregate"]["points_failed"] == 2

    def test_bad_values_spec(self, trace_file):
        with pytest.raises(SystemExit):
            main(["sweep", str(trace_file), "--parameter", "history_length",
                  "--values", "2:8:1:1"])

    def test_bad_fixed_spec(self, trace_file):
        with pytest.raises(SystemExit):
            main(["sweep", str(trace_file), "--parameter", "history_length",
                  "--values", "2,4", "--fixed", "log_table_size"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestChampionshipCommand:
    def test_leaderboard_printed(self, trace_file, capsys):
        assert main(["championship", str(trace_file),
                     "--predictors", "bimodal", "gshare"]) == 0
        output = capsys.readouterr().out
        assert "Championship leaderboard" in output
        assert "bimodal" in output and "gshare" in output

    def test_multiple_traces(self, tmp_path, small_trace, server_trace,
                             capsys):
        a = tmp_path / "a.sbbt"
        b = tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        main(["championship", str(a), str(b),
              "--predictors", "bimodal"])
        output = capsys.readouterr().out
        assert "a.sbbt" in output and "b.sbbt" in output
