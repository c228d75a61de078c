"""Cross-subsystem integration tests: the paper's qualitative claims.

These tests pin the *shape* of the evaluation results:

* Section VII-C — all three simulators produce identical mispredictions
  for the same predictor and branch stream.
* Table II quality ordering — better predictors get lower MPKI on
  program-like workloads.
* Listing 1 — the full pipeline produces the documented JSON schema.
"""

import json

import pytest

from repro.baselines.champsim import (
    instruction_trace_from_branches,
    run_champsim,
)
from repro.baselines.cbp5 import Cbp5Framework, FromMbpPredictor, write_bt9
from repro.core.simulator import SimulationConfig, simulate
from repro.core.vectorized import simulate_vectorized
from repro.predictors import (
    TABLE2_PREDICTORS,
    AlwaysTaken,
    Bimodal,
    GShare,
    Tage,
    mcfarling_tournament,
)
from repro.traces import generate_workload
from tests.conftest import assert_kernel_matches_scalar


@pytest.fixture(scope="module")
def workload():
    return generate_workload("spec17_like", seed=42, num_branches=25000)


class TestResultEquivalence:
    """Paper Section VII-C, across every engine in the repository."""

    @pytest.mark.parametrize("name", ["Bimodal", "GShare", "TAGE"])
    def test_cbp5_framework_identical(self, tmp_path, workload, name):
        factory = TABLE2_PREDICTORS[name]
        bt9 = tmp_path / "t.bt9.gz"
        write_bt9(bt9, workload)
        framework = Cbp5Framework(bt9).run(FromMbpPredictor(factory()))
        library = simulate(factory(), workload)
        assert framework.mispredictions == library.mispredictions

    @pytest.mark.parametrize("name", ["Bimodal", "GShare"])
    def test_champsim_identical(self, workload, name):
        factory = TABLE2_PREDICTORS[name]
        instruction_trace = instruction_trace_from_branches(workload)
        cycle = run_champsim(factory(), instruction_trace)
        library = simulate(factory(), workload)
        assert (cycle.stats.direction_mispredictions
                == library.mispredictions)
        assert (cycle.stats.conditional_branches
                == library.num_conditional_branches)

    def test_vectorized_identical(self, workload):
        vectorizable = [name for name, factory in TABLE2_PREDICTORS.items()
                        if factory().vector_kernel() is not None]
        assert {"Bimodal", "GShare"} <= set(vectorizable)
        for name in vectorizable:
            factory = TABLE2_PREDICTORS[name]
            assert_kernel_matches_scalar(factory, workload)
            assert (simulate_vectorized(factory(), workload).mispredictions
                    == simulate(factory(), workload).mispredictions), name

    def test_repeated_runs_identical(self, workload):
        # "Trace-based simulators always give the same results."
        runs = [simulate(TABLE2_PREDICTORS["BATAGE"](), workload)
                for _ in range(2)]
        assert runs[0].mispredictions == runs[1].mispredictions


class TestQualityOrdering:
    """Predictor generations must rank correctly on program workloads."""

    @pytest.fixture(scope="class")
    def mpki(self):
        # Championship methodology: the metric is the *mean* MPKI over a
        # suite of traces, not a single trace (individual workloads can
        # legitimately favour bimodal over gshare).
        import statistics

        traces = [
            generate_workload(category, seed=seed, num_branches=25000)
            for category in ("spec17_like", "short_mobile", "short_server")
            for seed in (42, 99)
        ]
        config = SimulationConfig(collect_most_failed=False)
        return {
            name: statistics.fmean(
                simulate(factory(), trace, config).mpki for trace in traces)
            for name, factory in [
                ("static", AlwaysTaken),
                ("bimodal", Bimodal),
                ("gshare", GShare),
                ("tournament", mcfarling_tournament),
                ("tage", Tage),
            ]
        }

    def test_bimodal_beats_static(self, mpki):
        assert mpki["bimodal"] < mpki["static"]

    def test_gshare_beats_bimodal(self, mpki):
        assert mpki["gshare"] < mpki["bimodal"]

    def test_tournament_beats_bimodal(self, mpki):
        assert mpki["tournament"] < mpki["bimodal"]

    def test_tage_beats_gshare(self, mpki):
        assert mpki["tage"] < mpki["gshare"]

    def test_all_predictors_do_something(self, mpki):
        assert all(value < 1000.0 for value in mpki.values())


class TestTable2CollectionRuns:
    """Every Table II predictor must survive a full workload run."""

    @pytest.mark.parametrize("name", sorted(TABLE2_PREDICTORS))
    def test_runs_and_reports(self, workload, name):
        result = simulate(TABLE2_PREDICTORS[name](), workload,
                          SimulationConfig(collect_most_failed=False))
        assert result.num_conditional_branches > 0
        assert 0.0 <= result.accuracy <= 1.0
        # Program-like workloads should be predictable to some degree.
        assert result.accuracy > 0.6
        json.dumps(result.to_json())


class TestListing1EndToEnd:
    def test_full_schema_from_real_run(self, tmp_path, workload):
        from repro.sbbt.writer import write_trace

        path = tmp_path / "SHORT_SERVER-1.sbbt.xz"
        write_trace(path, workload)
        result = simulate(
            GShare(history_length=25, log_table_size=18), path,
            SimulationConfig(warmup_instructions=0))
        output = result.to_json()
        metadata = output["metadata"]
        assert metadata["trace"].endswith("SHORT_SERVER-1.sbbt.xz")
        assert metadata["predictor"]["history_length"] == 25
        assert metadata["predictor"]["log_table_size"] == 18
        assert metadata["exhausted_trace"] is True
        assert output["metrics"]["num_most_failed_branches"] == len(
            output["most_failed"])
        # most_failed entries carry the documented fields.
        entry = output["most_failed"][0]
        assert set(entry) >= {"ip", "occurrences", "mpki", "accuracy"}
        # Entries are sorted by contribution.
        failures = [e["mispredictions"] for e in output["most_failed"]]
        assert failures == sorted(failures, reverse=True)
