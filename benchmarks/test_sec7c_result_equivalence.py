"""Section VII-C — simulation results are identical across simulators.

"Trace-based simulators always give the same results, provided that the
user code is deterministic.  As part of the evaluation, we checked that
the simulation results of both frameworks were identical."  This bench
performs that check for every Table II predictor across all three
engines in the repository and prints the verification matrix.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.baselines.champsim import run_champsim
from repro.baselines.cbp5 import Cbp5Framework, FromMbpPredictor
from repro.core.simulator import simulate
from repro.core.vectorized import simulate_vectorized
from repro.predictors import TABLE2_PREDICTORS

from conftest import emit_report


@pytest.fixture(scope="module")
def equivalence_rows(cbp5_suite, cbp5_sbbt_paths, cbp5_bt9_gz_paths,
                     dpc3_suite, dpc3_instruction_traces):
    name = next(iter(cbp5_suite))
    branch_trace = cbp5_suite[name]
    dpc3_name = next(iter(dpc3_suite))
    rows = []
    for label, factory in TABLE2_PREDICTORS.items():
        reference = simulate(factory(), branch_trace)
        framework = Cbp5Framework(cbp5_bt9_gz_paths[name]).run(
            FromMbpPredictor(factory()))
        checks = {
            "cbp5": framework.mispredictions == reference.mispredictions,
        }
        if label in ("GShare", "Bimodal"):
            champsim = run_champsim(
                factory(), dpc3_instruction_traces[dpc3_name])
            branch_only = simulate(factory(), dpc3_suite[dpc3_name])
            checks["champsim"] = (
                champsim.stats.direction_mispredictions
                == branch_only.mispredictions)
        if factory().vector_kernel() is not None:
            checks["vectorized"] = (
                simulate_vectorized(factory(), branch_trace).mispredictions
                == reference.mispredictions)
        rows.append((label, reference.mispredictions, checks))
    return rows


def test_sec7c_report(equivalence_rows, report_only):
    body = []
    for label, mispredictions, checks in equivalence_rows:
        body.append([
            label, str(mispredictions),
            "identical" if checks.get("cbp5") else "DIVERGED",
            {True: "identical", False: "DIVERGED",
             None: "-"}[checks.get("champsim")],
            {True: "identical", False: "DIVERGED",
             None: "-"}[checks.get("vectorized")],
        ])
    emit_report("sec7c_result_equivalence", format_table(
        headers=["Predictor", "Mispredictions", "CBP5 framework",
                 "ChampSim-style", "Vectorized engine"],
        rows=body,
        title=("Section VII-C - result equivalence across simulators "
               "(same predictor, same branch stream)"),
    ))


def test_sec7c_all_identical(equivalence_rows, report_only):
    for label, _, checks in equivalence_rows:
        assert all(checks.values()), f"{label}: {checks}"
