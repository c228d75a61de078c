"""Vectorized-catalog benchmark — scalar loop vs ``engine="vectorized"``.

One row per table-indexed predictor in the catalog, each run through the
standard scalar simulator and through ``simulate(engine="vectorized")``
over the same trace, with bit-exactness asserted on every pair.  The
``bench_metrics`` fixture lands per-predictor throughput (instructions
per second, both engines) and the speedup in
``benchmarks/results/BENCH_vectorized_catalog.json``; CI uploads that
artifact and gates on the fully-scanned predictors staying >= 5x.

The five predictors whose whole update loop is a segmented clamped-walk
scan (bimodal, gshare, two-level, local, tournament) get the full numpy
speedup; 2bc-gskew, YAGS and the hashed perceptron vectorize
history/index derivation but keep an exact scalar update loop (their
inter-table control flow and the perceptron's weight sum are not prefix
scans), so they are measured but not gated.  Each row is timed by the
alternated-pair protocol (``conftest.time_pair``): one untimed warm-up
call per side, then ``REPEATS`` alternated pairs, read as the median.
"""

import pytest

from repro.analysis.reporting import format_duration, format_table
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import (
    Bimodal,
    GShare,
    HashedPerceptron,
    LocalPredictor,
    TwoBcGskew,
    Yags,
    mcfarling_tournament,
)
from repro.predictors.twolevel import GAs
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES

from conftest import emit_report, time_pair

NUM_BRANCHES = 150_000

#: name -> predictor factory; every entry must expose a vector kernel.
CATALOG = {
    "bimodal": lambda: Bimodal(),
    "gshare": lambda: GShare(),
    "two-level": lambda: GAs(),
    "local": lambda: LocalPredictor(),
    "tournament": lambda: mcfarling_tournament(),
    "gskew": lambda: TwoBcGskew(),
    "yags": lambda: Yags(),
    "perceptron": lambda: HashedPerceptron(),
}

#: Predictors whose entire update loop runs as a clamped-walk scan;
#: these carry the >= 5x CI perf gate.
FULLY_SCANNED = ("bimodal", "gshare", "two-level", "local", "tournament")

GATE_SPEEDUP = 5.0

#: Timed pairs per row; the gate reads the medians.
REPEATS = 5


@pytest.fixture(scope="module")
def big_trace():
    return generate_trace(PROFILES["spec17_like"], seed=47,
                          num_branches=NUM_BRANCHES)


@pytest.fixture(scope="module")
def measurements(big_trace):
    config = SimulationConfig(collect_most_failed=False)
    rows = {}
    for name, factory in CATALOG.items():
        metrics: dict = {}
        scalar, vector = time_pair(
            lambda: simulate(factory(), big_trace, config),
            lambda: simulate(factory(), big_trace, config,
                             engine="vectorized"),
            REPEATS, metrics, names=("scalar", "vectorized"))
        assert vector.value.mispredictions == scalar.value.mispredictions, \
            name
        assert vector.value.num_conditional_branches == \
            scalar.value.num_conditional_branches, name
        rows[name] = {
            "scalar_time": scalar.median,
            "vector_time": vector.median,
            "scalar_iqr": (scalar.q1, scalar.q3),
            "vector_iqr": (vector.q1, vector.q3),
            "instructions": scalar.value.simulation_instructions,
            "mispredictions": scalar.value.mispredictions,
            "metrics": metrics,
        }
    return rows


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_throughput(name, measurements, bench_metrics, report_only):
    row = measurements[name]
    bench_metrics.update(row["metrics"])
    bench_metrics["scalar_instructions_per_second"] = (
        row["instructions"] / row["scalar_time"])
    bench_metrics["vectorized_instructions_per_second"] = (
        row["instructions"] / row["vector_time"])
    bench_metrics["speedup"] = row["scalar_time"] / row["vector_time"]
    assert row["vector_time"] > 0


@pytest.mark.parametrize("name", FULLY_SCANNED)
def test_scan_predictors_meet_speedup_gate(name, measurements, report_only):
    row = measurements[name]
    speedup = row["scalar_time"] / row["vector_time"]
    assert speedup >= GATE_SPEEDUP, (
        f"{name}: vectorized engine only {speedup:.1f}x over scalar "
        f"(gate {GATE_SPEEDUP}x)")


def _with_iqr(median, iqr):
    q1, q3 = iqr
    return (f"{format_duration(median)} "
            f"[{format_duration(q1)}, {format_duration(q3)}]")


def test_vectorized_catalog_report(measurements, big_trace, report_only):
    body = []
    for name, row in measurements.items():
        speedup = row["scalar_time"] / row["vector_time"]
        body.append([
            name,
            _with_iqr(row["scalar_time"], row["scalar_iqr"]),
            _with_iqr(row["vector_time"], row["vector_iqr"]),
            f"{speedup:.1f} x",
            f"{row['instructions'] / row['vector_time'] / 1e6:.1f} M instr/s",
            "scan" if name in FULLY_SCANNED else "hybrid",
        ])
    emit_report("vectorized_catalog", format_table(
        headers=["Predictor", "Scalar", "Vectorized", "Speedup",
                 "Vectorized throughput", "Kernel"],
        rows=body,
        title=("Vectorized fast path across the table-indexed catalog "
               f"({len(big_trace)} branches, bit-exact results; median "
               f"[q1, q3] of {REPEATS} alternated pairs)"),
    ))
