"""Ablation (ours) — scalar loop vs the numpy segmented-scan engine.

The paper gets its speed from C++ and a stream trace format; a Python
reproduction gets the equivalent headroom from vectorization.  This
ablation quantifies it: the same bimodal/gshare simulations through the
per-branch scalar loop and through the vector-kernel path
(:func:`~repro.core.vectorized.simulate_vectorized`, whose kernels
resolve counters with the ``O(n log n)`` clamped-walk scan), with
bit-exactness asserted on every run.
"""

import time

import pytest

from repro.analysis.reporting import format_duration, format_table
from repro.core.simulator import SimulationConfig, simulate
from repro.core.vectorized import simulate_vectorized
from repro.predictors import Bimodal, GShare
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES

from conftest import emit_report

CASES = {"Bimodal": Bimodal, "GShare": GShare}


@pytest.fixture(scope="module")
def big_trace():
    return generate_trace(PROFILES["spec17_like"], seed=31,
                          num_branches=300_000)


@pytest.fixture(scope="module")
def measurements(big_trace):
    config = SimulationConfig(collect_most_failed=False)
    rows = {}
    for label, factory in CASES.items():
        start = time.perf_counter()
        scalar_result = simulate(factory(), big_trace, config)
        scalar_time = time.perf_counter() - start
        start = time.perf_counter()
        vector_result = simulate_vectorized(factory(), big_trace, config)
        vector_time = time.perf_counter() - start
        assert (vector_result.mispredictions
                == scalar_result.mispredictions), label
        rows[label] = (scalar_time, vector_time,
                       scalar_result.mispredictions)
    return rows


def test_ablation_vectorized_report(measurements, big_trace, report_only):
    body = []
    for label, (scalar_time, vector_time, mispredictions) in \
            measurements.items():
        body.append([
            label,
            format_duration(scalar_time),
            format_duration(vector_time),
            f"{scalar_time / vector_time:.1f} x",
            f"{len(big_trace) / vector_time / 1e6:.1f} M branches/s",
        ])
    emit_report("ablation_vectorized", format_table(
        headers=["Predictor", "Scalar loop", "Vectorized scan", "Speedup",
                 "Vectorized throughput"],
        rows=body,
        title=("Ablation - scalar per-branch loop vs numpy segmented-scan "
               f"engine ({len(big_trace)} branches, bit-exact results)"),
    ))


def test_ablation_vectorized_shape(measurements, report_only):
    for label, (scalar_time, vector_time, _) in measurements.items():
        assert vector_time < scalar_time, (
            f"{label}: vectorized engine slower than scalar loop"
        )
    # The gain must be substantial, not marginal.
    speedups = [s / v for s, v, _ in measurements.values()]
    assert max(speedups) > 3


def test_bench_vectorized_gshare(benchmark, big_trace):
    result = benchmark.pedantic(
        lambda: simulate_vectorized(GShare(), big_trace),
        rounds=3, iterations=1)
    assert result.mispredictions > 0


def test_bench_vectorized_bimodal(benchmark, big_trace):
    result = benchmark.pedantic(
        lambda: simulate_vectorized(Bimodal(), big_trace),
        rounds=3, iterations=1)
    assert result.mispredictions > 0
