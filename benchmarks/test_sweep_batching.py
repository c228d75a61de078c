"""Config-batched sweeps (ours) — one vectorized pass over a whole grid.

A parameter sweep evaluates many configurations of one predictor over
the same trace.  Run per-unit, every grid point rebuilds the vectorized
context (unpacked outcome/address arrays, packed history windows) and
sorts its own index stream; only the trace decode is shared, since the
inline loop decodes a run of units over one trace file once.  The
batched evaluator (``batch="auto"``) groups a plan's units by trace,
builds the context once, memoizes derived histories across
configurations, and resolves every same-bounds saturating-table kernel
in one stacked radix sort + grouped walk.  This module records the payoff in
``BENCH_sweep_batching.json``:

1. **GShare history sweep** — 16 history lengths over one trace, the
   flagship case: every point shares the trace and the table bounds, so
   the whole grid collapses into one stacked pass.  The acceptance gate
   asserts the batched sweep is >= 3x faster than the same sweep run
   per-unit (best-of-``ROUNDS`` on both sides; results are asserted
   point-for-point identical every round).

2. **Bimodal table-size sweep** — 8 table sizes over one trace.  The
   points share the trace (context and history reuse apply) but not the
   table geometry, so stacking yields less; recorded as a report with no
   hard gate, it shows the batching win degrading gracefully instead of
   falling off a cliff.
"""

import time

import pytest

from repro.analysis.reporting import format_duration, format_table
from repro.analysis.sweep import sweep_parameter
from repro.predictors import Bimodal, GShare
from repro.sbbt.writer import write_trace
from repro.telemetry.instrumentation import PhaseTimers
from repro.tracing import SpanRecorder
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES

from conftest import emit_report

#: Best-of rounds per dispatch style; CI boxes are noisy and the
#: comparison is about structural cost, not scheduler luck.
ROUNDS = 3

GSHARE_VALUES = tuple(range(8, 24))  # 16 grid points
GSHARE_TABLE = 14
GSHARE_BRANCHES = 120_000
GSHARE_PROFILE = "spec17_like"

BIMODAL_VALUES = tuple(range(8, 16))  # 8 grid points
BIMODAL_BRANCHES = 60_000
BIMODAL_PROFILE = "short_server"


def _timed(function):
    """(value, wall seconds, CPU seconds) for one call.

    The speedup gates divide CPU times: the sweeps are single-threaded
    and CPU-bound, so process time measures the structural cost while
    staying steady when a co-tenant steals the wall clock.
    """
    wall = time.perf_counter()
    cpu = time.process_time()
    value = function()
    return value, time.perf_counter() - wall, time.process_time() - cpu


def _trace_file(tmp_path_factory, profile, num_branches, seed):
    directory = tmp_path_factory.mktemp("sweep-batching")
    path = directory / f"{profile}.sbbt"
    write_trace(path, generate_trace(PROFILES[profile], seed=seed,
                                     num_branches=num_branches))
    return path


def _best_of_sweep(factory, parameter, values, path, fixed):
    """Best-of-ROUNDS wall clock for batch="off" vs batch="auto".

    Interleaved rounds so slow drift (thermal, co-tenants) hits both
    sides equally; every round asserts the batched points are identical
    to the per-unit ones before its timing is kept.
    """
    recorder = SpanRecorder()

    def run(batch, tracer=None):
        return sweep_parameter(factory, parameter, values, [path],
                               fixed=fixed, sim_engine="vectorized",
                               batch=batch, tracer=tracer)

    run("off")  # warm the page cache and the numpy code paths
    run("auto")
    off_wall, auto_wall, off_cpu, auto_cpu = [], [], [], []
    for _ in range(ROUNDS):
        off, wall, cpu = _timed(lambda: run("off"))
        off_wall.append(wall)
        off_cpu.append(cpu)
        auto, wall, cpu = _timed(lambda: run("auto", recorder))
        auto_wall.append(wall)
        auto_cpu.append(cpu)
        assert ([p.mean_mpki for p in auto.points]
                == [p.mean_mpki for p in off.points])
    timers = PhaseTimers.from_spans(recorder.spans)
    return {
        "off_s": min(off_wall),
        "auto_s": min(auto_wall),
        "off_cpu_s": min(off_cpu),
        "auto_cpu_s": min(auto_cpu),
        "batch_groups": timers.counters.get("batch_groups", 0),
        "batch_units": timers.counters.get("batch_units", 0),
        "context_reuse": timers.counters.get("context_reuse", 0),
    }


@pytest.fixture(scope="module")
def gshare_sweep(tmp_path_factory):
    path = _trace_file(tmp_path_factory, GSHARE_PROFILE,
                       GSHARE_BRANCHES, seed=91)
    return _best_of_sweep(GShare, "history_length", GSHARE_VALUES, path,
                          fixed={"log_table_size": GSHARE_TABLE})


@pytest.fixture(scope="module")
def bimodal_sweep(tmp_path_factory):
    path = _trace_file(tmp_path_factory, BIMODAL_PROFILE,
                       BIMODAL_BRANCHES, seed=92)
    return _best_of_sweep(Bimodal, "log_table_size", BIMODAL_VALUES, path,
                          fixed={"counter_width": 2})


def test_gshare_history_sweep_gate(gshare_sweep, report_only,
                                   bench_metrics):
    off, auto = gshare_sweep["off_s"], gshare_sweep["auto_s"]
    cpu_speedup = gshare_sweep["off_cpu_s"] / gshare_sweep["auto_cpu_s"]
    speedup = off / auto
    bench_metrics["gshare_per_unit_s"] = off
    bench_metrics["gshare_batched_s"] = auto
    bench_metrics["gshare_batched_speedup"] = speedup
    bench_metrics["gshare_batched_cpu_speedup"] = cpu_speedup
    bench_metrics["gshare_points"] = len(GSHARE_VALUES)
    emit_report("sweep_batching_gshare", format_table(
        headers=["Sweep dispatch", "Time", "Speedup"],
        rows=[
            [f"per-unit ({len(GSHARE_VALUES)} vectorized runs)",
             format_duration(off), "1.0 x"],
            ["config-batched (one stacked pass)",
             format_duration(auto), f"{speedup:.2f} x"],
        ],
        title=(f"GShare history sweep - {len(GSHARE_VALUES)} points x "
               f"{GSHARE_BRANCHES} branches ({GSHARE_PROFILE})"),
    ))
    # The acceptance gate: sharing one context and stacking all 16
    # same-shape kernels must be at least a 3x win over per-unit runs.
    assert cpu_speedup >= 3.0, (
        f"batched {gshare_sweep['auto_cpu_s']:.3f}s CPU vs per-unit "
        f"{gshare_sweep['off_cpu_s']:.3f}s CPU "
        f"(speedup {cpu_speedup:.2f}x < gate 3.0x)")


def test_gshare_sweep_forms_one_group(gshare_sweep, report_only,
                                      bench_metrics):
    # The telemetry proves *why*: every measured round funneled every
    # point of the single-trace sweep through one batch group, and the
    # shared context served repeat derivations (the memoized address
    # fold) instead of recomputing them per configuration.
    assert gshare_sweep["batch_groups"] == ROUNDS
    assert gshare_sweep["batch_units"] == ROUNDS * len(GSHARE_VALUES)
    assert gshare_sweep["context_reuse"] > 0
    bench_metrics["gshare_context_reuse"] = gshare_sweep["context_reuse"]


def test_bimodal_size_sweep_report(bimodal_sweep, report_only,
                                   bench_metrics):
    off, auto = bimodal_sweep["off_s"], bimodal_sweep["auto_s"]
    speedup = off / auto
    bench_metrics["bimodal_per_unit_s"] = off
    bench_metrics["bimodal_batched_s"] = auto
    bench_metrics["bimodal_batched_speedup"] = speedup
    bench_metrics["bimodal_points"] = len(BIMODAL_VALUES)
    emit_report("sweep_batching_bimodal", format_table(
        headers=["Sweep dispatch", "Time", "Speedup"],
        rows=[
            [f"per-unit ({len(BIMODAL_VALUES)} vectorized runs)",
             format_duration(off), "1.0 x"],
            ["config-batched (shared context)",
             format_duration(auto), f"{speedup:.2f} x"],
        ],
        title=(f"Bimodal table-size sweep - {len(BIMODAL_VALUES)} points x "
               f"{BIMODAL_BRANCHES} branches ({BIMODAL_PROFILE})"),
    ))
    # Heterogeneous table shapes cannot stack, but the shared context
    # must still keep the batched path from losing to per-unit runs.
    cpu_speedup = bimodal_sweep["off_cpu_s"] / bimodal_sweep["auto_cpu_s"]
    bench_metrics["bimodal_batched_cpu_speedup"] = cpu_speedup
    assert cpu_speedup >= 1.0, (
        f"batched {bimodal_sweep['auto_cpu_s']:.3f}s CPU vs per-unit "
        f"{bimodal_sweep['off_cpu_s']:.3f}s CPU "
        f"(speedup {cpu_speedup:.2f}x < floor 1.0x)")
    assert bimodal_sweep["batch_groups"] == ROUNDS
    assert bimodal_sweep["batch_units"] == ROUNDS * len(BIMODAL_VALUES)
