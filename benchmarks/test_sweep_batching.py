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
   per-unit, and the two sweeps' points are asserted identical.

2. **Bimodal table-size sweep** — 8 table sizes over one trace.  The
   points share the trace (context and history reuse apply) but not the
   table geometry, so stacking yields less; recorded as a report with no
   hard gate, it shows the batching win degrading gracefully instead of
   falling off a cliff.

Both sweeps are timed by the alternated-pair protocol
(``conftest.time_pair``): one untimed warm-up call per dispatch style,
then ``REPEATS`` alternated pairs, read as the median with its
quartiles.
"""

import pytest

from repro.analysis.reporting import format_duration, format_table
from repro.analysis.sweep import sweep_parameter
from repro.predictors import Bimodal, GShare
from repro.sbbt.writer import write_trace
from repro.telemetry.instrumentation import PhaseTimers
from repro.tracing import SpanRecorder
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES

from conftest import emit_report, time_pair

#: Timed pairs per sweep; the gates read the medians.
REPEATS = 5

GSHARE_VALUES = tuple(range(8, 24))  # 16 grid points
GSHARE_TABLE = 14
GSHARE_BRANCHES = 120_000
GSHARE_PROFILE = "spec17_like"

BIMODAL_VALUES = tuple(range(8, 16))  # 8 grid points
BIMODAL_BRANCHES = 60_000
BIMODAL_PROFILE = "short_server"


def _trace_file(tmp_path_factory, profile, num_branches, seed):
    directory = tmp_path_factory.mktemp("sweep-batching")
    path = directory / f"{profile}.sbbt"
    write_trace(path, generate_trace(PROFILES[profile], seed=seed,
                                     num_branches=num_branches))
    return path


def _time_sweep(factory, parameter, values, path, fixed):
    """Median wall clock of batch="off" vs batch="auto" over
    ``REPEATS`` alternated pairs; the batched side is traced on every
    call, the warm-up included."""
    recorder = SpanRecorder()

    def run(batch, tracer=None):
        return sweep_parameter(factory, parameter, values, [path],
                               fixed=fixed, sim_engine="vectorized",
                               batch=batch, tracer=tracer)

    metrics: dict = {}
    off, auto = time_pair(lambda: run("off"), lambda: run("auto", recorder),
                          REPEATS, metrics, names=("per_unit", "batched"))
    assert ([p.mean_mpki for p in auto.value.points]
            == [p.mean_mpki for p in off.value.points])
    timers = PhaseTimers.from_spans(recorder.spans)
    return {
        "off": off,
        "auto": auto,
        "metrics": metrics,
        "batch_groups": timers.counters.get("batch_groups", 0),
        "batch_units": timers.counters.get("batch_units", 0),
        "context_reuse": timers.counters.get("context_reuse", 0),
    }


@pytest.fixture(scope="module")
def gshare_sweep(tmp_path_factory):
    path = _trace_file(tmp_path_factory, GSHARE_PROFILE,
                       GSHARE_BRANCHES, seed=91)
    return _time_sweep(GShare, "history_length", GSHARE_VALUES, path,
                       fixed={"log_table_size": GSHARE_TABLE})


@pytest.fixture(scope="module")
def bimodal_sweep(tmp_path_factory):
    path = _trace_file(tmp_path_factory, BIMODAL_PROFILE,
                       BIMODAL_BRANCHES, seed=92)
    return _time_sweep(Bimodal, "log_table_size", BIMODAL_VALUES, path,
                       fixed={"counter_width": 2})


def _with_iqr(timing):
    return (f"{format_duration(timing.median)} "
            f"[{format_duration(timing.q1)}, {format_duration(timing.q3)}]")


def test_gshare_history_sweep_gate(gshare_sweep, report_only,
                                   bench_metrics):
    off, auto = gshare_sweep["off"], gshare_sweep["auto"]
    speedup = off.median / auto.median
    bench_metrics.update(gshare_sweep["metrics"])
    bench_metrics["gshare_per_unit_s"] = off.median
    bench_metrics["gshare_batched_s"] = auto.median
    bench_metrics["gshare_batched_speedup"] = speedup
    bench_metrics["gshare_points"] = len(GSHARE_VALUES)
    emit_report("sweep_batching_gshare", format_table(
        headers=["Sweep dispatch", "Time", "Speedup"],
        rows=[
            [f"per-unit ({len(GSHARE_VALUES)} vectorized runs)",
             _with_iqr(off), "1.0 x"],
            ["config-batched (one stacked pass)",
             _with_iqr(auto), f"{speedup:.2f} x"],
        ],
        title=(f"GShare history sweep - {len(GSHARE_VALUES)} points x "
               f"{GSHARE_BRANCHES} branches ({GSHARE_PROFILE})"),
    ))
    # The acceptance gate: sharing one context and stacking all 16
    # same-shape kernels must be at least a 3x win over per-unit runs.
    assert speedup >= 3.0, (
        f"batched {auto.median:.3f}s vs per-unit {off.median:.3f}s "
        f"(median speedup {speedup:.2f}x < gate 3.0x)")


def test_gshare_sweep_forms_one_group(gshare_sweep, report_only,
                                      bench_metrics):
    # The telemetry proves *why*: every batched call (the warm-up and
    # each timed one) funneled every point of the single-trace sweep
    # through one batch group, and the shared context served repeat
    # derivations (the memoized address fold) instead of recomputing
    # them per configuration.
    calls = REPEATS + 1
    assert gshare_sweep["batch_groups"] == calls
    assert gshare_sweep["batch_units"] == calls * len(GSHARE_VALUES)
    assert gshare_sweep["context_reuse"] > 0
    bench_metrics["gshare_context_reuse"] = gshare_sweep["context_reuse"]


def test_bimodal_size_sweep_report(bimodal_sweep, report_only,
                                   bench_metrics):
    off, auto = bimodal_sweep["off"], bimodal_sweep["auto"]
    speedup = off.median / auto.median
    bench_metrics.update(bimodal_sweep["metrics"])
    bench_metrics["bimodal_per_unit_s"] = off.median
    bench_metrics["bimodal_batched_s"] = auto.median
    bench_metrics["bimodal_batched_speedup"] = speedup
    bench_metrics["bimodal_points"] = len(BIMODAL_VALUES)
    emit_report("sweep_batching_bimodal", format_table(
        headers=["Sweep dispatch", "Time", "Speedup"],
        rows=[
            [f"per-unit ({len(BIMODAL_VALUES)} vectorized runs)",
             _with_iqr(off), "1.0 x"],
            ["config-batched (shared context)",
             _with_iqr(auto), f"{speedup:.2f} x"],
        ],
        title=(f"Bimodal table-size sweep - {len(BIMODAL_VALUES)} points x "
               f"{BIMODAL_BRANCHES} branches ({BIMODAL_PROFILE})"),
    ))
    # Heterogeneous table shapes cannot stack, but the shared context
    # must still keep the batched path from losing to per-unit runs.
    assert speedup >= 1.0, (
        f"batched {auto.median:.3f}s vs per-unit {off.median:.3f}s "
        f"(median speedup {speedup:.2f}x < floor 1.0x)")
    calls = REPEATS + 1
    assert bimodal_sweep["batch_groups"] == calls
    assert bimodal_sweep["batch_units"] == calls * len(BIMODAL_VALUES)
