"""The measured process of the layer-ledger benchmark.

``run.py`` starts this file in a fresh interpreter, inside the work
directory it generated the traces into::

    child.py probe                      # setup, print "ready", tear down
    child.py measure SECONDS TRACE SPANS  # measure, print one JSON report

``measure`` runs the workload's untimed warm-up pass, then timed repeats
for SECONDS (at least ``MIN_REPEATS``).  Each repeat runs the workload's
slices in order and times each one.  ``wall_s`` reports, besides the
repeats' samples, the sum over slices of each slice's fastest time: a
slice takes 0.01-0.2 s, and on a shared host whose speed drifts for
minutes at a time, a window that short runs at full speed at least once
in a run far more often than a whole repeat does.

With TRACE=1 the time is split: the first half runs untraced (the
baseline of the tracing overhead), then the ledger wraps the layers and
the second half runs traced; the spans are written to SPANS as JSONL
and folded into per-layer metrics.  Every repeat's answers are checked
against the warm-up pass.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from ledger import Ledger, fold

MIN_REPEATS = 3


@dataclass
class Phase:
    """Timed repeats of one phase and what they answered."""

    walls: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)  # Minstr/s per repeat
    slice_walls: list[list[float]] = field(default_factory=list)
    instructions: int = 0  # per repeat; every repeat does the same work
    computed_sim_s: float = 0.0
    attempted: int = 0
    failed: int = 0

    def best_wall(self) -> float:
        """Σ over slices of the slice's fastest time."""
        return sum(min(times) for times in zip(*self.slice_walls))


def measure(workload, seconds: float, expected: list[str | None]) -> Phase:
    """Timed repeats until ``seconds`` have passed; answers checked."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while len(phase.walls) < MIN_REPEATS or time.perf_counter() < deadline:
        workload.reset()
        raw = []
        times = []
        for k in range(len(workload.slices)):
            start = time.perf_counter()
            raw += workload.run_slice(k)
            times.append(time.perf_counter() - start)
        wall = sum(times)
        checked = workload.check(raw)
        phase.walls.append(wall)
        phase.slice_walls.append(times)
        phase.instructions = checked.instructions
        phase.rates.append(checked.instructions / wall / 1e6)
        phase.computed_sim_s += checked.computed_sim_s
        phase.attempted += len(checked.answers)
        phase.failed += sum(1 for index, answer in checked.answers
                            if answer is None or answer != expected[index])
    return phase


def peak_rss_mb() -> float:
    """This process's peak resident set.  ``VmHWM`` belongs to the
    current address space; ``ru_maxrss`` would also carry the parent's
    peak from before ``exec``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _drain_seconds(trace: str) -> float:
    """Best-of-3 time to drain ``TraceData.iter_branches()`` of a trace."""
    from repro.sbbt import read_trace

    data = read_trace(trace)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in data.iter_branches():
            pass
        best = min(best, time.perf_counter() - start)
    return best


def layer_metrics(workload, plain: Phase, traced: Phase, ledger: Ledger,
                  before: dict, after: dict, inline_wall: float,
                  children_rss_mb: float) -> dict:
    """Per-layer metrics: span folds per traced repeat; counter deltas
    (``before``/``after``) over the untraced phase, which the wrappers do
    not disturb."""
    layers = fold(ledger.recorder.spans)
    repeats = len(traced.walls)
    traced_wall = sum(traced.walls)

    def per(value: float) -> float:
        return value / repeats

    def calls(name: str) -> float:
        return per(layers[name].calls)

    def self_s(name: str) -> float:
        return per(layers[name].self_s)

    def total_s(name: str) -> float:
        return per(layers[name].total_s)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    scalar = layers["simulator.scalar"].spans
    drains = {t: _drain_seconds(t)
              for t in {s.attributes["trace"] for s in scalar}}
    iter_s = per(sum(drains[s.attributes["trace"]] for s in scalar))
    gets = layers["cache.get"].spans
    groups = layers["vectorized.group"].spans
    engine = workload.engine
    run_plan_s = total_s("engine.run_plan")
    worker_sim = per(traced.computed_sim_s) if engine is not None else 0.0
    plain_wall = statistics.median(plain.walls)

    metrics = {
        "sbbt.decode.calls": (calls("sbbt.decode"), "count"),
        "sbbt.decode.s": (self_s("sbbt.decode"), "s"),
        "sbbt.digest.calls": (calls("sbbt.digest"), "count"),
        "sbbt.digest.s": (self_s("sbbt.digest"), "s"),
        "sbbt.digest.per_trace": (calls("sbbt.digest")
                                  / len(workload.inputs.traces), "count"),
        "sbbt.iter_branches.s": (iter_s, "s"),
        "simulator.harness_share": (_ratio(iter_s,
                                           self_s("simulator.scalar")),
                                    "ratio"),
        "simulator.scalar.calls": (calls("simulator.scalar"), "count"),
        "simulator.scalar.s": (self_s("simulator.scalar"), "s"),
        "predictor.derive_spec.calls": (calls("predictor.derive_spec"),
                                        "count"),
        "predictor.derive_spec.s": (self_s("predictor.derive_spec"), "s"),
        "cache.key.s": (self_s("cache.key"), "s"),
        "cache.get.calls": (calls("cache.get"), "count"),
        "cache.get.s": (self_s("cache.get"), "s"),
        "cache.hit_ratio": (_ratio(sum(s.attributes["hit"] for s in gets),
                                   len(gets)), "ratio"),
        "cache.bytes": (after.get("cache_bytes", 0.0), "B"),
        "vectorized.group.calls": (calls("vectorized.group"), "count"),
        "vectorized.group.s": (self_s("vectorized.group"), "s"),
        "vectorized.group.units": (_ratio(sum(s.attributes["units"]
                                              for s in groups),
                                          len(groups)), "count"),
        "vectorized.unit.s": (self_s("vectorized.unit"), "s"),
        "plan.execute.s": (total_s("plan.execute"), "s"),
        "plan.self.s": (self_s("plan.execute"), "s"),
        "engine.publish.s": (self_s("engine.publish"), "s"),
        "engine.run_plan.s": (run_plan_s, "s"),
        "engine.chunks": (delta("chunks") / len(plain.walls), "count"),
        "engine.units_per_chunk": (_ratio(delta("tasks"), delta("chunks")),
                                   "count"),
        "engine.worker_sim.s": (worker_sim, "s"),
        "engine.parallel_efficiency": (
            _ratio(worker_sim, run_plan_s * engine.workers)
            if engine is not None else 0.0, "ratio"),
        "engine.inline_wall_s": (inline_wall, "s"),
        "engine.speedup_vs_inline": (_ratio(inline_wall, plain_wall),
                                     "ratio"),
        "engine.worker_peak_rss_mb": (children_rss_mb, "MB"),
        "ledger.unattributed_frac": (
            1.0 - sum(layer.self_s for layer in layers.values())
            / traced_wall, "ratio"),
        "ledger.trace_overhead_frac": (
            statistics.median(traced.walls) / plain_wall - 1.0, "ratio"),
    }
    return {name: {"unit": unit, "samples": [value]}
            for name, (value, unit) in metrics.items()}


def main(argv: list[str]) -> int:
    mode = argv[0]
    inputs = workloads.load_inputs(Path("."))
    workload = workloads.WORKLOADS[inputs.workload](inputs)
    if mode == "probe":
        workload.setup()
        print("ready", flush=True)
        workload.close()
        return 0

    seconds, trace, spans_path = float(argv[1]), argv[2] == "1", argv[3]
    workload.setup()
    try:
        expected = workload.warm()
        before = workload.counters()
        plain = measure(workload, seconds / 2 if trace else seconds,
                        expected)
        after = workload.counters()
        peak_rss = peak_rss_mb()
        phases = [plain]
        if trace:
            inline_wall = (workload.inline_wall()
                           if hasattr(workload, "inline_wall") else 0.0)
            ledger = Ledger()
            ledger.install()
            try:
                traced = measure(workload, seconds / 2, expected)
            finally:
                ledger.uninstall()
            phases.append(traced)
    finally:
        workload.close()
    report = {
        "items": expected,
        "results_sha256": workloads.digest([h or "FAILED" for h in expected]),
        "attempted": len(expected) + sum(p.attempted for p in phases),
        "failed": (sum(h is None for h in expected)
                   + sum(p.failed for p in phases)),
    }
    if trace:
        ledger.write_jsonl(spans_path)
        children_rss = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        report["metrics"] = layer_metrics(workload, plain, traced, ledger,
                                          before, after, inline_wall,
                                          children_rss)
    else:
        best = plain.best_wall()
        report["metrics"] = {
            "wall_s": {"unit": "s", "samples": plain.walls, "best": best},
            "minstr_per_s": {"unit": "Minstr/s", "samples": plain.rates,
                             "best": plain.instructions / best / 1e6},
            "peak_rss_mb": {"unit": "MB", "samples": [peak_rss]},
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
