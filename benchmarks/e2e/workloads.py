"""The four workloads of the layer-ledger benchmark.

Every workload drives one user-visible path of the library over
``.sbbt.xz`` files generated from the benchmark seed; the library only
ever sees the files.  All workloads are closed loops in one process;
only ``suite-engine`` adds one worker process, which computes while
the parent waits.

A workload object follows one protocol, driven by ``child.py``:

``setup()``
    what a user starts before the first request: plans are built and
    the engine pool is started and warmed.  Process start to the end of
    ``setup()`` is the ``setup_s`` metric.
``warm()``
    one untimed pass over every item; its answers are the reference
    every timed repeat is checked against.
``reset()`` / ``run_slice(k)`` for each ``k`` in ``range(len(slices))``
    untimed preparation, then one repeat: every item once, in short
    slices (one plan each) that are timed apart and return
    ``(item index, outcome)`` pairs.
``check(raw)``
    hashes a repeat's outcomes once the clock has stopped.
``counters()``
    cumulative counters (engine, cache) for per-layer deltas.

Answers are compared as canonical hashes: a result's Listing-1 JSON
minus ``simulation_time`` (the one field that legitimately differs
between runs).  :func:`reference_hash` recomputes any item on the
simplest path (inline, scalar engine, ``batch="off"``, no cache).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, NamedTuple

from repro.core import plan as plan_mod
from repro.core.output import SimulationResult
from repro.core.plan import WorkPlan, WorkUnit
from repro.core.simulator import SimulationConfig
from repro.registry import predictor_factory

# Captured before any layer wrapping: hashing answers must not count as
# the library's own result serialization.
_to_json = SimulationResult.to_json

CATEGORIES = ("short_mobile", "long_mobile", "short_server", "long_server")

#: Branch counts of the trace sets, per scale.  Categories cycle over
#: the traces.  Sets hold many short traces rather than a few long
#: ones: a trace's cost per branch and its instructions per branch
#: depend on its synthetic program, and more programs per run average
#: that out across seeds.  Timed side by side, ten seeds' table3 sets
#: spread 7.1% with 16 traces of 1,250 branches and 1.2% with 32 of 600;
#: the sweep sets 7.9% with 8 of 15,000 and 1.9% with 32 of 3,750.
SCALES: dict[str, dict[str, list[int]]] = {
    "full": {
        "table3": [600] * 32,
        "sweep": [3_750] * 32,
        "suite": [500 + 1_000 * i // 31 for i in range(32)],
    },
    "smoke": {
        "table3": [100] * 16,
        "sweep": [2_000] * 4,
        "suite": [250 + 500 * i // 15 for i in range(16)],
    },
}

#: Fresh subprocesses timed for ``setup_s``, per scale; half of them run
#: before the measurement and half after it.
SETUP_SAMPLES = {"full": 10, "smoke": 2}

#: A tiny seed-independent trace: it only warms pools and the daemon in
#: ``setup()``.
THROWAWAY = "throwaway.sbbt.xz"

SWEEP_HISTORIES = range(1, 17)
SWEEP_LOG_TABLE_SIZE = 14


# ----------------------------------------------------------------------
# Inputs: trace files made from the seed.
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """What the parent generated into the work directory."""

    workload: str
    seed: int
    traces: list[str]
    instructions: dict[str, int]


def make_inputs(workload: str, seed: int, scale: str,
                workdir: Path) -> Inputs:
    """Generate the workload's traces from ``seed`` into ``workdir``."""
    from repro.sbbt import write_trace
    from repro.traces.synth import generate_trace
    from repro.traces.workloads import PROFILES

    trace_set = WORKLOADS[workload].trace_set
    traces: list[str] = []
    instructions: dict[str, int] = {}
    for i, branches in enumerate(SCALES[scale][trace_set]):
        category = CATEGORIES[i % len(CATEGORIES)]
        name = f"{trace_set}{i}-{category}.sbbt.xz"
        data = generate_trace(PROFILES[category], seed * 1000 + i, branches)
        write_trace(workdir / name, data)
        traces.append(name)
        instructions[name] = data.num_instructions
    write_trace(workdir / THROWAWAY,
                generate_trace(PROFILES["short_mobile"], 0, 500))
    inputs = Inputs(workload, seed, traces, instructions)
    (workdir / "inputs.json").write_text(json.dumps(asdict(inputs)))
    return inputs


def load_inputs(workdir: Path) -> Inputs:
    """The :class:`Inputs` the parent wrote into ``workdir``."""
    return Inputs(**json.loads((workdir / "inputs.json").read_text()))


# ----------------------------------------------------------------------
# Items and canonical answers.
# ----------------------------------------------------------------------


class Unit(NamedTuple):
    """One (predictor configuration, trace) simulation."""

    predictor: str
    params: tuple[tuple[str, int], ...]
    trace: str


class Checked(NamedTuple):
    """A repeat's outcomes, hashed after the clock stopped."""

    answers: list[tuple[int, str | None]]  # (item index, hash or None)
    instructions: int
    computed_sim_s: float  # Σ simulation_time of freshly computed results


def _sha(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_hash(doc: dict[str, Any]) -> str:
    """Hash of a Listing-1 result JSON without ``simulation_time``."""
    metrics = {k: v for k, v in doc["metrics"].items()
               if k != "simulation_time"}
    return _sha({**doc, "metrics": metrics})


def digest(hashes: list[str]) -> str:
    """``results_sha256``: one digest over every item's answer."""
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


def reference_hash(unit: Unit) -> str:
    """``unit``'s answer on the simplest path: inline, scalar engine,
    ``batch="off"``, no cache."""
    work = WorkUnit(factory=predictor_factory(unit.predictor,
                                              dict(unit.params)),
                    trace=unit.trace, name=unit.trace,
                    config=SimulationConfig(), sim_engine="scalar")
    (outcome,) = plan_mod.execute_plan(WorkPlan((work,)), batch="off")
    if not isinstance(outcome, SimulationResult):
        raise RuntimeError(f"reference run failed: {outcome}")
    return result_hash(_to_json(outcome))


def build_plan(units: list[Unit], sim_engine: str) -> WorkPlan:
    """A plan over ``units``; one factory object per configuration, as
    the sweep and suite drivers lower them."""
    factories: dict[tuple, Any] = {}
    work = []
    for unit in units:
        key = (unit.predictor, unit.params)
        if key not in factories:
            factories[key] = predictor_factory(unit.predictor,
                                               dict(unit.params))
        work.append(WorkUnit(factory=factories[key], trace=unit.trace,
                             name=unit.trace, config=SimulationConfig(),
                             sim_engine=sim_engine))
    return WorkPlan(tuple(work))


def _dir_bytes(path: str | None) -> int:
    if path is None or not os.path.isdir(path):
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path))


# ----------------------------------------------------------------------
# Inline and engine workloads: one WorkPlan per slice.
# ----------------------------------------------------------------------


class PlanWorkload:
    """One :func:`repro.core.plan.execute_plan` call per slice; a slice
    holds every unit of ``slice_traces`` traces."""

    name = ""
    trace_set = ""
    sim_engine = "scalar"
    slice_traces = 1
    #: The ExecutionEngine whose stats feed the engine.* layer metrics.
    engine = None
    cache_dir: str | None = None

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.units = self.make_units(inputs.traces)
        #: (item indices, plan over those items) per slice.
        self.slices: list[tuple[list[int], WorkPlan]] = []

    def make_units(self, traces: list[str]) -> list[Unit]:
        raise NotImplementedError

    def items(self) -> list[Unit]:
        return list(self.units)

    def setup(self) -> None:
        traces = self.inputs.traces
        for start in range(0, len(traces), self.slice_traces):
            group = set(traces[start:start + self.slice_traces])
            indices = [i for i, unit in enumerate(self.units)
                       if unit.trace in group]
            self.slices.append((indices, build_plan(
                [self.units[i] for i in indices], self.sim_engine)))

    def options(self) -> dict[str, Any]:
        return {}

    def reset(self) -> None:
        pass

    def run_slice(self, k: int) -> list[tuple[int, Any]]:
        indices, plan = self.slices[k]
        # Looked up on the module at call time, so the ledger's wrapper
        # (when installed) is the one called.
        return list(zip(indices,
                        plan_mod.execute_plan(plan, **self.options())))

    def warm(self) -> list[str | None]:
        self.reset()
        raw = [entry for k in range(len(self.slices))
               for entry in self.run_slice(k)]
        answers = dict(self.check(raw).answers)
        return [answers[i] for i in range(len(self.units))]

    def check(self, raw: list[tuple[int, Any]]) -> Checked:
        answers = []
        instructions = 0
        computed = 0.0
        for i, outcome in raw:
            if not isinstance(outcome, SimulationResult):
                answers.append((i, None))
                continue
            answers.append((i, result_hash(_to_json(outcome))))
            instructions += outcome.simulation_instructions
            if not outcome.from_cache:
                computed += outcome.simulation_time
        return Checked(answers, instructions, computed)

    def counters(self) -> dict[str, float]:
        out = {"cache_bytes": float(_dir_bytes(self.cache_dir))}
        if self.engine is not None:
            stats = self.engine.stats
            out["chunks"] = float(stats.chunks_dispatched)
            out["tasks"] = float(stats.tasks_dispatched)
        return out

    def close(self) -> None:
        pass


class Table3Scalar(PlanWorkload):
    """TAGE and GShare on the scalar loop, inline, no cache: the paper's
    Table III path.  Predictor code and the scalar loop do the work;
    cache, vectorized and engine code is idle."""

    name = "table3-scalar"
    trace_set = "table3"

    def make_units(self, traces):
        return [Unit(p, (), t) for p in ("tage", "gshare") for t in traces]


class SweepCold(PlanWorkload):
    """A 16-point GShare ``history_length`` sweep, batched vectorized
    kernels, no cache, so every point simulates: SBBT decode, digests
    and the kernels do the work; the scalar loop and the engine are
    bypassed.  With a fresh cache per repeat, half of a repeat was
    cache keying and small-file writes, whose time varied by a third
    from run to run with the disk."""

    name = "sweep-cold"
    trace_set = "sweep"
    sim_engine = "vectorized"

    def make_units(self, traces):
        return [Unit("gshare", (("history_length", h),
                                ("log_table_size", SWEEP_LOG_TABLE_SIZE)), t)
                for h in SWEEP_HISTORIES for t in traces]

    def options(self):
        return {"cache": self.cache_dir, "batch": "auto"}


class SweepWarm(SweepCold):
    """The same sweep against a cache an untimed cold pass filled:
    keying, digests, spec derivation and cache reads do the work and
    nothing simulates.  A keying change shows here, not on
    ``table3-scalar``."""

    name = "sweep-warm"

    def reset(self) -> None:
        if self.cache_dir is None:  # only the cold fill in warm()
            self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=".")


class SuiteEngine(PlanWorkload):
    """128 small units (four predictors over 32 traces) on a persistent
    one-worker engine, 8 units per plan: dispatch, chunking,
    shared-memory publish and pickling are a large share of each
    repeat.  One worker, because two workers and the parent on a
    two-vCPU host measured the scheduler: ten copies of the same inputs
    spread 8.5% against 3.1% with one."""

    name = "suite-engine"
    trace_set = "suite"
    sim_engine = "auto"
    slice_traces = 2

    def make_units(self, traces):
        return [Unit(p, (), t)
                for p in ("bimodal", "gshare", "tournament", "perceptron")
                for t in traces]

    def setup(self) -> None:
        from repro.core.engine import ExecutionEngine

        super().setup()
        self.engine = ExecutionEngine(workers=1)
        throwaway = build_plan([Unit("bimodal", (), THROWAWAY)], "auto")
        plan_mod.execute_plan(throwaway, engine=self.engine)

    def options(self):
        return {"engine": self.engine}

    def inline_wall(self) -> float:
        """The same plans run once inline, for
        ``engine.speedup_vs_inline``."""
        start = time.perf_counter()
        for _, plan in self.slices:
            plan_mod.execute_plan(plan)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


WORKLOADS = {cls.name: cls for cls in (Table3Scalar, SweepCold, SweepWarm,
                                       SuiteEngine)}
