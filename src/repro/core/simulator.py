"""The standard simulator (paper Section IV).

What the simulator does, in the paper's words: read a program trace with
the branches seen during execution, ask the predictor to anticipate the
outcome of those branches, and record how many times the predictor was
incorrect.

Driving rules (Section IV-B):

* ``predict`` and ``train`` are invoked for **conditional** branches only;
* ``track`` is invoked for **every** branch (unless the user asks for
  ``track_only_conditional``), after ``train``;
* mispredictions inside the warm-up instruction window are not counted.

Observability (:mod:`repro.tracing`, :mod:`repro.telemetry`,
:mod:`repro.probe`): the simulator accepts an optional ``tracer`` that
records one span per phase — trace decode ("trace_read"), the
predict/train/track loop ("simulate_loop") and result finalization
("finalize") — an optional ``telemetry`` interval recorder sampling
the running counters every N instructions, and an optional ``probe``
accumulating component attribution and per-branch profiles.  All
default to off, and the off path adds **no hook calls**: spans are
per-run records behind ``is not None`` guards, interval sampling is a
single integer comparison against an unreachable sentinel, and the
probe's entire disabled cost is one ``is not None`` test of a local
variable per measured conditional branch, so Table III-style timing
measurements are unaffected.

All durations are measured with the monotonic ``time.perf_counter``;
wall-clock ``time.time`` (which can jump under NTP adjustment) is never
used for a duration, only for the start stamps that place spans on a
timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Union

from ..sbbt.store import STORE
from ..sbbt.trace import TraceData
from .errors import SimulationError
from .metrics import BranchStats, most_failed_branches
from .output import SimulationResult
from .predictor import Predictor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..probe import PredictionProbe
    from ..telemetry.interval import IntervalRecorder
    from ..tracing.span import Tracer

__all__ = ["SimulationConfig", "simulate", "simulate_file"]

TraceLike = Union[TraceData, str, Path]

#: Sentinel window mark no instruction counter ever reaches; comparing
#: against it is the entire cost of disabled interval telemetry.
_NEVER = float("inf")


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Knobs of the standard simulator.

    Attributes
    ----------
    warmup_instructions:
        Mispredictions of branches within the first ``n`` instructions are
        not counted (the predictor still predicts/trains/tracks).
    max_instructions:
        Stop the simulation once this many instructions have executed
        (``None`` = run the whole trace).  The output's
        ``exhausted_trace`` flag records whether the trace ran out first.
    track_only_conditional:
        When true, ``track`` is only called for conditional branches —
        the option surfaced in the Listing-1 metadata.
    collect_most_failed:
        Per-branch statistics cost memory and time; disable them for pure
        speed measurements (the Table III benchmarks keep them on, as
        MBPlib's standard simulator always collects them).
    """

    warmup_instructions: int = 0
    max_instructions: int | None = None
    track_only_conditional: bool = False
    collect_most_failed: bool = True

    def __post_init__(self) -> None:
        if self.warmup_instructions < 0:
            raise SimulationError("warmup_instructions must be non-negative")
        if self.max_instructions is not None and self.max_instructions < 0:
            raise SimulationError("max_instructions must be non-negative")


def _resolve_trace(trace: TraceLike) -> tuple[TraceData, str]:
    """Accept in-memory data or a path; return (data, display name).
    A path is decoded through :data:`~repro.sbbt.store.STORE`, which
    keeps the last decoded trace."""
    if isinstance(trace, TraceData):
        return trace, "<memory>"
    return STORE.load(trace), str(trace)


def simulate(predictor: Predictor, trace: TraceLike,
             config: SimulationConfig | None = None, *,
             trace_name: str | None = None,
             engine: str = "scalar",
             tracer: "Tracer | None" = None,
             telemetry: "IntervalRecorder | None" = None,
             probe: "PredictionProbe | None" = None
             ) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return the full result object.

    This is the library's main entry point — the user code calls it (the
    library never owns ``main``), which is the design inversion the paper
    argues for against framework-style simulators.

    ``engine`` selects the evaluation strategy: ``"scalar"`` (default)
    is the per-branch predict/train/track loop below; ``"vectorized"``
    evaluates the predictor's vector kernel
    (:func:`repro.core.vectorized.simulate_vectorized`, bit-identical
    results, raising
    :class:`~repro.core.errors.EngineNotSupportedError` when
    ``predictor.vector_kernel()`` is ``None``); ``"auto"`` uses the
    vectorized engine when a kernel exists and this loop otherwise.
    A run with a ``probe`` always takes this loop: the predictor's own
    hooks are what fill the probe, and kernels compute results only.

    ``tracer`` (a :class:`~repro.tracing.SpanRecorder`; the run's
    "trace_read", "simulate_loop" and "finalize" spans nest under its
    ``root``), ``telemetry`` (an
    :class:`~repro.telemetry.interval.IntervalRecorder`) and ``probe``
    (a :class:`~repro.probe.PredictionProbe` attached to the predictor
    for the run, with its report landing in the result's non-serialized
    ``probe_report`` field) are optional observability hooks.  None of
    them changes the metrics: a run with hooks produces the same
    :class:`SimulationResult` as one without.
    """
    if engine not in ("scalar", "vectorized", "auto"):
        raise SimulationError(
            f"unknown engine {engine!r}; expected 'scalar', 'vectorized' "
            "or 'auto'")
    if engine != "scalar":
        if predictor.vector_kernel() is not None:
            if probe is None:
                from .vectorized import simulate_vectorized

                return simulate_vectorized(
                    predictor, trace, config, trace_name=trace_name,
                    tracer=tracer, telemetry=telemetry)
        elif engine == "vectorized":
            from .errors import EngineNotSupportedError

            raise EngineNotSupportedError(
                f"predictor {predictor.name()!r} does not provide a "
                "vector kernel; run it with --engine scalar (or auto to "
                "fall back automatically)")
    config = config or SimulationConfig()

    read_start = time.perf_counter() if tracer is not None else 0.0
    data, default_name = _resolve_trace(trace)
    if tracer is not None:
        tracer.add_span("trace_read", time.perf_counter() - read_start)
    name = trace_name if trace_name is not None else default_name

    start = time.perf_counter()

    warmup = config.warmup_instructions
    limit = config.max_instructions
    track_all = not config.track_only_conditional
    collect = config.collect_most_failed

    predict = predictor.predict
    train = predictor.train
    track = predictor.track

    if probe is not None:
        predictor.attach_probe(probe)
        probe.start(warmup_active=warmup > 0)
    probe_branch = probe.record_branch if probe is not None else None

    recorder = telemetry
    if recorder is not None:
        recorder.start(warmup)
        mark_step = recorder.interval
        next_mark: float = mark_step
    else:
        next_mark = _NEVER

    instructions = 0
    branch_instructions = 0
    conditional_branches = 0
    mispredictions = 0
    exhausted = True
    warmup_pending = warmup > 0
    # ip -> [occurrences, mispredictions]; plain lists keep the hot loop
    # free of method-call overhead, wrapped into BranchStats at the end.
    per_branch: dict[int, list[int]] = {}
    per_branch_get = per_branch.get

    for branch, gap in data.iter_branches():
        instructions += gap + 1
        if limit is not None and instructions > limit:
            instructions -= gap + 1
            exhausted = False
            break
        branch_instructions += 1
        if warmup_pending and instructions > warmup:
            warmup_pending = False
            predictor.on_warmup_end()
            if probe is not None:
                probe.arm()
        ip, _target, opcode, taken = branch
        if opcode & 1:  # conditional (opcode bit 0)
            prediction = predict(ip)
            mispredicted = prediction != taken
            if instructions > warmup:
                conditional_branches += 1
                if mispredicted:
                    mispredictions += 1
                if collect:
                    cell = per_branch_get(ip)
                    if cell is None:
                        per_branch[ip] = [1, 1 if mispredicted else 0]
                    else:
                        cell[0] += 1
                        if mispredicted:
                            cell[1] += 1
                if probe_branch is not None:
                    probe_branch(ip, taken, mispredicted)
            train(branch)
            track(branch)
        elif track_all:
            track(branch)
        if instructions >= next_mark:
            recorder.record(instructions, conditional_branches,
                            mispredictions)
            # A single large gap may cross several window marks; one
            # record covers them all and sampling realigns to the grid.
            next_mark = (instructions // mark_step + 1) * mark_step

    if exhausted and data.num_instructions > instructions:
        # Non-branch instructions after the last branch still count.
        trailing = data.num_instructions - instructions
        if limit is not None and instructions + trailing > limit:
            instructions = limit
            exhausted = False
        else:
            instructions += trailing

    elapsed = time.perf_counter() - start

    if recorder is not None:
        recorder.finish(instructions, conditional_branches, mispredictions)

    final_start = time.perf_counter() if tracer is not None else 0.0
    probe_report = None
    if probe is not None:
        probe.finish(predictor)
        probe_report = probe.report()
        predictor.attach_probe(None)
    measured_instructions = max(0, instructions - warmup)
    most_failed = (
        most_failed_branches(
            {ip: BranchStats(cell[0], cell[1])
             for ip, cell in per_branch.items()},
            mispredictions, measured_instructions,
        )
        if collect else []
    )
    if tracer is not None:
        end = time.perf_counter()
        tracer.add_span("simulate_loop", elapsed,
                        start=time.time() - (end - start))
        tracer.add_span("finalize", end - final_start)
    return SimulationResult(
        trace_name=name,
        warmup_instructions=warmup,
        simulation_instructions=measured_instructions,
        exhausted_trace=exhausted,
        num_branch_instructions=branch_instructions,
        num_conditional_branches=conditional_branches,
        mispredictions=mispredictions,
        simulation_time=elapsed,
        predictor_metadata=predictor.metadata_stats(),
        predictor_statistics=predictor.execution_stats(),
        most_failed=most_failed,
        probe_report=probe_report,
    )


def simulate_file(predictor: Predictor, path: str | Path,
                  config: SimulationConfig | None = None) -> SimulationResult:
    """Convenience wrapper: simulate the SBBT trace stored at ``path``."""
    return simulate(predictor, Path(path), config)
