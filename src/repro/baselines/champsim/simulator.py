"""Top-level ChampSim-style runner.

Like the real ChampSim, this entry point owns the run (framework style):
it loads a per-instruction trace, optionally runs a warm-up region, then
simulates and reports IPC and MPKI together — the paper's contrast being
that a cycle-accurate simulator must pay for every instruction even when
the user only wants branch-prediction numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

from ...core.predictor import Predictor
from .core import CoreConfig, CoreStats, O3Core
from .trace import InstructionTrace, read_instruction_trace

__all__ = ["ChampsimResult", "run_champsim"]

TraceLike = Union[InstructionTrace, str, Path]


@dataclass(slots=True)
class ChampsimResult:
    """IPC-and-MPKI report of one cycle-level simulation."""

    trace_name: str
    stats: CoreStats
    predictor_metadata: dict[str, Any]
    simulation_time: float

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.stats.ipc

    @property
    def mpki(self) -> float:
        """Direction mispredictions per kilo-instruction."""
        return self.stats.mpki

    def to_json(self) -> dict[str, Any]:
        """Full report object."""
        return {
            "metadata": {
                "simulator": "repro ChampSim-style cycle simulator",
                "trace": self.trace_name,
                "predictor": self.predictor_metadata,
            },
            "metrics": {
                **self.stats.to_json(),
                "simulation_time": self.simulation_time,
            },
        }

    def summary(self) -> str:
        """One-line report in ChampSim's finished-CPU style."""
        return (
            f"CPU 0 cumulative IPC: {self.ipc:.4f} "
            f"instructions: {self.stats.instructions} "
            f"cycles: {self.stats.cycles} "
            f"MPKI: {self.mpki:.4f} ({self.trace_name})"
        )


def run_champsim(predictor: Predictor, trace: TraceLike,
                 config: CoreConfig | None = None,
                 max_instructions: int | None = None,
                 trace_name: str | None = None) -> ChampsimResult:
    """Simulate ``trace`` on the cycle-level core with ``predictor``.

    The paper's methodology runs "only the first 100 million
    instructions from each trace" because ChampSim is so much slower;
    ``max_instructions`` is that knob.  ``simulation_time`` covers the
    cycle model only, not reading the trace.
    """
    if isinstance(trace, InstructionTrace):
        data, name = trace, trace_name or "<memory>"
    else:
        data = read_instruction_trace(trace)
        name = trace_name or str(trace)
    start = time.perf_counter()
    core = O3Core(predictor, config)
    stats = core.run(data, max_instructions=max_instructions)
    elapsed = time.perf_counter() - start
    return ChampsimResult(
        trace_name=name,
        stats=stats,
        predictor_metadata=predictor.metadata_stats(),
        simulation_time=elapsed,
    )
