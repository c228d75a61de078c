"""A CBP5-style *framework* simulator.

This is the baseline MBPlib defines itself against, rebuilt with the
properties the paper attributes to it:

* **framework, not library** — :func:`cbp5_main` owns the whole run: it
  opens the trace, drives the loop and formats the report; user code only
  supplies the predictor object (the framework calls you);
* **plain-text traces** — every branch goes through the BT9 reader's
  line parser and graph lookups;
* **fused update** — conditional branches reach the predictor through a
  single ``update_predictor`` doing train+track at once.

Because both simulators are deterministic and drive predictors with the
same sequence, results are *identical* to the MBPlib-style simulator's —
the Section VII-C check, enforced by tests and a benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ...core.metrics import accuracy, mpki
from .bt9 import iter_bt9, read_bt9_header
from .interface import Cbp5Predictor, OpType

__all__ = ["Cbp5Result", "Cbp5Framework", "cbp5_main"]


@dataclass(frozen=True, slots=True)
class Cbp5Result:
    """What the championship framework reports per trace."""

    trace: str
    num_instructions: int
    num_branches: int
    num_conditional_branches: int
    mispredictions: int
    simulation_time: float

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction."""
        return mpki(self.mispredictions, self.num_instructions)

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        return accuracy(self.mispredictions, self.num_conditional_branches)

    def report(self) -> str:
        """The championship-style text report."""
        return "\n".join([
            f"  TRACE            \t : {self.trace}",
            f"  NUM_INSTRUCTIONS \t : {self.num_instructions}",
            f"  NUM_BR           \t : {self.num_branches}",
            f"  NUM_CONDITIONAL_BR\t : {self.num_conditional_branches}",
            f"  NUM_MISPREDICTIONS\t : {self.mispredictions}",
            f"  MISPRED_PER_1K_INST\t : {self.mpki:.4f}",
        ])


class Cbp5Framework:
    """The framework object: constructed with a trace, runs a predictor.

    The separation from :func:`cbp5_main` mirrors the original's
    ``main.cc`` vs the simulation loop.
    """

    def __init__(self, trace_path: str | Path):
        self.trace_path = Path(trace_path)

    def run(self, predictor: Cbp5Predictor) -> Cbp5Result:
        """Drive ``predictor`` over the whole trace (framework-style).

        BT9 is a plain-text format parsed line by line, so the measured
        ``simulation_time`` includes the parsing cost the paper's
        Section V attributes to the framework baseline.
        """
        start = time.perf_counter()
        header = read_bt9_header(self.trace_path)
        instructions = 0
        branches = 0
        conditional = 0
        mispredictions = 0
        for branch, gap in iter_bt9(self.trace_path):
            instructions += gap + 1
            branches += 1
            op_type = OpType.from_opcode(branch.opcode)
            if branch.opcode.is_conditional:
                conditional += 1
                prediction = predictor.get_prediction(branch.ip)
                if prediction != branch.taken:
                    mispredictions += 1
                predictor.update_predictor(
                    branch.ip, op_type, branch.taken, prediction,
                    branch.target,
                )
            else:
                predictor.track_other_inst(branch.ip, op_type, branch.target)
        # Trailing non-branch instructions recorded in the header.
        instructions = max(instructions, header.num_instructions)
        elapsed = time.perf_counter() - start
        return Cbp5Result(
            trace=str(self.trace_path),
            num_instructions=instructions,
            num_branches=branches,
            num_conditional_branches=conditional,
            mispredictions=mispredictions,
            simulation_time=elapsed,
        )


def cbp5_main(predictor_factory: Callable[[], Cbp5Predictor],
              trace_paths: list[str | Path],
              emit: Callable[[str], None] | None = None) -> list[Cbp5Result]:
    """The framework's ``main``: it calls *your* code, then prints.

    This is exactly the inversion of control the paper criticizes — the
    entry point belongs to the framework, user code is a plug-in — kept
    here so the repository demonstrates both designs side by side.
    """
    results = []
    for path in trace_paths:
        framework = Cbp5Framework(path)
        result = framework.run(predictor_factory())
        if emit is not None:
            emit(result.report())
        results.append(result)
    return results
