"""ChampSim-style cycle-level baseline (per-instruction traces, O3 core)."""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".btb": ("Btb", "ReturnAddressStack"),
    ".cache": ("Cache", "MemoryHierarchy"),
    ".core": ("CoreConfig", "CoreStats", "O3Core"),
    ".indirect": ("GshareIndirect", "IttageLite"),
    ".simulator": ("ChampsimResult", "run_champsim"),
    ".trace": ("INSTRUCTION_RECORD_SIZE", "InstructionTrace",
               "instruction_trace_from_branches", "read_instruction_trace",
               "write_instruction_trace"),
})

__all__ = [
    "Btb", "ReturnAddressStack",
    "Cache", "MemoryHierarchy",
    "CoreConfig", "CoreStats", "O3Core",
    "GshareIndirect", "IttageLite",
    "ChampsimResult", "run_champsim",
    "INSTRUCTION_RECORD_SIZE", "InstructionTrace",
    "instruction_trace_from_branches", "read_instruction_trace",
    "write_instruction_trace",
]
