"""The simulation library core (paper Sections III-IV).

Everything needed to run a user-defined branch predictor over a program
trace and obtain a JSON result object: the branch model, the
``predict``/``train``/``track`` predictor interface, the standard and
comparison simulators, batch running, and the metrics/output machinery.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".branch": ("OPCODE_CALL", "OPCODE_COND_JUMP", "OPCODE_IND_CALL",
                "OPCODE_IND_JUMP", "OPCODE_JUMP", "OPCODE_RET",
                "Branch", "BranchType", "Opcode"),
    ".batch": ("BatchResult", "SuiteError", "TimingSummary", "TraceFailure",
               "TraceSimulationError", "run_suite"),
    ".engine": ("EngineStats", "ExecutionEngine", "SharedTrace"),
    ".configured": ("ConfiguredFactory", "Derivation", "configure"),
    ".comparison": ("ComparisonEntry", "ComparisonResult",
                    "MultiComparisonResult", "compare", "compare_many"),
    ".errors": ("CacheError", "ConfigurationError", "ReproError",
                "SimulationError", "TelemetryError", "TraceError",
                "TraceFormatError", "TraceValidationError"),
    ".metrics": ("BranchStats", "MostFailedEntry", "accuracy",
                 "most_failed_branches", "mpki"),
    ".output": ("SIMULATOR_NAME", "SIMULATOR_VERSION", "SimulationResult"),
    ".plan": ("WorkPlan", "WorkUnit", "execute_plan"),
    ".predictor": ("MetadataMixin", "Predictor", "canonical_spec",
                   "derive_spec"),
    ".simulator": ("SimulationConfig", "simulate", "simulate_file"),
})

__all__ = [
    "Branch", "BranchType", "Opcode",
    "OPCODE_CALL", "OPCODE_COND_JUMP", "OPCODE_IND_CALL", "OPCODE_IND_JUMP",
    "OPCODE_JUMP", "OPCODE_RET",
    "BatchResult", "TimingSummary", "TraceFailure", "run_suite",
    "EngineStats", "ExecutionEngine", "SharedTrace",
    "WorkPlan", "WorkUnit", "execute_plan",
    "ConfiguredFactory", "Derivation", "configure",
    "ComparisonEntry", "ComparisonResult", "MultiComparisonResult",
    "compare", "compare_many",
    "CacheError", "ConfigurationError", "ReproError",
    "SimulationError", "SuiteError", "TelemetryError",
    "TraceSimulationError", "TraceError",
    "TraceFormatError", "TraceValidationError",
    "BranchStats", "MostFailedEntry", "accuracy", "most_failed_branches",
    "mpki",
    "SIMULATOR_NAME", "SIMULATOR_VERSION", "SimulationResult",
    "MetadataMixin", "Predictor", "canonical_spec", "derive_spec",
    "SimulationConfig", "simulate", "simulate_file",
]
