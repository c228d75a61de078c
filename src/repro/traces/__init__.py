"""Trace infrastructure: synthetic generation, suites, translation,
inspection.

Stands in for the paper's curated CBP5/DPC3 trace sets (no longer
distributed) and reimplements its BT9/champsimtrace translators.
"""

from .._lazy import lazy_exports

#: The workload category names (the keys of
#: :data:`repro.traces.workloads.PROFILES`, sorted), listed here so that
#: naming a category imports no trace generator.
WORKLOAD_CATEGORIES = ("long_mobile", "long_server", "short_mobile",
                       "short_server", "spec17_like")

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".inspect": ("TraceStatistics", "analyze_trace"),
    ".synth": ("SyntheticProgram", "WorkloadProfile", "generate_trace"),
    ".tracer": ("PythonTracer", "trace_python_function"),
    ".translate": ("TranslationReport", "bt9_to_sbbt", "champsim_to_sbbt",
                   "champsim_trace_to_branches", "sbbt_to_bt9"),
    ".workloads": ("CBP5_EVALUATION_SUITE", "CBP5_TRAINING_SUITE",
                   "DPC3_SUITE", "PROFILES", "SuiteSpec", "generate_suite",
                   "generate_workload", "write_suite"),
})

__all__ = [
    "TraceStatistics", "analyze_trace",
    "SyntheticProgram", "WorkloadProfile", "generate_trace",
    "PythonTracer", "trace_python_function",
    "TranslationReport", "bt9_to_sbbt", "champsim_to_sbbt",
    "champsim_trace_to_branches", "sbbt_to_bt9",
    "CBP5_EVALUATION_SUITE", "CBP5_TRAINING_SUITE", "DPC3_SUITE",
    "PROFILES", "SuiteSpec", "generate_suite", "generate_workload",
    "write_suite",
]
