"""repro — a Python reproduction of *MBPlib: Modular Branch Prediction
Library* (Domínguez-Sánchez & Ros, ISPASS 2023).

Like MBPlib, this package is a software suite of three libraries that can
be used independently (paper Section III):

* :mod:`repro.core` + :mod:`repro.sbbt` — the **simulation library**:
  trace reader/writer for the SBBT binary format and the standard,
  comparison and batch simulators.
* :mod:`repro.utils` — the **utilities library**: saturating counters,
  history registers, folded histories, hashing and table structures.
* :mod:`repro.predictors` — the **examples library**: the paper's
  Table II collection, from bimodal to TAGE and BATAGE.

On top of those, this reproduction also ships the two comparator systems
the paper evaluates against (:mod:`repro.baselines` — a CBP5-framework
style simulator and a ChampSim-style cycle-level simulator), a synthetic
trace generator (:mod:`repro.traces`, standing in for the unavailable
CBP5/DPC3 trace sets), and analysis helpers (:mod:`repro.analysis`).

Quickstart::

    from repro import GShare, simulate
    from repro.traces import generate_workload

    trace = generate_workload("short_server", seed=1)
    result = simulate(GShare(history_length=15, log_table_size=17), trace)
    print(result.to_json_string())
"""

from . import predictors
from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".core": ("Branch", "BranchType", "ComparisonResult", "ExecutionEngine",
              "Opcode", "Predictor", "SimulationConfig", "SimulationResult",
              "WorkPlan", "WorkUnit", "compare", "execute_plan", "run_suite",
              "simulate", "simulate_file"),
    ".sbbt": ("SbbtReader", "SbbtWriter", "TraceData", "read_trace",
              "trace_digest", "write_trace"),
    ".cache": ("SimulationCache",),
    ".telemetry": ("IntervalRecorder", "IntervalSeries", "PhaseTimers",
                   "RunManifest", "build_manifest", "suite_manifest"),
    # The examples library, also reachable from the package root
    # (``from repro import GShare``) but not part of ``__all__``.
    ".predictors": tuple(predictors.__all__),
})

__all__ = [
    "Branch", "BranchType", "ComparisonResult", "Opcode", "Predictor",
    "SimulationConfig", "SimulationResult", "compare", "run_suite",
    "ExecutionEngine", "WorkPlan", "WorkUnit", "execute_plan",
    "simulate", "simulate_file",
    "SbbtReader", "SbbtWriter", "TraceData", "read_trace", "write_trace",
    "SimulationCache", "trace_digest",
    "IntervalRecorder", "IntervalSeries", "PhaseTimers",
    "RunManifest", "build_manifest", "suite_manifest",
    "__version__",
]
