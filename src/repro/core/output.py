"""Simulation results and their JSON representation (paper Section IV-E).

MBPlib returns a JSON object whose schema is shown in the paper's
Listing 1: a ``metadata`` section (simulator, trace, instruction counts
and the predictor's self-description), a ``metrics`` section (MPKI,
mispredictions, accuracy, most-failed count, simulation time), a
``predictor_statistics`` section for user counters and a ``most_failed``
list.  :meth:`SimulationResult.to_json` reproduces that schema.

One deliberate fidelity deviation: the paper's listing spells a key
``num_conditonal_branches`` (sic); we emit the corrected
``num_conditional_branches`` (documented in DESIGN.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from .metrics import MostFailedEntry, accuracy, mpki

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.interval import IntervalSeries

__all__ = ["SIMULATOR_NAME", "SIMULATOR_VERSION", "SimulationResult"]

#: Identifies this engine in the output's ``metadata.simulator`` field.
SIMULATOR_NAME = "repro MBPlib-style standard simulator"

#: Library version stamped into results.
SIMULATOR_VERSION = "v1.0.0"


@dataclass(slots=True)
class SimulationResult:
    """Everything a standard simulation produces.

    Attributes mirror the JSON sections; see :meth:`to_json`.
    """

    trace_name: str
    warmup_instructions: int
    simulation_instructions: int
    exhausted_trace: bool
    num_branch_instructions: int
    num_conditional_branches: int
    mispredictions: int
    simulation_time: float
    predictor_metadata: dict[str, Any]
    predictor_statistics: dict[str, Any] = field(default_factory=dict)
    most_failed: list[MostFailedEntry] = field(default_factory=list)
    simulator_name: str = SIMULATOR_NAME
    #: True when this result was served by a :mod:`repro.cache` lookup
    #: instead of a fresh simulation.  Deliberately *not* part of the
    #: JSON schema: a cached result serializes identically to the run
    #: that produced it.
    from_cache: bool = field(default=False, compare=False)
    #: True when this result is a copy of the one another unit computed
    #: (or read) under the same cache key while this unit waited on it
    #: (see :func:`repro.core.plan.execute_plan`).  Never serialized.
    coalesced: bool = field(default=False, compare=False)
    #: Component-attribution report attached by the simulator when a
    #: :class:`repro.probe.PredictionProbe` was passed.  Like
    #: ``from_cache`` this is in-memory provenance only, never
    #: serialized into the Listing-1 JSON, so enabling probes cannot
    #: perturb cache keys or golden outputs.  Run manifests
    #: (:func:`repro.telemetry.build_manifest`) pick it up by default.
    probe_report: dict[str, Any] | None = field(default=None, compare=False)
    #: Interval telemetry series of the run, when its work unit set an
    #: ``interval`` (:class:`repro.core.plan.WorkUnit`).  Handled like
    #: ``probe_report``: never serialized or cached, so a cache hit has
    #: none.
    intervals: IntervalSeries | None = field(default=None, compare=False)

    def __reduce__(self) -> tuple:
        # Rebuilt from positional fields: a third of the cost of the
        # generated slots state, and every engine unit's result crosses
        # a pipe this way.
        return (SimulationResult,
                tuple([getattr(self, name) for name in _FIELDS]))

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction over the measured region."""
        return mpki(self.mispredictions, self.simulation_instructions)

    @property
    def accuracy(self) -> float:
        """Fraction of measured conditional branches predicted correctly."""
        return accuracy(self.mispredictions, self.num_conditional_branches)

    @property
    def num_most_failed_branches(self) -> int:
        """Minimum branches that account for half the mispredictions."""
        return len(self.most_failed)

    def to_json(self) -> dict[str, Any]:
        """Assemble the Listing-1 JSON object."""
        return {
            "metadata": {
                "simulator": self.simulator_name,
                "version": SIMULATOR_VERSION,
                "trace": self.trace_name,
                "warmup_instr": self.warmup_instructions,
                "simulation_instr": self.simulation_instructions,
                "exhausted_trace": self.exhausted_trace,
                "num_conditional_branches": self.num_conditional_branches,
                "num_branch_instructions": self.num_branch_instructions,
                "predictor": self.predictor_metadata,
            },
            "metrics": {
                "mpki": self.mpki,
                "mispredictions": self.mispredictions,
                "accuracy": self.accuracy,
                "num_most_failed_branches": self.num_most_failed_branches,
                "simulation_time": self.simulation_time,
            },
            "predictor_statistics": self.predictor_statistics,
            "most_failed": [
                {
                    "ip": entry.ip,
                    "occurrences": entry.occurrences,
                    "mispredictions": entry.mispredictions,
                    "mpki": entry.mpki,
                    "accuracy": entry.accuracy,
                }
                for entry in self.most_failed
            ],
        }

    def to_json_string(self, *, indent: int | None = 2) -> str:
        """The JSON object serialized to text."""
        return json.dumps(self.to_json(), indent=indent)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from its :meth:`to_json` representation.

        The inverse used by the simulation cache; round-trips exactly:
        ``SimulationResult.from_json(r.to_json()).to_json() == r.to_json()``.
        Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
        input — callers that must never fail (the cache read path) catch
        those and treat the entry as a miss.
        """
        metadata = data["metadata"]
        metrics = data["metrics"]
        return cls(
            trace_name=str(metadata["trace"]),
            warmup_instructions=int(metadata["warmup_instr"]),
            simulation_instructions=int(metadata["simulation_instr"]),
            exhausted_trace=bool(metadata["exhausted_trace"]),
            num_branch_instructions=int(metadata["num_branch_instructions"]),
            num_conditional_branches=int(metadata["num_conditional_branches"]),
            mispredictions=int(metrics["mispredictions"]),
            simulation_time=float(metrics["simulation_time"]),
            predictor_metadata=dict(metadata["predictor"]),
            predictor_statistics=dict(data.get("predictor_statistics", {})),
            most_failed=[
                MostFailedEntry(
                    ip=int(entry["ip"]),
                    occurrences=int(entry["occurrences"]),
                    mispredictions=int(entry["mispredictions"]),
                    mpki=float(entry["mpki"]),
                    accuracy=float(entry["accuracy"]),
                )
                for entry in data.get("most_failed", [])
            ],
            simulator_name=str(metadata["simulator"]),
        )

    def summary(self) -> str:
        """A one-line human summary for interactive use."""
        return (
            f"{self.trace_name}: mpki={self.mpki:.4f} "
            f"acc={self.accuracy:.4%} misp={self.mispredictions} "
            f"({self.predictor_metadata.get('name', '?')}, "
            f"{self.simulation_time:.3f}s)"
        )


#: Field names in constructor order, for :meth:`SimulationResult.__reduce__`.
_FIELDS = tuple(f.name for f in fields(SimulationResult))
