"""Run manifests: a provenance record for every benchmark number.

The paper's evaluation (Tables I–IV, Section VII-C) hinges on knowing
*exactly* what produced each number: which trace bytes, which predictor
configuration, which simulator version, in how much time.  A
:class:`RunManifest` captures that for one simulation — trace name and
content digest, the predictor's canonical ``spec()``, every
``SimulationConfig`` field, simulator identity and library version,
metrics, phase timings, and whether the result came from the
:mod:`repro.cache` — as a JSON document that round-trips exactly.

Manifests are deliberately separate from the Listing-1 result JSON:
the result schema reproduces the paper and feeds the content-addressed
cache, while the manifest wraps it with reproduction provenance.

>>> from repro.core.output import SimulationResult
>>> result = SimulationResult(
...     trace_name="t", warmup_instructions=0,
...     simulation_instructions=1000, exhausted_trace=True,
...     num_branch_instructions=100, num_conditional_branches=80,
...     mispredictions=8, simulation_time=0.5,
...     predictor_metadata={"name": "GShare"})
>>> manifest = build_manifest(result, created="2026-01-01T00:00:00+00:00",
...                           environment={})
>>> RunManifest.from_json(manifest.to_json()) == manifest
True
>>> manifest.metrics["mispredictions"]
8
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from ..core.errors import TelemetryError
from ..core.output import SimulationResult
from ..core.predictor import Predictor, canonical_spec
from ..core.simulator import SimulationConfig

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "build_manifest",
    "suite_manifest",
]

#: Version of the manifest JSON layout.
MANIFEST_SCHEMA = 1

#: ``kind`` tag distinguishing manifests from other JSON artifacts.
MANIFEST_KIND = "repro-run-manifest"

__all__.append("MANIFEST_KIND")


def collect_environment() -> dict[str, Any]:
    """The environment fields stamped into manifests by default."""
    env: dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
    }
    try:
        import numpy
        env["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    return env


__all__.append("collect_environment")


@dataclass(slots=True)
class RunManifest:
    """Provenance record of one simulation (see module docstring).

    ``trace_digest``, ``config`` and ``phases`` are optional — a
    manifest built from a bare :class:`SimulationResult` records what it
    can and leaves the rest ``None`` rather than guessing.
    """

    trace_name: str
    trace_digest: str | None
    predictor: dict[str, Any]
    config: dict[str, Any] | None
    simulator: dict[str, str]
    library_version: str
    metrics: dict[str, Any]
    timing: dict[str, Any]
    cache: dict[str, Any]
    environment: dict[str, Any] = field(default_factory=dict)
    created: str | None = None
    probe: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        """The manifest JSON document (schema in ``docs/telemetry.md``).

        The ``probe`` key is present only when a probe report was
        attached — probe-less manifests serialize exactly as before the
        key existed.
        """
        document = {
            "schema": MANIFEST_SCHEMA,
            "kind": MANIFEST_KIND,
            "created": self.created,
            "trace": {"name": self.trace_name, "digest": self.trace_digest},
            "predictor": self.predictor,
            "config": self.config,
            "simulator": self.simulator,
            "library_version": self.library_version,
            "metrics": self.metrics,
            "timing": self.timing,
            "cache": self.cache,
            "environment": self.environment,
        }
        if self.probe is not None:
            document["probe"] = self.probe
        return document

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_json`; raises ``TelemetryError`` on junk."""
        try:
            if data.get("kind") != MANIFEST_KIND:
                raise TelemetryError(
                    f"not a run manifest (kind={data.get('kind')!r})")
            if data["schema"] != MANIFEST_SCHEMA:
                raise TelemetryError(
                    f"unsupported manifest schema {data['schema']!r}")
            trace = data["trace"]
            return cls(
                trace_name=str(trace["name"]),
                trace_digest=(None if trace.get("digest") is None
                              else str(trace["digest"])),
                predictor=dict(data["predictor"]),
                config=(None if data.get("config") is None
                        else dict(data["config"])),
                simulator=dict(data["simulator"]),
                library_version=str(data["library_version"]),
                metrics=dict(data["metrics"]),
                timing=dict(data["timing"]),
                cache=dict(data["cache"]),
                environment=dict(data.get("environment") or {}),
                created=(None if data.get("created") is None
                         else str(data["created"])),
                probe=(None if data.get("probe") is None
                       else dict(data["probe"])),
            )
        except TelemetryError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed manifest: {exc!r}") from exc

    def to_json_string(self, *, indent: int | None = 2) -> str:
        """:meth:`to_json` serialized to text."""
        return json.dumps(self.to_json(), indent=indent)

    def write(self, path: str | Path) -> Path:
        """Write the manifest JSON to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_json_string() + "\n")
        return path


def _default_created() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _predictor_spec(result: SimulationResult,
                    predictor: Predictor | dict[str, Any] | None
                    ) -> dict[str, Any]:
    """Best canonical identity available for the manifest."""
    if isinstance(predictor, Predictor):
        return predictor.spec()
    if predictor is not None:
        return canonical_spec(predictor)
    try:
        return canonical_spec(result.predictor_metadata)
    except TypeError:
        # Metadata with no canonical form (adaptive state, exotic types):
        # record at least the name rather than failing the manifest.
        return {"name": str(result.predictor_metadata.get("name", "?"))}


def build_manifest(result: SimulationResult, *,
                   trace: Any = None,
                   predictor: Predictor | dict[str, Any] | None = None,
                   config: SimulationConfig | None = None,
                   phases: dict[str, float] | None = None,
                   counters: dict[str, int] | None = None,
                   cache_used: bool = False,
                   environment: dict[str, Any] | None = None,
                   created: str | None = None,
                   probe: dict[str, Any] | None = None) -> RunManifest:
    """Assemble the provenance manifest for one simulation result.

    Parameters
    ----------
    result:
        The finished :class:`SimulationResult`.
    trace:
        The simulated trace (``TraceData`` or path) — when given, its
        content digest (:func:`repro.sbbt.digest.trace_digest`) is
        recorded so the manifest pins *which bytes* were simulated.
    predictor:
        The predictor instance or its ``spec()`` dict; defaults to a
        canonicalization of the result's metadata.
    config:
        The :class:`SimulationConfig` of the run (recorded field by
        field; ``None`` records ``null``).
    phases, counters:
        Phase timings / event counts from a
        :class:`~repro.telemetry.instrumentation.PhaseTimers`, usually
        folded from the run's spans
        (:meth:`~repro.telemetry.instrumentation.PhaseTimers.from_spans`).
    cache_used:
        Whether a :mod:`repro.cache` was consulted for this run;
        combined with ``result.from_cache`` into the ``cache`` section.
    environment:
        Override for the environment section (pass ``{}`` for a
        machine-independent manifest); defaults to
        :func:`collect_environment`.
    created:
        ISO-8601 creation timestamp; defaults to now (UTC).  This is
        provenance metadata, not a duration — durations in ``timing``
        all come from monotonic ``time.perf_counter`` measurements.
    probe:
        A :mod:`repro.probe` report dict; defaults to the report
        attached to ``result`` (if the run carried a
        :class:`~repro.probe.PredictionProbe`).  ``None`` (the usual
        case) omits the section entirely.
    """
    from .. import __version__

    digest: str | None = None
    if trace is not None:
        from ..sbbt.digest import trace_digest
        digest = trace_digest(trace)

    if probe is None:
        probe = getattr(result, "probe_report", None)

    timing: dict[str, Any] = {"simulation_time": result.simulation_time}
    if phases is not None:
        timing["phases"] = dict(phases)
    if counters is not None:
        timing["counters"] = dict(counters)

    return RunManifest(
        trace_name=result.trace_name,
        trace_digest=digest,
        predictor=_predictor_spec(result, predictor),
        config=None if config is None else canonical_spec(asdict(config)),
        simulator={"name": result.simulator_name,
                   "version": _simulator_version()},
        library_version=__version__,
        metrics={
            "mpki": result.mpki,
            "accuracy": result.accuracy,
            "mispredictions": result.mispredictions,
            "num_conditional_branches": result.num_conditional_branches,
            "num_branch_instructions": result.num_branch_instructions,
            "simulation_instructions": result.simulation_instructions,
            "warmup_instructions": result.warmup_instructions,
            "exhausted_trace": result.exhausted_trace,
        },
        timing=timing,
        cache={"used": cache_used, "hit": result.from_cache},
        environment=(collect_environment() if environment is None
                     else dict(environment)),
        created=_default_created() if created is None else created,
        probe=probe,
    )


def _simulator_version() -> str:
    from ..core.output import SIMULATOR_VERSION
    return SIMULATOR_VERSION


def suite_manifest(batch: Any, *,
                   environment: dict[str, Any] | None = None,
                   created: str | None = None,
                   **kwargs: Any) -> dict[str, Any]:
    """Manifest document for a whole suite run (``run_suite`` output).

    ``batch`` is a :class:`~repro.core.batch.BatchResult`; per-trace
    manifests are built with :func:`build_manifest` (forwarding
    ``kwargs`` such as ``predictor=`` and ``config=``) and wrapped with
    the suite-level aggregates the paper reports in Table III —
    slowest / average / fastest simulation time — plus cache and
    failure accounting.
    """
    env = collect_environment() if environment is None else dict(environment)
    stamp = _default_created() if created is None else created
    runs = [
        build_manifest(result, environment={}, created=stamp, **kwargs)
        for result in batch.results
    ]
    document: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": "repro-suite-manifest",
        "created": stamp,
        "environment": env,
        "num_traces": len(batch.results) + len(batch.failures),
        "cache_hits": batch.cache_hits,
        "failures": [
            {"trace": f.trace_name, "error": f.error}
            for f in batch.failures
        ],
        "runs": [m.to_json() for m in runs],
    }
    if batch.results:
        timing = batch.timing
        document["aggregate"] = {
            "mean_mpki": batch.mean_mpki(),
            "aggregate_mpki": batch.aggregate_mpki(),
            "total_mispredictions": batch.total_mispredictions,
            "total_instructions": batch.total_instructions,
            "timing": {
                "slowest": timing.slowest,
                "average": timing.average,
                "fastest": timing.fastest,
                "total": timing.total,
            },
        }
    return document
