"""Exception hierarchy for the repro library.

Everything raised on purpose by this package derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TraceError",
    "TraceFormatError",
    "TraceValidationError",
    "SimulationError",
    "EngineNotSupportedError",
    "CacheError",
    "ConfigurationError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TraceError(ReproError):
    """Base class for trace reading/writing problems."""


class TraceFormatError(TraceError):
    """The byte stream is not a well-formed trace of the expected format."""


class TraceValidationError(TraceError):
    """A structurally well-formed record violates a semantic rule.

    The SBBT specification has two such rules (Section IV-C): unconditional
    branches must be taken, and a not-taken conditional-indirect branch
    must have a null target.
    """


class SimulationError(ReproError):
    """A simulation could not be carried out as requested."""


class EngineNotSupportedError(SimulationError):
    """The vectorized engine was requested for a predictor without a
    vector kernel (``Predictor.vector_kernel()`` returned ``None``).

    Only raised for an *explicit* ``engine="vectorized"`` request; the
    ``"auto"`` engine falls back to the scalar loop instead.
    """


class CacheError(ReproError):
    """The simulation result cache could not honour a request.

    Only raised for *caller* mistakes (bad directory, invalid capacity).
    Corrupted or concurrently-clobbered entries never raise — they are
    treated as misses so a damaged cache can only cost recomputation,
    never return wrong results.
    """


class ConfigurationError(ReproError):
    """A component was configured with inconsistent parameters."""


class TelemetryError(ReproError):
    """The observability layer (:mod:`repro.telemetry`) was misused.

    Only raised for *caller* mistakes (non-positive interval, malformed
    manifest/telemetry documents).  The observability hooks themselves
    never raise from inside a simulation — a simulation that succeeds
    without telemetry also succeeds with it.
    """
