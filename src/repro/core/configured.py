"""Configured predictor factories: each configuration derived once.

Every front door names a predictor configuration as a factory plus
constructor parameters: the registry (``predictor_factory("gshare",
{"history_length": 12})``), the sweeps and searches of
:mod:`repro.analysis`, and the serve daemon's requests.  The pipeline
reads several things off such a configuration without simulating it:
the canonical spec and cache key, the vector kernel, and the untrained
``metadata_stats()`` / ``execution_stats()``.  A
:class:`ConfiguredFactory` builds **one** cold instance the first time
any of them is asked for, keeps them as a :class:`Derivation`, and drops
the instance with its tables.

Equal ``(factory, canonical parameters)`` intern to one object
(:func:`configure`), and a configured factory pickles as that pair and
unpickles through the same table, so repeated plans, serve requests and
engine workers all reuse one derivation per configuration.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Any, Callable

from .predictor import canonical_spec, derive_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .predictor import Predictor
    from .simulator import SimulationConfig

__all__ = ["ColdHandOff", "ConfiguredFactory", "Derivation", "KeyedSpec",
           "configure", "simulation_source", "INTERN_LIMIT"]

#: Configurations the intern table holds; it is cleared when full, so a
#: long-lived process (serve, an engine worker) stays bounded.
INTERN_LIMIT = 4096

#: Key prefixes one derivation keeps (one per distinct SimulationConfig).
_PREFIX_LIMIT = 64

_interned: dict[tuple[Any, str], "ConfiguredFactory"] = {}
_intern_lock = threading.Lock()


def fresh_copy(value: Any) -> Any:
    """A copy of a JSON-like value that shares no dict or list with it."""
    if isinstance(value, dict):
        return {key: fresh_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [fresh_copy(item) for item in value]
    return value


class KeyedSpec:
    """A canonical spec and the cache key prefixes encoded from it.

    The key material of :meth:`repro.cache.SimulationCache.make_key` is
    fixed up to the trace digest, so it is encoded once per
    :class:`~repro.core.simulator.SimulationConfig` and each key costs
    one SHA-256 (see ``docs/caching.md``).
    """

    __slots__ = ("spec", "_prefixes")

    def __init__(self, spec: dict[str, Any]):
        self.spec = spec
        #: SimulationConfig -> SHA-256 state after its key prefix.
        self._prefixes: dict[SimulationConfig, Any] = {}

    def cache_key(self, trace_digest_hex: str,
                  config: "SimulationConfig") -> str:
        """``SimulationCache.make_key(trace_digest_hex, spec, config)``
        for a hex digest."""
        prefixed = self._prefixes.get(config)
        if prefixed is None:
            import hashlib

            from ..cache import key_prefix

            if len(self._prefixes) >= _PREFIX_LIMIT:
                self._prefixes.clear()
            prefixed = self._prefixes[config] = hashlib.sha256(
                key_prefix(self.spec, config))
        state = prefixed.copy()
        state.update(trace_digest_hex.encode() + b'"}')
        return state.hexdigest()


class Derivation(KeyedSpec):
    """What the pipeline reads off one configuration without simulating.

    Built from one cold instance, which it does not keep: the canonical
    spec with its key prefixes, the ``kernel`` (``None`` when the
    predictor has none), and the untrained ``metadata_stats()`` /
    ``execution_stats()``.  It answers those two
    and ``vector_kernel()`` like the instance would, so the vectorized
    engine runs from it directly.
    """

    __slots__ = ("kernel", "metadata", "execution")

    def __init__(self, predictor: "Predictor"):
        super().__init__(predictor.spec())
        self.kernel = predictor.vector_kernel()
        self.metadata: dict[str, Any] = predictor.metadata_stats()
        self.execution: dict[str, Any] = predictor.execution_stats()

    def vector_kernel(self) -> Any:
        """The configuration's kernel (shared: kernels keep no run state)."""
        return self.kernel

    def metadata_stats(self) -> dict[str, Any]:
        """A fresh copy of the untrained ``metadata_stats()``."""
        return fresh_copy(self.metadata)

    def execution_stats(self) -> dict[str, Any]:
        """A fresh copy of the untrained ``execution_stats()``."""
        return fresh_copy(self.execution)


class ConfiguredFactory:
    """A picklable zero-argument factory for ``factory(**params)`` that
    derives its configuration once (see :class:`Derivation`).

    Calling it builds a fresh predictor, like ``functools.partial``
    would.  Build one with :func:`configure`, which interns it.  The memo fill is not
    locked: two threads deriving at once both build a cold instance and
    keep equal artifacts.  A configuration whose derivation raises is
    never memoized, so every use raises afresh.  The derivation lives
    as long as the object, so a predictor class changed at run time
    after its first use is not seen.
    """

    __slots__ = ("factory", "params", "_derivation")

    def __init__(self, factory: Callable[..., "Predictor"],
                 params: dict[str, Any] | None = None):
        self.factory = factory
        self.params = dict(params or {})
        self._derivation: Derivation | None = None

    def __call__(self) -> "Predictor":
        return self.factory(**self.params)

    def derivation(self) -> Derivation:
        """The configuration's :class:`Derivation`, built on first use."""
        derived = self._derivation
        if derived is None:
            derived = self._derivation = Derivation(self())
        return derived

    def spec(self) -> dict[str, Any]:
        """The canonical spec: the cheap-spec hook of
        :func:`repro.core.predictor.derive_spec`."""
        return self.derivation().spec

    def __reduce__(self) -> tuple:
        return (configure, (self.factory, self.params))

    def __repr__(self) -> str:
        name = getattr(self.factory, "__qualname__", repr(self.factory))
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({name}({args}))"


class ColdHandOff:
    """A plain user callable, keyed for one plan execution.

    The callable is opaque, so nothing derived from it outlives the
    :func:`~repro.core.plan.execute_plan` call that wrapped it.  Its
    spec comes from :func:`~repro.core.predictor.derive_spec`; the cold
    instance that built it, if any, is handed to the first call instead
    of being built again.  It pickles as the callable itself.
    """

    __slots__ = ("factory", "_keyed", "_cold")

    def __init__(self, factory: Callable[[], "Predictor"]):
        self.factory = factory
        self._keyed: KeyedSpec | None = None
        self._cold: Predictor | None = None

    def __call__(self) -> "Predictor":
        cold = self._cold
        if cold is not None:
            self._cold = None
            return cold
        return self.factory()

    def derivation(self) -> KeyedSpec:
        """The callable's spec and key prefixes, derived on first use."""
        keyed = self._keyed
        if keyed is None:
            spec, self._cold = derive_spec(self.factory)
            keyed = self._keyed = KeyedSpec(spec)
        return keyed

    def __reduce__(self) -> tuple:
        return (_unwrapped, (self.factory,))


def _unwrapped(factory: Any) -> Any:
    return factory


def configure(factory: Callable[..., "Predictor"],
              params: dict[str, Any] | None = None) -> ConfiguredFactory:
    """The interned :class:`ConfiguredFactory` for ``factory(**params)``.

    ``factory`` may itself be a configured factory (a registry
    default, say); its parameters are merged under ``params``.  Equal
    factories with parameters of equal canonical form
    (:func:`~repro.core.predictor.canonical_spec`: tuples and lists,
    IntEnums and ints alike) share one object, held in a table of at
    most :data:`INTERN_LIMIT` entries.  Parameters without a canonical
    form, or an unhashable factory, get an object of their own.
    """
    params = dict(params or {})
    if isinstance(factory, ConfiguredFactory):
        params = {**factory.params, **params}
        factory = factory.factory
    try:
        ident = json.dumps(canonical_spec(params), sort_keys=True,
                           separators=(",", ":")) if params else ""
        key = (factory, ident)
        configured = _interned.get(key)
    except TypeError:  # no canonical form, or an unhashable factory
        return ConfiguredFactory(factory, params)
    if configured is None:
        with _intern_lock:
            configured = _interned.get(key)
            if configured is None:
                if len(_interned) >= INTERN_LIMIT:
                    _interned.clear()
                configured = _interned[key] = ConfiguredFactory(factory,
                                                                params)
    return configured


def simulation_source(factory: Callable[[], "Predictor"],
                      sim_engine: str) -> "Predictor | Derivation":
    """What one unit simulates: the configuration's :class:`Derivation`
    when ``factory`` is configured and the engine will run its kernel,
    else a fresh predictor from ``factory``.

    A derivation that raises sends the unit down the predictor path,
    which meets the same error (a bad configuration) or, when only the
    spec has no canonical form, simulates as it would uncached.
    """
    if sim_engine != "scalar" and isinstance(factory, ConfiguredFactory):
        try:
            derivation = factory.derivation()
        except Exception:  # noqa: BLE001 - the predictor path re-raises it
            derivation = None
        if derivation is not None and derivation.kernel is not None:
            return derivation
    return factory()
