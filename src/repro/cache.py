"""Content-addressed, on-disk cache of simulation results.

The paper's whole evaluation re-runs the same (predictor configuration,
trace) pairs over and over — Table III repeats every predictor over every
trace, and the Section VI sweeps re-simulate overlapping grids.  Those
simulations are deterministic: the same trace bytes, predictor parameters
and :class:`~repro.core.simulator.SimulationConfig` always produce the
same :class:`~repro.core.output.SimulationResult`.  This module therefore
never simulates the same pair twice: results are stored on disk keyed by
a digest of *what was simulated*.

Key derivation (see ``docs/caching.md`` for the full rules)::

    key = sha256(canonical_json({
        "schema":    SCHEMA_VERSION,
        "simulator": {"name": ..., "version": ...},
        "trace":     sha256(uncompressed SBBT payload),
        "predictor": predictor.spec(),          # name + parameters
        "config":    SimulationConfig fields,
    }))

Safety properties (each covered by tests):

* **atomic writes** — entries are written to a temp file in the cache
  directory and published with ``os.replace``, so concurrent writers
  (two processes filling the same directory) can only race to an
  identical, complete entry;
* **corruption-tolerant reads** — a truncated, garbled or
  wrong-schema entry is a *miss* (and is deleted best-effort), never an
  exception and never a wrong result;
* **LRU size cap** — optional ``max_entries`` / ``max_bytes`` caps are
  enforced by evicting the least-recently-used entries (file mtime,
  refreshed on every hit).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Union

from .core.errors import CacheError
from .core.output import SIMULATOR_NAME, SIMULATOR_VERSION, SimulationResult
from .core.predictor import Predictor, canonical_spec
from .core.simulator import SimulationConfig
from .sbbt.digest import payload_digest, trace_digest
from .sbbt.trace import TraceData

__all__ = [
    "SCHEMA_VERSION",
    "CACHE_DIR_ENV",
    "resolve_cache_dir",
    "CacheStats",
    "VerifyReport",
    "InflightClaim",
    "SimulationCache",
    "key_prefix",
]

TraceLike = Union[TraceData, str, os.PathLike]

#: Environment variable naming a default cache directory.
CACHE_DIR_ENV = "MBP_CACHE_DIR"


def resolve_cache_dir(explicit: str | os.PathLike | None = None, *,
                      default: str | os.PathLike | None = None,
                      environ: dict[str, str] | None = None) -> str | None:
    """The cache directory every entry point agrees on.

    Precedence: an ``explicit`` value (a ``--cache-dir`` flag) wins,
    then the :data:`CACHE_DIR_ENV` environment variable, then
    ``default`` (usually ``None`` = caching off, or a service-private
    directory).  Empty strings at any level mean "unset" — so
    ``MBP_CACHE_DIR=""`` disables the env layer rather than naming the
    current directory.  ``environ`` is injectable for tests.

    Every consumer — ``mbp simulate/suite/sweep``, ``mbp cache``, the
    serve daemon — resolves through this one function, so they cannot
    drift apart on which cache they talk to.
    """
    if explicit is not None and str(explicit):
        return str(explicit)
    env = os.environ if environ is None else environ
    from_env = env.get(CACHE_DIR_ENV, "")
    if from_env:
        return from_env
    if default is not None and str(default):
        return str(default)
    return None

#: Version of the on-disk entry format *and* of the key derivation.
#: Bumping it orphans every existing entry (old entries read as misses
#: and old keys are never looked up again), which is exactly the
#: invalidation rule: never trust an entry written by different code.
SCHEMA_VERSION = 1

_ENTRY_SUFFIX = ".json"

#: Bytes asked of the first read of an entry; entries without a probe
#: report or ``most_failed`` list are a few KiB.
_READ_SIZE = 1 << 16


def _key_material(spec: dict[str, Any], config: SimulationConfig | None,
                  trace_digest_hex: str) -> bytes:
    """The canonical JSON that a cache key is the SHA-256 of."""
    material = {
        "schema": SCHEMA_VERSION,
        "simulator": {
            "name": SIMULATOR_NAME,
            "version": SIMULATOR_VERSION,
        },
        "trace": trace_digest_hex,
        "predictor": canonical_spec(spec),
        "config": canonical_spec(asdict(config or SimulationConfig())),
    }
    return json.dumps(material, sort_keys=True,
                      separators=(",", ":")).encode()


def key_prefix(spec: dict[str, Any],
               config: SimulationConfig | None = None) -> bytes:
    """The key material of ``(spec, config)`` up to the trace digest.

    ``"trace"`` sorts last among the material's keys and a hex digest
    needs no JSON escaping, so ``sha256(prefix + digest + b'"}')`` is
    :meth:`SimulationCache.make_key` for any hex ``digest``.  A
    configuration encodes its prefix once
    (:class:`~repro.core.configured.KeyedSpec`) and each key then costs
    one hash.
    """
    encoded = _key_material(spec, config, "")
    return encoded[:-len(b'"}')]


def _read_entry(fd: int) -> bytes:
    """An entry file's bytes: one ``os.read`` for any entry under
    :data:`_READ_SIZE`, more only for larger ones."""
    raw = os.read(fd, _READ_SIZE)
    if len(raw) < _READ_SIZE:
        return raw
    chunks = [raw]
    while True:
        chunk = os.read(fd, _READ_SIZE)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


@dataclass(slots=True)
class CacheStats:
    """A snapshot of a cache directory plus this handle's session counters.

    ``entries``/``total_bytes`` describe the directory as scanned now;
    ``hits``/``misses``/``stores``/``evictions``/``dropped`` count what
    *this* :class:`SimulationCache` instance did since construction.
    """

    directory: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    stores: int
    evictions: int
    dropped: int

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form for the CLI's JSON output."""
        return asdict(self)


@dataclass(slots=True)
class VerifyReport:
    """Outcome of :meth:`SimulationCache.verify`."""

    valid: int
    invalid: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every entry decoded and round-tripped."""
        return not self.invalid


@dataclass(slots=True, eq=False)
class InflightClaim:
    """One key some caller is computing right now (see
    :meth:`SimulationCache.claim`).

    ``leader`` is whatever the claimant passed in — the plan's trace
    context, so a waiter's span can link to the work it shared.
    ``outcome`` is the result the claimant released with, or ``None``
    when it released without one (its simulation failed).
    """

    leader: Any = None
    outcome: SimulationResult | None = None
    released: bool = False
    #: Created by the first waiter only: most claims are never waited on.
    waiter: threading.Event | None = None


class SimulationCache:
    """A content-addressed store of :class:`SimulationResult` objects.

    Parameters
    ----------
    directory:
        Cache root; created (with parents) if missing.  Entries are flat
        ``<key>.json`` files, so a cache directory is portable and
        mergeable with ``cp``.
    max_entries, max_bytes:
        Optional LRU caps, enforced after every store.  ``None`` means
        unbounded.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 max_entries: int | None = None,
                 max_bytes: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise CacheError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(
                f"cannot create cache directory {self.directory}: {exc}"
            ) from exc
        if not self.directory.is_dir():
            raise CacheError(f"{self.directory} is not a directory")
        self._root = os.path.join(self.directory, "")
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.dropped = 0
        #: key -> the claim of the caller computing it (in-flight table).
        self._claims: dict[str, InflightClaim] = {}
        self._claims_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Key derivation.
    # ------------------------------------------------------------------

    @staticmethod
    def make_key(trace_digest_hex: str, spec: dict[str, Any],
                 config: SimulationConfig | None = None) -> str:
        """Derive the content-addressed key for one simulation.

        ``spec`` is a predictor's :meth:`~repro.core.predictor.Predictor.spec`
        dict (it is re-canonicalized here, so hand-built dicts are fine).
        The pipeline keys through :func:`key_prefix` instead, which
        gives the same key for a hex digest.
        """
        return payload_digest(_key_material(spec, config, trace_digest_hex))

    def key_for(self, trace: TraceLike,
                predictor: Predictor | dict[str, Any],
                config: SimulationConfig | None = None) -> str:
        """Key for simulating ``predictor`` (or a spec dict) over ``trace``."""
        spec = predictor.spec() if isinstance(predictor, Predictor) else predictor
        return self.make_key(trace_digest(trace), spec, config)

    def _entry_path(self, key: str) -> str:
        return f"{self._root}{key}{_ENTRY_SUFFIX}"

    # ------------------------------------------------------------------
    # Store / lookup.
    # ------------------------------------------------------------------

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on a miss.

        Any defect in the entry file — unreadable, truncated, garbled
        JSON, wrong schema version, wrong embedded key, non-round-
        tripping result — degrades to a miss; the bad file is deleted
        best-effort so it cannot shadow a future store.
        """
        path = self._entry_path(key)
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                raw = _read_entry(fd)
                try:  # refresh LRU recency
                    os.utime(fd)
                except (OSError, NotImplementedError):
                    pass
            finally:
                os.close(fd)
        except OSError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry["schema"] != SCHEMA_VERSION:
                raise ValueError(f"schema {entry['schema']!r}")
            if entry["key"] != key:
                raise ValueError("embedded key mismatch")
            result = SimulationResult.from_json(entry["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            if self._drop(path):
                self.dropped += 1
            self.misses += 1
            return None
        self.hits += 1
        result.from_cache = True
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Atomically store ``result`` under ``key`` and enforce the caps."""
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "result": result.to_json(),
        }
        payload = json.dumps(entry, separators=(",", ":")).encode()
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=_ENTRY_SUFFIX, dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(payload)
            os.replace(tmp_name, self._entry_path(key))
        except OSError:
            self._drop(tmp_name)
            raise
        self.stores += 1
        if self.max_entries is not None or self.max_bytes is not None:
            self.prune()

    # ------------------------------------------------------------------
    # In-flight claims: one computation per key across concurrent callers.
    # ------------------------------------------------------------------

    def claim(self, key: str, leader: Any = None) -> InflightClaim | None:
        """Claim the computation of ``key`` on this handle.

        Returns ``None`` when the caller now holds the claim: it reads
        the cache, simulates on a miss and must :meth:`release` the key
        (in a ``finally``).  Otherwise returns the holder's claim, which
        the caller may :meth:`wait_claim` on — but only once it holds no
        claims of its own, or two callers waiting on each other's keys
        would deadlock.
        """
        with self._claims_lock:
            held = self._claims.get(key)
            if held is None:
                self._claims[key] = InflightClaim(leader)
            return held

    def release(self, key: str,
                outcome: SimulationResult | None = None) -> None:
        """Release a claim from :meth:`claim`, handing ``outcome`` (or
        ``None``: nothing to share) to every waiter."""
        with self._claims_lock:
            claim = self._claims.pop(key)
            claim.outcome = outcome
            claim.released = True
            waiter = claim.waiter
        if waiter is not None:
            waiter.set()

    def wait_claim(self, claim: InflightClaim) -> SimulationResult | None:
        """Block until ``claim`` is released; return its outcome."""
        with self._claims_lock:
            if not claim.released and claim.waiter is None:
                claim.waiter = threading.Event()
            waiter = None if claim.released else claim.waiter
        if waiter is not None:
            waiter.wait()
        return claim.outcome

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        """Entry files with stats; files vanishing mid-scan are skipped."""
        found = []
        try:
            listing = list(self.directory.iterdir())
        except OSError:
            return []
        for path in listing:
            name = path.name
            if not name.endswith(_ENTRY_SUFFIX) or name.startswith("."):
                continue
            try:
                found.append((path, path.stat()))
            except OSError:
                continue
        return found

    def __len__(self) -> int:
        return len(self._entries())

    def stats(self) -> CacheStats:
        """Scan the directory and snapshot counts and sizes."""
        entries = self._entries()
        return CacheStats(
            directory=str(self.directory),
            entries=len(entries),
            total_bytes=sum(stat.st_size for _, stat in entries),
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
            dropped=self.dropped,
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path, _ in self._entries():
            if self._drop(path):
                removed += 1
        return removed

    def verify(self, *, delete: bool = False) -> VerifyReport:
        """Decode every entry and report (optionally delete) bad ones."""
        report = VerifyReport(valid=0)
        for path, _ in self._entries():
            problem = self._check_entry(path)
            if problem is None:
                report.valid += 1
                continue
            report.invalid.append((path.name, problem))
            if delete:
                self._drop(path)
        return report

    def prune(self) -> int:
        """Evict least-recently-used entries until both caps hold."""
        entries = self._entries()
        entries.sort(key=lambda item: item[1].st_mtime)  # oldest first
        count = len(entries)
        total = sum(stat.st_size for _, stat in entries)
        evicted = 0
        for path, stat in entries:
            over_entries = (self.max_entries is not None
                            and count > self.max_entries)
            over_bytes = (self.max_bytes is not None
                          and total > self.max_bytes)
            if not over_entries and not over_bytes:
                break
            if self._drop(path):
                evicted += 1
                self.evictions += 1
            count -= 1
            total -= stat.st_size
        return evicted

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _check_entry(self, path: Path) -> str | None:
        """None if the entry is sound, else a human-readable problem."""
        try:
            entry = json.loads(path.read_bytes())
        except OSError as exc:
            return f"unreadable: {exc}"
        except ValueError:
            return "not valid JSON"
        if not isinstance(entry, dict):
            return "entry is not a JSON object"
        if entry.get("schema") != SCHEMA_VERSION:
            return f"schema version {entry.get('schema')!r} != {SCHEMA_VERSION}"
        if entry.get("key") != path.name[:-len(_ENTRY_SUFFIX)]:
            return "embedded key does not match file name"
        try:
            result = SimulationResult.from_json(entry["result"])
            if result.to_json() != entry["result"]:
                return "result does not round-trip"
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"result not decodable: {exc!r}"
        return None

    def _drop(self, path: str | os.PathLike) -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    def __repr__(self) -> str:
        return (f"SimulationCache({str(self.directory)!r}, "
                f"entries={len(self)})")
