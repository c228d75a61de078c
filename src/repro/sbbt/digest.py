"""Content digests of SBBT traces.

The simulation cache (:mod:`repro.cache`) is content-addressed: a cached
result is keyed by *what was simulated*, not by where the trace file
happens to live.  The canonical identity of a trace is therefore the
SHA-256 of its **uncompressed SBBT payload** (header + packets):

* the same trace stored as ``.sbbt``, ``.sbbt.gz`` or ``.sbbt.xz``
  digests identically (compression is transparent);
* renaming, copying or regenerating a byte-identical trace preserves the
  digest;
* an in-memory :class:`~repro.sbbt.trace.TraceData` digests the same as
  the file it was read from, because SBBT encoding is canonical
  (``decode(encode(t)) == t`` and ``encode(decode(p)) == p``).
"""

from __future__ import annotations

import hashlib
import os
from typing import Union

from .trace import TraceData

__all__ = ["payload_digest", "trace_digest"]

TraceLike = Union[TraceData, str, os.PathLike]

#: Algorithm stamped into cache keys; bump alongside the cache schema if
#: it ever changes.
DIGEST_ALGORITHM = "sha256"

__all__.append("DIGEST_ALGORITHM")


def payload_digest(payload: bytes) -> str:
    """Hex SHA-256 of an uncompressed SBBT byte payload.

    >>> payload_digest(b"")[:8]
    'e3b0c442'
    """
    return hashlib.sha256(payload).hexdigest()


def trace_digest(trace: TraceLike) -> str:
    """Canonical content digest of a trace (path or in-memory data).

    A path's payload is read and checked against its header, not
    decoded, and its digest is kept while the file is unchanged
    (:data:`~repro.sbbt.store.STORE`); an in-memory trace is encoded to
    its canonical payload first.  Both spellings of the same trace
    produce the same digest.
    """
    from .store import STORE

    return STORE.digest(trace)
