"""The process-wide trace store: one answer to "which trace is this?".

Cache keys, batch groups, the inline simulator and the engine's publish
all take a file's content digest and decode from :data:`STORE`.  A
file's digest is kept across calls under its stat key, so an unchanged
file is not read again, and the payload a digest read is decoded
without a second read (``docs/caching.md``).  Nothing that fails is
kept, and the lock never covers a read, a digest or a decode.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable

from . import reader
from .trace import TraceData

__all__ = ["DIGEST_LIMIT", "PAYLOAD_LIMIT", "STORE", "TraceStore"]

#: Most file digests kept; a full memo is emptied.
DIGEST_LIMIT = 4096

#: Most bytes of payloads kept from their digest to their decode, past
#: the newest one, so a plan's batch grouping reads each file once.
PAYLOAD_LIMIT = 16 << 20


def _stat_key(path: str | os.PathLike) -> tuple | None:
    """The path as given, and the identity and version of its file."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return None  # the read that follows raises the caller's error
    return (os.fspath(path), st.st_dev, st.st_ino, st.st_size,
            st.st_mtime_ns, st.st_ctime_ns)


class TraceStore:
    """Digests of trace files by stat key, the payloads digests read
    until they are loaded, and the last decoded trace."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._digests: dict[tuple, str] = {}
        self._payloads: dict[tuple, bytearray] = {}
        self._loaded: tuple[tuple, TraceData] | None = None

    def digest(self, trace: TraceData | str | os.PathLike) -> str:
        """The content digest of a file, or of an in-memory trace
        (encoded on every call)."""
        from . import digest as sbbt_digest  # hashlib loads only here

        if isinstance(trace, TraceData):
            from .writer import encode_payload

            return sbbt_digest.payload_digest(encode_payload(trace))
        key = _stat_key(trace)
        with self._lock:
            digest = self._digests.get(key)
        if digest is None:
            payload = reader.read_payload(trace)
            digest = sbbt_digest.payload_digest(payload)
            if key is not None:
                with self._lock:
                    if len(self._digests) >= DIGEST_LIMIT:
                        self._digests.clear()
                    self._digests[key] = digest
                    self._payloads[key] = payload
                    while len(self._payloads) > 1 and sum(
                            map(len, self._payloads.values())) > PAYLOAD_LIMIT:
                        del self._payloads[next(iter(self._payloads))]
        return digest

    def digests(self, traces: Iterable) -> list[str | Exception]:
        """:meth:`digest` of each trace, or the exception it raised; an
        in-memory trace object is digested once."""
        seen: dict[int, str] = {}
        out: list[str | Exception] = []
        for trace in traces:
            try:
                digest = seen.get(id(trace)) or self.digest(trace)
                if isinstance(trace, TraceData):
                    seen[id(trace)] = digest
            except Exception as exc:  # noqa: BLE001 - returned per trace
                digest = exc
            out.append(digest)
        return out

    def load(self, trace: TraceData | str | os.PathLike) -> TraceData:
        """The decoded trace (in-memory data as it is).  The last decoded
        trace is dropped before a new one is read; format errors name
        the file, as :func:`~repro.sbbt.reader.read_trace`'s do."""
        if isinstance(trace, TraceData):
            return trace
        key = _stat_key(trace)
        with self._lock:
            if self._loaded is not None and self._loaded[0] == key:
                return self._loaded[1]
            self._loaded = None
            payload = self._payloads.pop(key, None)
        data = (reader.read_trace(trace) if payload is None
                else reader.decode_file_payload(payload, trace))
        if key is not None:
            with self._lock:
                self._loaded = (key, data)
        return data

    def clear(self) -> None:
        """Forget every digest and decoded trace."""
        with self._lock:
            self._digests.clear()
            self._payloads.clear()
            self._loaded = None


#: The process-wide store.
STORE = TraceStore()
