"""SBBT trace reader.

Two read paths mirror the writer:

* :func:`read_trace` — bulk: validate the header, decompress the body it
  promises (:func:`read_payload`), then decode every 128-bit packet in
  one vectorized numpy pass into a :class:`~repro.sbbt.trace.TraceData`.
  This is the fast path the simulators use and the reproduction's
  stand-in for MBPlib's stream parsing (no per-record text parsing, no
  graph lookups).
* :class:`SbbtReader` — streaming: yields one
  :class:`~repro.sbbt.packet.SbbtPacket` at a time with bounded memory,
  for tools that inspect or filter huge traces.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import TracebackType
from typing import Iterator

import numpy as np

from ..core.errors import TraceFormatError
from .compression import open_compressed
from .header import HEADER_SIZE, SbbtHeader
from .packet import PACKET_SIZE, SbbtPacket
from .trace import TraceData

__all__ = ["read_trace", "read_payload", "decode_payload",
           "decode_file_payload", "SbbtReader"]

_META_MASK = np.uint64((1 << 12) - 1)
_RESERVED_MASK = np.uint64(0b0111_1111_0000)
_OPCODE_MASK = np.uint64(0xF)
_OUTCOME_SHIFT = np.uint64(11)
_ADDR_SHIFT = 12
#: Bytes per read of a trace body: a header promising more than the
#: file holds costs one block, never an allocation of the promise.
_READ_BLOCK = 1 << 20


def decode_payload(payload: bytes | bytearray, *,
                   validate: bool = True) -> TraceData:
    """Decode a full SBBT byte payload (header + packets) into arrays.

    With ``validate=True`` the reserved bits, opcode range and the two
    semantic rules of the format are checked on whole columns.
    """
    header = SbbtHeader.decode(payload)
    body = memoryview(payload)[HEADER_SIZE:]
    _check_body_size(header, len(body))
    blocks = np.frombuffer(body, dtype="<u8").reshape(-1, 2)
    # numpy may return a big-endian-unfriendly view on exotic platforms;
    # ascontiguousarray also detaches us from the immutable bytes buffer.
    blocks = np.ascontiguousarray(blocks).view(np.uint64)
    block1 = blocks[:, 0]
    block2 = blocks[:, 1]

    opcodes = (block1 & _OPCODE_MASK).astype(np.uint8)
    taken = ((block1 >> _OUTCOME_SHIFT) & np.uint64(1)).astype(bool)
    gaps = (block2 & _META_MASK).astype(np.uint16)
    ips = (block1.view(np.int64) >> _ADDR_SHIFT).view(np.uint64)
    targets = (block2.view(np.int64) >> _ADDR_SHIFT).view(np.uint64)

    if validate:
        _validate_columns(block1, opcodes, taken, targets)

    try:
        return TraceData(
            ips=ips, targets=targets, opcodes=opcodes, taken=taken,
            gaps=gaps, num_instructions=header.num_instructions,
        )
    except ValueError as exc:
        # e.g. the header's instruction count is below what the packet
        # gaps imply — a malformed trace, not a programming error.
        raise TraceFormatError(str(exc)) from exc


def _validate_columns(block1: np.ndarray, opcodes: np.ndarray,
                      taken: np.ndarray, targets: np.ndarray) -> None:
    """Column-wise enforcement of the SBBT 1.0 well-formedness rules."""
    bad = (block1 & _RESERVED_MASK) != 0
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise TraceFormatError(
            f"packet {index}: reserved bits must be zero in SBBT 1.0"
        )
    bad = (opcodes >> 2) == 0b11
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise TraceFormatError(
            f"packet {index}: opcode uses the reserved base type 0b11"
        )
    conditional = (opcodes & 1).astype(bool)
    indirect = (opcodes & 2).astype(bool)
    bad = ~conditional & ~taken
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise TraceFormatError(
            f"packet {index}: unconditional branch marked not-taken (rule 1)"
        )
    bad = conditional & indirect & ~taken & (targets != 0)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise TraceFormatError(
            f"packet {index}: not-taken conditional-indirect branch with "
            "non-null target (rule 2)"
        )


def _check_body_size(header: SbbtHeader, size: int) -> None:
    """Refuse a body of ``size`` bytes that is not what ``header``
    promises."""
    expected = header.num_branches * PACKET_SIZE
    if size < expected:
        raise TraceFormatError(
            f"trace body truncated: header promises {header.num_branches} "
            f"packets ({expected} bytes) but only {size} bytes follow"
        )
    if size > expected:
        raise TraceFormatError(
            f"{size - expected} trailing bytes after the last packet"
        )


def read_payload(path: str | os.PathLike) -> bytearray:
    """Read and decompress the SBBT payload (header + packets) at
    ``path``, checked against its header but not decoded.

    The header is read and validated before the body, and the body read
    stops one byte past the packets the header promises, so a bad
    signature or a lying header never decompresses the rest of the file.
    That one byte detects trailing bytes; their reported count is then
    1, however many follow.  Format errors name ``path``.
    """
    with open_compressed(path, "rb") as stream:
        try:
            payload = bytearray(stream.read(HEADER_SIZE))
            header = SbbtHeader.decode(payload)
            size = HEADER_SIZE + header.num_branches * PACKET_SIZE + 1
            while len(payload) < size:
                block = stream.read(min(size - len(payload), _READ_BLOCK))
                if not block:
                    break
                payload += block
            _check_body_size(header, len(payload) - HEADER_SIZE)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{Path(path)}: {exc}") from exc
    return payload


def decode_file_payload(payload: bytes | bytearray,
                        path: str | os.PathLike, *,
                        validate: bool = True) -> TraceData:
    """:func:`decode_payload` of a payload read from ``path``; format
    errors name ``path``."""
    try:
        return decode_payload(payload, validate=validate)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{Path(path)}: {exc}") from exc


def read_trace(path: str | os.PathLike, *, validate: bool = True) -> TraceData:
    """Read, decompress and bulk-decode the SBBT trace at ``path``
    (:func:`read_payload`, then :func:`decode_payload`).  Format errors
    name ``path``."""
    return decode_file_payload(read_payload(path), path, validate=validate)


class SbbtReader:
    """Streaming SBBT reader (context manager, iterator of packets).

    Reads the header eagerly; packets are decoded in chunks of
    ``buffer_packets`` so memory stays bounded regardless of trace length.
    """

    def __init__(self, path: str | os.PathLike, *, validate: bool = True,
                 buffer_packets: int = 4096):
        if buffer_packets < 1:
            raise ValueError("buffer_packets must be >= 1")
        self._path = Path(path)
        self._validate = validate
        self._buffer_bytes = buffer_packets * PACKET_SIZE
        self._stream = open_compressed(path, "rb")
        try:
            self.header = SbbtHeader.read_from(self._stream)
        except TraceFormatError:
            self._stream.close()
            raise
        self._packets_read = 0

    @property
    def packets_read(self) -> int:
        """Number of packets yielded so far."""
        return self._packets_read

    def __iter__(self) -> Iterator[SbbtPacket]:
        remaining = self.header.num_branches
        pending = b""
        while remaining > 0:
            chunk = self._stream.read(self._buffer_bytes)
            if not chunk:
                raise TraceFormatError(
                    f"{self._path}: trace body truncated with "
                    f"{remaining} packets still promised by the header"
                )
            pending += chunk
            usable = len(pending) - (len(pending) % PACKET_SIZE)
            for offset in range(0, usable, PACKET_SIZE):
                if remaining == 0:
                    raise TraceFormatError(
                        f"{self._path}: trailing bytes after the last packet"
                    )
                packet = SbbtPacket.decode(
                    pending[offset:offset + PACKET_SIZE],
                    validate=self._validate,
                )
                self._packets_read += 1
                remaining -= 1
                yield packet
            pending = pending[usable:]
        if pending or self._stream.read(1):
            raise TraceFormatError(
                f"{self._path}: trailing bytes after the last packet"
            )

    def close(self) -> None:
        """Release the underlying stream."""
        self._stream.close()

    def __enter__(self) -> "SbbtReader":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: TracebackType | None) -> None:
        self.close()
