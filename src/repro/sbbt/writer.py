"""SBBT trace writer.

The writer is an independent subcomponent of the simulation library (the
paper points out a user can link only the trace writer, e.g. to build
tools that create or modify traces).  Two write paths are provided:

* :class:`SbbtWriter` — a streaming writer fed one packet at a time, used
  by the synthetic tracer and the format translators.
* :func:`write_trace` — a vectorized one-shot writer that encodes a whole
  :class:`~repro.sbbt.trace.TraceData` with numpy.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import TracebackType

import numpy as np

from ..core.branch import Branch
from ..core.errors import TraceValidationError
from .compression import write_all
from .header import SbbtHeader
from .packet import MAX_GAP, SbbtPacket, is_encodable_address
from .trace import TraceData
from .validate import validate_branch

__all__ = ["SbbtWriter", "write_trace", "encode_payload"]

_OUTCOME_BIT = np.uint64(1 << 11)
_ADDR_SHIFT = np.uint64(12)


def encode_payload(trace: TraceData) -> bytes:
    """Vectorized encode of header + packets into one ``bytes`` payload.

    Validates the SBBT rules on whole columns at once; a single invalid
    record aborts the encode with the index of the first offender.
    """
    n = len(trace)
    conditional = trace.conditional_mask()
    indirect = (trace.opcodes & 2).astype(bool)

    bad = ~conditional & ~trace.taken
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise TraceValidationError(
            f"record {index}: unconditional branch marked not-taken (rule 1)"
        )
    bad = conditional & indirect & ~trace.taken & (trace.targets != 0)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise TraceValidationError(
            f"record {index}: not-taken conditional-indirect branch with "
            "non-null target (rule 2)"
        )
    for name, column in (("ip", trace.ips), ("target", trace.targets)):
        as_signed = column.view(np.int64)
        canonical = (as_signed >> 51 == 0) | (as_signed >> 51 == -1)
        if not canonical.all():
            index = int(np.flatnonzero(~canonical)[0])
            raise TraceValidationError(
                f"record {index}: {name} {int(column[index]):#x} is not a "
                "canonical 52-bit address"
            )

    blocks = np.empty((n, 2), dtype=np.uint64)
    blocks[:, 0] = (
        (trace.ips << _ADDR_SHIFT)
        | trace.opcodes.astype(np.uint64)
        | (trace.taken.astype(np.uint64) << np.uint64(11))
    )
    blocks[:, 1] = (trace.targets << _ADDR_SHIFT) | trace.gaps.astype(np.uint64)
    header = SbbtHeader(num_instructions=trace.num_instructions,
                        num_branches=n)
    return header.encode() + blocks.tobytes()


def write_trace(path: str | os.PathLike, trace: TraceData) -> int:
    """Encode ``trace`` and write it to ``path`` (codec from the suffix)
    with :func:`~repro.sbbt.compression.write_all`: the old file is
    replaced whole or not at all.  Returns the compressed on-disk size
    in bytes.
    """
    return write_all(path, encode_payload(trace))


class SbbtWriter:
    """Streaming SBBT writer (context manager).

    The branch count and instruction count are only known once the stream
    ends, so the writer buffers packets and emits the header at
    :meth:`close` time.  ``extra_instructions`` accounts for instructions
    executed after the last branch.

    >>> # doctest requires a filesystem; see tests/sbbt/test_writer.py
    """

    def __init__(self, path: str | os.PathLike):
        self._path = Path(path)
        self._blocks: list[bytes] = []
        self._num_branches = 0
        self._num_instructions = 0
        self._closed = False

    @property
    def num_branches(self) -> int:
        """Branches written so far."""
        return self._num_branches

    @property
    def num_instructions(self) -> int:
        """Instructions accounted for so far (branches + gaps + extras)."""
        return self._num_instructions

    def write_branch(self, branch: Branch, gap: int = 0) -> None:
        """Append one branch preceded by ``gap`` non-branch instructions."""
        if self._closed:
            raise ValueError("writer is closed")
        if not 0 <= gap <= MAX_GAP:
            raise TraceValidationError(
                f"instruction gap {gap} does not fit in 12 bits (max {MAX_GAP})"
            )
        validate_branch(branch)
        if not is_encodable_address(branch.ip):
            raise TraceValidationError(f"ip {branch.ip:#x} is not canonical")
        if not is_encodable_address(branch.target):
            raise TraceValidationError(
                f"target {branch.target:#x} is not canonical"
            )
        self._blocks.append(SbbtPacket(branch=branch, gap=gap).encode())
        self._num_branches += 1
        self._num_instructions += gap + 1

    def write_packet(self, packet: SbbtPacket) -> None:
        """Append one pre-built packet."""
        self.write_branch(packet.branch, packet.gap)

    def add_instructions(self, count: int) -> None:
        """Account for ``count`` trailing non-branch instructions."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._num_instructions += count

    def close(self) -> int:
        """Flush header + packets to disk; returns the on-disk size."""
        if self._closed:
            return self._path.stat().st_size
        self._closed = True
        header = SbbtHeader(num_instructions=self._num_instructions,
                            num_branches=self._num_branches)
        return write_all(self._path, header.encode() + b"".join(self._blocks))

    def __enter__(self) -> "SbbtWriter":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: TracebackType | None) -> None:
        if exc_type is None:
            self.close()
