"""In-memory branch traces as numpy structure-of-arrays.

:class:`TraceData` is the bulk representation every fast code path works
on: five parallel numpy arrays (ip, target, opcode, outcome, gap) plus the
header counts.  This is this reproduction's analogue of MBPlib's
"stream-like format that avoids the cache misses of accessing a big hashed
structure": branch records are contiguous, decoded in one vectorized pass,
and iterated without per-record parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from ..core.branch import Branch, Opcode
from ..core.errors import TraceValidationError
from .packet import MAX_GAP, SbbtPacket

__all__ = ["TraceData"]

#: Rows per block that :meth:`TraceData.iter_branches` converts to lists.
ITER_BLOCK_ROWS = 1 << 16

# Opcodes 12-15 use the reserved base type 0b11; the rest are cached.
_RESERVED_OPCODES = 0b1100
_OPCODES = tuple(Opcode(value) for value in range(_RESERVED_OPCODES))


@dataclass(slots=True)
class TraceData:
    """A decoded branch trace.

    Attributes
    ----------
    ips, targets:
        ``uint64`` virtual addresses.
    opcodes:
        ``uint8`` 4-bit SBBT opcodes.
    taken:
        ``bool`` resolved outcomes.
    gaps:
        ``uint16`` instructions executed since the previous branch
        (not counting either branch).
    num_instructions:
        Total instructions (branch and non-branch) covered by the trace;
        at least ``len(trace) + gaps.sum()``.
    """

    ips: np.ndarray
    targets: np.ndarray
    opcodes: np.ndarray
    taken: np.ndarray
    gaps: np.ndarray
    num_instructions: int

    def __post_init__(self) -> None:
        n = len(self.ips)
        for name in ("targets", "opcodes", "taken", "gaps"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} has mismatched length")
        self.ips = np.asarray(self.ips, dtype=np.uint64)
        self.targets = np.asarray(self.targets, dtype=np.uint64)
        self.opcodes = np.asarray(self.opcodes, dtype=np.uint8)
        self.taken = np.asarray(self.taken, dtype=bool)
        self.gaps = np.asarray(self.gaps, dtype=np.uint16)
        if n and int(self.gaps.max(initial=0)) > MAX_GAP:
            raise TraceValidationError(
                f"gap exceeds the 12-bit maximum of {MAX_GAP}"
            )
        minimum = n + int(self.gaps.sum(dtype=np.int64))
        if self.num_instructions < minimum:
            raise ValueError(
                f"num_instructions={self.num_instructions} is below the "
                f"{minimum} instructions implied by the packets"
            )

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    @classmethod
    def from_packets(cls, packets: "list[SbbtPacket]",
                     num_instructions: int | None = None) -> "TraceData":
        """Build from a list of decoded packets.

        When ``num_instructions`` is omitted it is set to the minimum
        consistent value (every instruction accounted for by gaps plus the
        branches themselves).
        """
        n = len(packets)
        ips = np.fromiter((p.branch.ip for p in packets), np.uint64, n)
        targets = np.fromiter((p.branch.target for p in packets), np.uint64, n)
        opcodes = np.fromiter((int(p.branch.opcode) for p in packets), np.uint8, n)
        taken = np.fromiter((p.branch.taken for p in packets), bool, n)
        gaps = np.fromiter((p.gap for p in packets), np.uint16, n)
        if num_instructions is None:
            num_instructions = n + int(gaps.sum(dtype=np.int64))
        return cls(ips, targets, opcodes, taken, gaps, num_instructions)

    @classmethod
    def empty(cls) -> "TraceData":
        """A zero-branch, zero-instruction trace."""
        zero = np.zeros(0, dtype=np.uint64)
        return cls(zero, zero.copy(), np.zeros(0, np.uint8),
                   np.zeros(0, bool), np.zeros(0, np.uint16), 0)

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ips)

    @property
    def num_branches(self) -> int:
        """Number of branch records."""
        return len(self.ips)

    def branch(self, index: int) -> Branch:
        """Materialize record ``index`` as a :class:`Branch`."""
        return Branch(
            ip=int(self.ips[index]),
            target=int(self.targets[index]),
            opcode=Opcode(int(self.opcodes[index])),
            taken=bool(self.taken[index]),
        )

    def packet(self, index: int) -> SbbtPacket:
        """Materialize record ``index`` as an :class:`SbbtPacket`."""
        return SbbtPacket(branch=self.branch(index), gap=int(self.gaps[index]))

    def iter_branches(self) -> Iterator[tuple[Branch, int]]:
        """Yield ``(branch, gap)`` pairs without building a packet list.

        The scalar simulator's hot loop.  The columns are converted to
        plain Python lists (``tolist``) one block of
        :data:`ITER_BLOCK_ROWS` rows at a time, so the lists never hold
        the whole trace.  Within a block, ``map`` and ``zip`` build every
        :class:`Branch` in C (``tuple.__new__``) and pair it with its
        gap, so no Python code runs per branch — the Python analogue of
        SBBT's "stream format, no hashed metadata lookups" property.
        """
        if len(self) and int(self.opcodes.max()) >= _RESERVED_OPCODES:
            raise TraceValidationError("reserved opcode in trace data")
        new_branch = partial(tuple.__new__, Branch)
        opcode_of = _OPCODES.__getitem__
        for start in range(0, len(self), ITER_BLOCK_ROWS):
            rows = slice(start, start + ITER_BLOCK_ROWS)
            branches = map(new_branch, zip(
                self.ips[rows].tolist(), self.targets[rows].tolist(),
                map(opcode_of, self.opcodes[rows].tolist()),
                self.taken[rows].tolist()))
            yield from zip(branches, self.gaps[rows].tolist())

    # ------------------------------------------------------------------
    # Derived columns.
    # ------------------------------------------------------------------

    def conditional_mask(self) -> np.ndarray:
        """Boolean mask of conditional branches (opcode bit 0)."""
        return (self.opcodes & 1).astype(bool)

    @property
    def num_conditional_branches(self) -> int:
        """Number of conditional branches in the trace."""
        return int(self.conditional_mask().sum())

    def instruction_numbers(self) -> np.ndarray:
        """1-based instruction number of each branch.

        Branch ``i`` executes as instruction ``sum_{j<=i}(gap_j + 1)`` of
        the program — the quantity that makes warm-up boundaries exact.
        """
        return np.cumsum(self.gaps.astype(np.int64) + 1)

    def slice(self, start: int, stop: int) -> "TraceData":
        """A sub-trace of branch records ``[start, stop)``.

        The sliced trace's instruction count covers exactly its own
        packets (plus nothing trailing).
        """
        gaps = self.gaps[start:stop]
        count = len(gaps) + int(gaps.sum(dtype=np.int64))
        return TraceData(
            self.ips[start:stop].copy(), self.targets[start:stop].copy(),
            self.opcodes[start:stop].copy(), self.taken[start:stop].copy(),
            gaps.copy(), count,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceData):
            return NotImplemented
        return (
            self.num_instructions == other.num_instructions
            and np.array_equal(self.ips, other.ips)
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.opcodes, other.opcodes)
            and np.array_equal(self.taken, other.taken)
            and np.array_equal(self.gaps, other.gaps)
        )

    def __repr__(self) -> str:
        return (
            f"TraceData(num_branches={len(self)}, "
            f"num_instructions={self.num_instructions})"
        )
