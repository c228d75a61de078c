"""Folded (cyclic-shift-register) history.

TAGE-family predictors index tables with *very* long global histories
(hundreds of bits).  Recomputing ``xor_fold(history, width)`` on every
branch would cost O(history_length); the classic trick (due to Michaud's
PPM/TAGE implementations) maintains the folded value incrementally with a
cyclic shift register so each update is O(1):

    folded' = rotate(folded) ^ inserted_bit ^ evicted_bit_at_its_folded_position

:class:`FoldedHistory` implements exactly that and is property-tested
against the direct ``xor_fold`` computation.  TAGE-shaped predictors,
which keep three registers per table over one global history, use
:class:`FoldedBank` instead: it packs every register into one integer,
so a push and a read cost a few big-integer operations for all tables.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .bits import mask

__all__ = ["FoldedBank", "FoldedHistory", "HistoryWindow"]


class HistoryWindow:
    """A bounded window of raw branch outcomes, oldest ones discarded.

    :class:`FoldedHistory` needs to know the bit that *leaves* the history
    window on every update.  Predictors with several folded registers share
    one window sized to the longest history.
    """

    __slots__ = ("_length", "_bits", "_head")

    def __init__(self, length: int):
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        self._length = length
        self._bits = bytearray(length)
        self._head = 0  # position of the newest outcome

    @property
    def length(self) -> int:
        """Capacity of the window in outcomes."""
        return self._length

    def push(self, taken: bool) -> None:
        """Record a new outcome, discarding the oldest."""
        self._head = (self._head - 1) % self._length
        self._bits[self._head] = 1 if taken else 0

    def __getitem__(self, age: int) -> int:
        """Outcome ``age`` branches ago (0 = newest) as 0/1."""
        if not 0 <= age < self._length:
            raise IndexError(f"age {age} out of range [0, {self._length})")
        return self._bits[(self._head + age) % self._length]

    def value(self, length: int) -> int:
        """Pack the newest ``length`` outcomes: bit ``i`` = outcome ``i`` ago."""
        if not 0 <= length <= self._length:
            raise ValueError(f"length {length} out of range [0, {self._length}]")
        result = 0
        for age in range(length - 1, -1, -1):
            result = (result << 1) | self[age]
        return result

    def reset(self) -> None:
        """Clear the window (all not-taken)."""
        for i in range(self._length):
            self._bits[i] = 0

    def __repr__(self) -> str:
        return f"HistoryWindow(length={self._length})"


class FoldedHistory:
    """Incrementally maintained ``xor_fold`` of the newest ``history_length``
    outcomes, folded into ``folded_width`` bits.

    The invariant, checked by the test suite, is::

        folded.value == xor_fold(window.value(history_length), folded_width)

    after any sequence of synchronized ``update`` / ``push`` calls.
    ``value`` is a plain attribute, so hot paths read it at slot speed.

    Parameters
    ----------
    history_length:
        Number of outcomes covered by this folded register.
    folded_width:
        Width in bits of the folded value (e.g. the log2 of a TAGE table
        size, or a tag width).
    """

    __slots__ = ("_history_length", "_folded_width", "_mask", "_evict_flip",
                 "value")

    def __init__(self, history_length: int, folded_width: int):
        if history_length < 1:
            raise ValueError(f"history_length must be >= 1, got {history_length}")
        if folded_width < 1:
            raise ValueError(f"folded_width must be >= 1, got {folded_width}")
        self._history_length = history_length
        self._folded_width = folded_width
        self._mask = mask(folded_width)
        # The folded bit where the outgoing (oldest) history bit sits after
        # the rotation.
        self._evict_flip = 1 << (history_length % folded_width)
        #: The folded history, equal to ``xor_fold(raw_history, width)``.
        self.value = 0

    @property
    def history_length(self) -> int:
        """Number of outcomes covered."""
        return self._history_length

    @property
    def folded_width(self) -> int:
        """Width of the folded value in bits."""
        return self._folded_width

    def update(self, new_bit: bool, evicted_bit: int) -> None:
        """Shift in ``new_bit`` and remove ``evicted_bit``.

        ``evicted_bit`` must be the outcome that was recorded
        ``history_length`` branches ago (i.e. ``window[history_length - 1]``
        *before* the window itself is pushed).
        """
        # Rotate left by 1 within the folded width, inserting the new bit.
        value = (self.value << 1) | (1 if new_bit else 0)
        # Fold the carried-out MSB back into bit 0.
        value = (value ^ (value >> self._folded_width)) & self._mask
        # The evicted history bit, after this rotation, sits at the bit
        # _evict_flip selects.
        self.value = value ^ (self._evict_flip if evicted_bit & 1 else 0)

    def reset(self) -> None:
        """Clear the folded register (consistent with an all-zero window)."""
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return (
            f"FoldedHistory(history_length={self._history_length}, "
            f"folded_width={self._folded_width}, value={self.value:#x})"
        )


class FoldedBank:
    """Every folded register of a TAGE-shaped predictor in one integer.

    Table ``t`` of ``N`` folds its ``history_lengths[t]`` newest outcomes
    into an index register (``index_width`` bits) and two tag registers
    (``tag_widths[t]`` and ``max(1, tag_widths[t] - 1)`` bits).  Bits
    ``[k * slot, (k + 1) * slot)`` of :attr:`word` hold register ``k``,
    equal to the :class:`FoldedHistory` of its shape: index lanes, then
    first and second tag lanes.  :attr:`history` holds the raw outcomes
    (bit ``i`` = outcome ``i`` ago).  :attr:`slot` is the smallest power of
    two (8 or more) above the widest register and twice the spread of
    the widths, so one multiply wraps every lane's carried-out bit in
    :meth:`push` and no partial product reaches the next lane.
    """

    __slots__ = ("index_width", "tag_widths", "slot", "word", "history",
                 "_index_mask", "_history_mask", "_ones", "_values",
                 "_carries", "_wrap", "_top", "_flips", "_evict_mask",
                 "_evicted", "_replicate", "_tag_shift", "_tag_lanes",
                 "_read_mask", "_read_bytes", "_unpack")

    #: Evicted-bit words remembered before the memo starts over.
    MAX_EVICTIONS = 1 << 12

    def __init__(self, history_lengths: Sequence[int], index_width: int,
                 tag_widths: Sequence[int]):
        n = len(tag_widths)
        widths = ([index_width] * n + list(tag_widths)
                  + [max(1, w - 1) for w in tag_widths])
        if not n or len(history_lengths) != n or min(
                *widths, *history_lengths) < 1:
            raise ValueError("need positive widths and lengths, one per table")
        top = max(widths)
        slot = 8
        while slot <= max(top, 2 * (top - min(widths))):
            slot *= 2
        self.index_width = index_width
        self.tag_widths = tuple(tag_widths)
        self.slot = slot
        lanes = list(enumerate(zip(list(history_lengths) * 3, widths)))
        self._ones = sum(1 << (k * slot) for k, _ in lanes)
        self._values = sum(mask(w) << (k * slot) for k, (_, w) in lanes)
        self._carries = sum(1 << (k * slot + w) for k, (_, w) in lanes)
        self._wrap = sum(1 << (top - w) for w in set(widths))
        self._top = top
        # Register k gives up history bit L - 1, which after the shift
        # sits at folded bit L % w.
        self._flips = [(1 << (length - 1), 1 << (k * slot + length % w))
                       for k, (length, w) in lanes]
        self._evict_mask = sum({1 << (length - 1)
                                for length in history_lengths})
        self._evicted: dict[int, int] = {}
        self._index_mask = mask(index_width)
        self._history_mask = mask(max(history_lengths))
        self._replicate = sum(1 << (t * slot) for t in range(n))
        self._tag_shift = n * slot - 1
        self._tag_lanes = mask(n * slot) << (n * slot)
        self._read_mask = self._values & mask(2 * n * slot)
        self._read_bytes = 2 * n * slot // 8
        size = slot // 8
        if size <= 8:
            self._unpack = struct.Struct(
                f"<{2 * n}{'BHIQ'[size.bit_length() - 1]}").unpack
        else:
            self._unpack = lambda data: tuple(
                int.from_bytes(data[i:i + size], "little")
                for i in range(0, len(data), size))
        self.word = 0
        self.history = 0

    def push(self, taken: bool) -> None:
        """Shift one outcome into the history and every register."""
        bit = 1 if taken else 0
        history = self.history
        word = (self.word << 1) | (self._ones if bit else 0)
        # Lane k's carried-out bit sits at bit w_k; the w_k term of the
        # multiply moves it to bit 0 and the mask drops the others.
        word = ((word & self._values)
                ^ (((word & self._carries) * self._wrap >> self._top)
                   & self._ones))
        key = history & self._evict_mask
        evicted = self._evicted.get(key)
        if evicted is None:
            evicted = self._evict_word(key)
        self.word = word ^ evicted
        self.history = ((history << 1) | bit) & self._history_mask

    def _evict_word(self, key: int) -> int:
        if len(self._evicted) >= self.MAX_EVICTIONS:
            self._evicted.clear()
        evicted = 0
        for oldest, flip in self._flips:
            if key & oldest:
                evicted |= flip
        self._evicted[key] = evicted
        return evicted

    def pack(self, index_terms: Sequence[int],
             tag_terms: Sequence[int]) -> int:
        """A :meth:`read` word of terms that each fit their lane's width."""
        return sum(term << (k * self.slot)
                   for k, term in enumerate([*index_terms, *tag_terms]))

    def read(self, terms: int, shared: int) -> tuple[int, ...]:
        """Every table's index, then every table's tag.

        Index ``t`` is ``index[t] ^ xor_fold(shared, index_width) ^``
        index lane ``t`` of ``terms``; tag ``t`` is ``(tag0[t] ^
        (tag1[t] << 1) ^`` tag lane ``t`` of ``terms) &
        mask(tag_widths[t])``.  ``terms`` comes from :meth:`pack`.
        """
        width = self.index_width
        lane = self._index_mask
        fold = 0
        while shared:  # xor_fold(shared, width), inlined
            fold ^= shared & lane
            shared >>= width
        word = self.word
        word ^= ((word >> self._tag_shift) & self._tag_lanes) ^ terms
        word ^= fold * self._replicate
        return self._unpack((word & self._read_mask).to_bytes(
            self._read_bytes, "little"))
