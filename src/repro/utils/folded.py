"""Folded (cyclic-shift-register) history.

TAGE-family predictors index tables with *very* long global histories
(hundreds of bits).  Recomputing ``xor_fold(history, width)`` on every
branch would cost O(history_length); the classic trick (due to Michaud's
PPM/TAGE implementations) maintains the folded value incrementally with a
cyclic shift register so each update is O(1):

    folded' = rotate(folded) ^ inserted_bit ^ evicted_bit_at_its_folded_position

:class:`FoldedHistory` implements exactly that and is property-tested
against the direct ``xor_fold`` computation.  Predictors with many
registers over one global history (TAGE keeps three per table) call
:func:`push_history` instead: it applies the same update to every
register in one pass, taking each evicted bit straight from the
history held as one integer.
"""

from __future__ import annotations

from typing import Sequence

from .bits import mask

__all__ = ["FoldedHistory", "HistoryWindow", "push_history"]


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
                 "_oldest_bit", "value")

    def __init__(self, history_length: int, folded_width: int):
        if history_length < 1:
            raise ValueError(f"history_length must be >= 1, got {history_length}")
        if folded_width < 1:
            raise ValueError(f"folded_width must be >= 1, got {folded_width}")
        self._history_length = history_length
        self._folded_width = folded_width
        self._mask = mask(folded_width)
        # The folded bit where the outgoing (oldest) history bit sits after
        # the rotation, and that bit's place in an integer history.
        self._evict_flip = 1 << (history_length % folded_width)
        self._oldest_bit = 1 << (history_length - 1)
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


def push_history(registers: Sequence[FoldedHistory], history: int,
                 new_bit: bool, history_mask: int) -> int:
    """Shift ``new_bit`` into ``history`` and every folded register.

    ``history`` packs the newest outcomes as :meth:`HistoryWindow.value`
    does (bit ``i`` = outcome ``i`` branches ago) and must cover every
    register's ``history_length``.  Each register gets exactly
    :meth:`FoldedHistory.update` with ``evicted_bit`` read from
    ``history`` as ``(history >> (history_length - 1)) & 1``; the
    registers are updated inline, in one loop, rather than through one
    method call each.  Returns the new history, masked with
    ``history_mask``.
    """
    bit = 1 if new_bit else 0
    for register in registers:
        value = (register.value << 1) | bit
        value = (value ^ (value >> register._folded_width)) & register._mask
        if history & register._oldest_bit:
            value ^= register._evict_flip
        register.value = value
    return ((history << 1) | bit) & history_mask
