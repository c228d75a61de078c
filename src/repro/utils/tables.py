"""Predictor table structures.

Table-based predictors share a handful of storage idioms: direct-mapped
counter tables indexed by hashed bits, and *tagged* tables whose entries
are claimed and recycled (TAGE/BATAGE).  This module provides both:
the direct-mapped table keeps a numpy column, the tagged table plain
Python lists, because TAGE reads and writes it one entry at a time.

For the probe layer (:mod:`repro.probe`), :func:`distribution_stats`
summarizes any clamped counter array — occupancy, saturation, mean and
value entropy — and both table classes expose a ``structural_stats``
snapshot built on it.  These are end-of-run diagnostics: nothing in the
hot predict/train path calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .bits import mask

__all__ = ["DirectMappedTable", "TaggedEntryView", "TaggedTable",
           "distribution_stats"]


def distribution_stats(values: Any, lo: int, hi: int,
                       reset: int = 0) -> dict[str, Any]:
    """Cheap structural summary of a clamped counter array.

    Returns a JSON-ready dict:

    ``entries``
        Number of cells.
    ``live_fraction``
        Fraction of cells that moved off the ``reset`` value.
    ``saturated_fraction``
        Fraction of cells pinned at either clamp bound.
    ``mean``
        Arithmetic mean of the stored values.
    ``entropy_bits``
        Shannon entropy of the value distribution — 0 when every cell
        holds the same value, up to ``log2(hi - lo + 1)`` when the
        table is fully exercised.  A proxy for how much of the
        structure's state space a workload actually used (and, for
        hashed tables, how much aliasing pressure it is under).

    >>> stats = distribution_stats([0, 0, 1, -2], lo=-2, hi=1)
    >>> stats["entries"], stats["live_fraction"], stats["saturated_fraction"]
    (4, 0.5, 0.5)
    """
    arr = np.asarray(values, dtype=np.int64)
    n = int(arr.size)
    if n == 0:
        return {"entries": 0, "live_fraction": 0.0,
                "saturated_fraction": 0.0, "mean": 0.0, "entropy_bits": 0.0}
    counts = np.bincount(np.clip(arr, lo, hi) - lo, minlength=hi - lo + 1)
    probabilities = counts[counts > 0] / n
    entropy = float(-(probabilities * np.log2(probabilities)).sum())
    return {
        "entries": n,
        "live_fraction": float((arr != reset).mean()),
        "saturated_fraction": float(((arr == lo) | (arr == hi)).mean()),
        "mean": float(arr.mean()),
        "entropy_bits": entropy,
    }


class DirectMappedTable:
    """A power-of-two table of small signed integers with hashed indexing.

    Unlike :class:`repro.utils.counters.CounterArray`, this class stores
    arbitrary clamped integer fields (weights, counters, trip counts) and
    exposes the index mask, which predictors combine with their own hash
    functions.
    """

    __slots__ = ("_log_size", "_lo", "_hi", "_values")

    def __init__(self, log_size: int, lo: int, hi: int, fill: int = 0):
        if log_size < 0:
            raise ValueError(f"log_size must be >= 0, got {log_size}")
        if lo > hi:
            raise ValueError(f"empty value range [{lo}, {hi}]")
        if not lo <= fill <= hi:
            raise ValueError(f"fill {fill} out of range [{lo}, {hi}]")
        self._log_size = log_size
        self._lo = lo
        self._hi = hi
        self._values = np.full(1 << log_size, fill, dtype=np.int32)

    @property
    def log_size(self) -> int:
        """log2 of the number of entries."""
        return self._log_size

    @property
    def index_mask(self) -> int:
        """Mask selecting a valid index from a hash."""
        return mask(self._log_size)

    @property
    def lo(self) -> int:
        """Smallest storable value."""
        return self._lo

    @property
    def hi(self) -> int:
        """Largest storable value."""
        return self._hi

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> int:
        return int(self._values[index & self.index_mask])

    def __setitem__(self, index: int, value: int) -> None:
        self._values[index & self.index_mask] = min(self._hi, max(self._lo, value))

    def add(self, index: int, delta: int) -> int:
        """Clamped in-place addition; returns the new value."""
        i = index & self.index_mask
        v = min(self._hi, max(self._lo, int(self._values[i]) + delta))
        self._values[i] = v
        return v

    def update(self, index: int, taken: bool) -> int:
        """Saturating ±1 update (the counter idiom); returns the new value."""
        return self.add(index, 1 if taken else -1)

    def reset(self, fill: int = 0) -> None:
        """Reset every entry to ``fill``."""
        if not self._lo <= fill <= self._hi:
            raise ValueError(f"fill {fill} out of range [{self._lo}, {self._hi}]")
        self._values.fill(fill)

    def structural_stats(self) -> dict[str, Any]:
        """Occupancy/saturation/entropy snapshot (:mod:`repro.probe`)."""
        return distribution_stats(self._values, self._lo, self._hi)

    def __repr__(self) -> str:
        return (
            f"DirectMappedTable(log_size={self._log_size}, "
            f"range=[{self._lo}, {self._hi}])"
        )


@dataclass
class TaggedEntryView:
    """A snapshot of one tagged-table entry (value semantics, for reading)."""

    tag: int
    counter: int
    useful: int
    aux: int


class TaggedTable:
    """A direct-mapped table of tagged entries, the TAGE building block.

    Every entry carries a partial ``tag``, a signed prediction ``counter``,
    a ``useful`` counter driving replacement, and one free auxiliary field
    (``aux``) that BATAGE uses for its second dual counter.  Each field
    is a plain Python list of ints: the TAGE hot path reads and writes
    single entries, which a list serves without the boxing of a numpy
    scalar.  numpy is used only by :meth:`structural_stats`.
    """

    __slots__ = ("_log_size", "_tag_width", "_index_mask", "_tag_mask",
                 "_ctr_min", "_ctr_max", "_useful_max",
                 "tags", "counters", "useful", "aux")

    def __init__(self, log_size: int, tag_width: int,
                 counter_width: int = 3, useful_width: int = 2):
        if log_size < 0:
            raise ValueError(f"log_size must be >= 0, got {log_size}")
        if tag_width < 1:
            raise ValueError(f"tag_width must be >= 1, got {tag_width}")
        if counter_width < 1:
            raise ValueError(f"counter_width must be >= 1, got {counter_width}")
        if useful_width < 1:
            raise ValueError(f"useful_width must be >= 1, got {useful_width}")
        size = 1 << log_size
        self._log_size = log_size
        self._tag_width = tag_width
        self._index_mask = mask(log_size)
        self._tag_mask = mask(tag_width)
        self._ctr_min = -(1 << (counter_width - 1))
        self._ctr_max = (1 << (counter_width - 1)) - 1
        self._useful_max = (1 << useful_width) - 1
        self.tags = [0] * size
        self.counters = [0] * size
        self.useful = [0] * size
        self.aux = [0] * size

    @property
    def log_size(self) -> int:
        """log2 of the number of entries."""
        return self._log_size

    @property
    def index_mask(self) -> int:
        """Mask selecting a valid index from a hash."""
        return self._index_mask

    @property
    def tag_width(self) -> int:
        """Width of the partial tags in bits."""
        return self._tag_width

    @property
    def tag_mask(self) -> int:
        """Mask selecting a valid tag from a hash."""
        return self._tag_mask

    @property
    def counter_min(self) -> int:
        """Smallest prediction-counter value."""
        return self._ctr_min

    @property
    def counter_max(self) -> int:
        """Largest prediction-counter value."""
        return self._ctr_max

    @property
    def useful_max(self) -> int:
        """Largest useful-counter value."""
        return self._useful_max

    def __len__(self) -> int:
        return len(self.tags)

    def matches(self, index: int, tag: int) -> bool:
        """Whether the entry at ``index`` currently holds ``tag``."""
        return self.tags[index & self._index_mask] == (tag & self._tag_mask)

    def read(self, index: int) -> TaggedEntryView:
        """Copy out the entry at ``index``."""
        i = index & self._index_mask
        return TaggedEntryView(tag=self.tags[i], counter=self.counters[i],
                               useful=self.useful[i], aux=self.aux[i])

    def update_counter(self, index: int, taken: bool) -> int:
        """Saturating ±1 update of the prediction counter."""
        i = index & self._index_mask
        v = self.counters[i] + (1 if taken else -1)
        v = min(self._ctr_max, max(self._ctr_min, v))
        self.counters[i] = v
        return v

    def update_useful(self, index: int, delta: int) -> int:
        """Clamped update of the useful counter."""
        i = index & self._index_mask
        v = min(self._useful_max, max(0, self.useful[i] + delta))
        self.useful[i] = v
        return v

    def allocate(self, index: int, tag: int, taken: bool, aux: int = 0) -> None:
        """Claim the entry at ``index`` for ``tag`` with a weak counter."""
        i = index & self._index_mask
        self.tags[i] = tag & self._tag_mask
        self.counters[i] = 0 if taken else -1
        self.useful[i] = 0
        self.aux[i] = aux

    def decay_useful(self, bit_mask: int) -> None:
        """Periodic useful-counter aging: clear the bits in ``bit_mask``.

        TAGE gracefully resets the ``u`` counters by alternately clearing
        their high and low bits; callers pass the mask for the current
        phase.
        """
        keep = ~bit_mask
        self.useful[:] = [u & keep for u in self.useful]

    def reset(self) -> None:
        """Clear every entry."""
        for column in (self.tags, self.counters, self.useful, self.aux):
            column[:] = [0] * len(column)

    def structural_stats(self) -> dict[str, Any]:
        """Occupancy/saturation/entropy snapshot (:mod:`repro.probe`).

        Counter statistics come from :func:`distribution_stats`;
        ``live_fraction`` is redefined as the fraction of entries that
        have been allocated (any non-zero field), and
        ``distinct_tag_fraction`` estimates aliasing pressure — a low
        value means many allocations share partial tags.
        """
        tags, counters, useful, aux = (
            np.asarray(column, dtype=np.int64)
            for column in (self.tags, self.counters, self.useful, self.aux))
        stats = distribution_stats(counters, self._ctr_min, self._ctr_max)
        allocated = (tags != 0) | (counters != 0) | (useful != 0) | (aux != 0)
        live = int(allocated.sum())
        stats["live_fraction"] = live / len(tags)
        distinct = int(np.unique(tags[allocated]).size) if live else 0
        stats["distinct_tag_fraction"] = distinct / live if live else 0.0
        stats["useful_mean"] = float(useful.mean())
        return stats

    def __repr__(self) -> str:
        return (
            f"TaggedTable(log_size={self._log_size}, tag_width={self._tag_width})"
        )
