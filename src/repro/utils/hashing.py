"""Hash functions used to index predictor tables.

MBPlib's utilities library ships a small set of hashing helpers — most
prominently ``mbp::XorFold`` which folds an arbitrarily long value into a
table index by xoring together consecutive chunks.  We add the classic
skewing functions of the 2bc-gskew predictor and a couple of general
mixers, all deterministic and pure.
"""

from __future__ import annotations

from typing import Sequence

from .bits import mask

__all__ = [
    "xor_fold",
    "vote_lanes",
    "vote_indices",
    "gshare_index",
    "skew_h",
    "skew_h_inverse",
    "skew_hash",
    "mix64",
    "path_hash_step",
]

_U64 = (1 << 64) - 1


def xor_fold(value: int, width: int) -> int:
    """Fold ``value`` into ``width`` bits by xoring ``width``-bit chunks.

    This is MBPlib's ``mbp::XorFold``: every bit of the input influences
    the result, so long histories hash into small table indices without
    discarding information wholesale.

    >>> xor_fold(0b1010_1100, 4)
    6
    >>> xor_fold(0, 8)
    0
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if value < 0:
        raise ValueError("xor_fold expects a non-negative value")
    chunk = mask(width)
    result = 0
    while value:
        result ^= value & chunk
        value >>= width
    return result


def vote_lanes(history_lengths: Sequence[int],
               width: int) -> tuple[tuple[int | None, int], ...]:
    """Per-table constants of :func:`vote_indices`, built once per config.

    Table ``t`` with history length ``L`` gets the lane
    ``(mask(L), xor_fold(t << 1, width))``; a table with ``L == 0`` is a
    bias table and gets ``(None, 0)``.

    >>> vote_lanes((0, 2, 5), 4)
    ((None, 0), (3, 2), (31, 4))
    """
    return tuple((mask(length), xor_fold(table << 1, width)) if length
                 else (None, 0)
                 for table, length in enumerate(history_lengths))


def vote_indices(seed: int, ghist: int,
                 lanes: Sequence[tuple[int | None, int]], width: int,
                 extra: int = 0) -> list[int]:
    """Table indices of a hashed-vote adder tree (perceptron, GEHL, SC).

    Table ``t`` with history length ``L`` is indexed at
    ``xor_fold(seed ^ ((ghist & mask(L)) << 2) ^ (t << 1) ^ extra, width)``;
    a bias table (``L == 0``) at ``xor_fold(seed, width)``, with no salt
    and no ``extra``.  ``lanes`` comes from :func:`vote_lanes`.

    Folding is linear over xor, so ``seed`` is folded once per call and
    each history table adds its pre-folded salt and the fold of its own
    ``((ghist & mask(L)) << 2) ^ extra``.

    >>> lanes = vote_lanes((0, 2), 4)
    >>> vote_indices(0b1011_0110, 0b11, lanes, 4)
    [13, 3]
    """
    if extra < 0:
        raise ValueError("vote_indices expects a non-negative extra term")
    base = xor_fold(seed, width)
    chunk = (1 << width) - 1
    indices = []
    for history_mask, salt in lanes:
        if history_mask is None:
            indices.append(base)
            continue
        value = ((ghist & history_mask) << 2) ^ extra
        index = base ^ salt ^ (value & chunk)
        value >>= width
        while value:
            index ^= value & chunk
            value >>= width
        indices.append(index)
    return indices


def gshare_index(ip: int, history: int, width: int) -> int:
    """The GShare indexing function: fold ``ip ^ history`` to ``width`` bits.

    Matches Listing 2 of the paper, where the GShare example computes
    ``XorFold(ip ^ ghist, T)``.
    """
    return xor_fold((ip ^ history) & _U64, width)


def skew_h(value: int, width: int) -> int:
    """The ``H`` skewing function from Seznec & Michaud's skewed caches.

    ``H`` operates on ``width``-bit values: it shifts right by one and
    feeds back the parity of the top and bottom bits into the MSB.  It is a
    bijection on ``width``-bit values, which is the property the e-gskew
    banks rely on (no systematic aliasing between banks).
    """
    if width <= 1:
        raise ValueError(f"width must be > 1, got {width}")
    value &= mask(width)
    msb = (value >> (width - 1)) & 1
    lsb = value & 1
    return ((value >> 1) | ((msb ^ lsb) << (width - 1))) & mask(width)


def skew_h_inverse(value: int, width: int) -> int:
    """Inverse of :func:`skew_h` (also a bijection on ``width`` bits)."""
    if width <= 1:
        raise ValueError(f"width must be > 1, got {width}")
    value &= mask(width)
    msb = (value >> (width - 1)) & 1
    next_msb = (value >> (width - 2)) & 1
    lsb = msb ^ next_msb
    return ((value << 1) & mask(width)) | lsb


def skew_hash(v1: int, v2: int, bank: int, width: int) -> int:
    """Skewed inter-bank hash of the e-gskew family.

    Computes ``H^(bank+1)(v1) ^ Hinv^(bank+1)(v2) ^ v1`` on ``width`` bits,
    so different banks map the same (address, history) pair to de-aliased
    table entries — the basis of the 2bc-gskew predictor.
    """
    if bank < 0:
        raise ValueError(f"bank must be non-negative, got {bank}")
    a = v1 & mask(width)
    b = v2 & mask(width)
    for _ in range(bank + 1):
        a = skew_h(a, width)
        b = skew_h_inverse(b, width)
    return (a ^ b ^ (v1 & mask(width))) & mask(width)


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a fast, high-quality 64-bit mixer.

    Used wherever we need decorrelated bits from structured inputs (e.g.
    synthetic trace generation and table tag hardening).
    """
    value = (value + 0x9E3779B97F4A7C15) & _U64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _U64
    return value ^ (value >> 31)


def path_hash_step(hash_value: int, ip: int, width: int) -> int:
    """One step of a rolling path hash: shift in low bits of ``ip``.

    The path history registers used by perceptron-family predictors keep a
    rolling hash of recent branch addresses; this is the canonical
    shift-and-xor update on ``width`` bits.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return ((hash_value << 1) ^ (ip & mask(width)) ^ (hash_value >> (width - 1))) & mask(width)
