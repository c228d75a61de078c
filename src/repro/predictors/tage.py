"""The TAGE predictor (Seznec & Michaud, 2006).

TAGE — TAgged GEometric history length — is the backbone of every
championship-winning direction predictor since CBP-2.  A bimodal base
predictor is backed by ``N`` *tagged* tables indexed with geometrically
increasing history lengths; the longest matching table provides the
prediction, a ``u``\\ seful counter drives replacement, and new entries
are allocated on mispredictions in a longer-history table.

The paper highlights that its MBPlib implementation takes ~150 lines
against the championship version's ~700 — the folded-history, tagged-
table and LFSR components live in the utilities library.  This module
follows the same decomposition: everything stateful below is a
:mod:`repro.utils` component.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.branch import Branch
from ..core.predictor import Predictor
from ..utils.bits import mask
from ..utils.folded import FoldedHistory, push_history
from ..utils.hashing import xor_fold
from ..utils.lfsr import Lfsr
from ..utils.tables import TaggedTable

__all__ = ["IpFolds", "Tage", "geometric_history_lengths"]


def geometric_history_lengths(num_tables: int, min_length: int,
                              max_length: int) -> tuple[int, ...]:
    """The geometric series L(i) = min * (max/min)^(i/(N-1)), rounded.

    The defining trick of GEometric history length predictors: short
    histories get dense coverage, very long ones sparse coverage.
    """
    if num_tables < 1:
        raise ValueError("num_tables must be >= 1")
    if not 1 <= min_length <= max_length:
        raise ValueError("need 1 <= min_length <= max_length")
    if num_tables == 1:
        return (min_length,)
    ratio = (max_length / min_length) ** (1.0 / (num_tables - 1))
    lengths = []
    for i in range(num_tables):
        value = int(round(min_length * ratio ** i))
        if lengths and value <= lengths[-1]:
            value = lengths[-1] + 1  # keep the series strictly increasing
        lengths.append(value)
    return tuple(lengths)


class IpFolds(dict):
    """Memo of the ``ip``-only terms of a TAGE-shaped lookup.

    Maps an ``ip`` to ``(index_term, tag_terms)``: the index term is
    ``xor_fold(ip, w) ^ xor_fold(ip >> w, w)`` on the ``w`` index bits,
    and ``tag_terms[t]`` is ``xor_fold(ip, tag_widths[t])``.  A static
    branch is folded once, not once per prediction.  The memo is cleared
    when it holds :attr:`MAX_ENTRIES` entries and a new ``ip`` arrives,
    so it never holds more (about 1.5 MB for the default TAGE).

    A miss costs a little more than folding inline and a hit saves most
    of a lookup, so the memo pays unless only a small share of lookups
    hit.  Synthetic programs with 14,000 and 38,000 static conditional
    branches, well past the bound, still hit on 90% and 46% of lookups
    and run faster than inline folding (EXPERIMENTS.md, "TAGE ip-fold
    memo").
    """

    __slots__ = ("_index_width", "_tag_widths")

    MAX_ENTRIES = 1 << 12

    def __init__(self, index_width: int, tag_widths: Sequence[int]):
        super().__init__()
        self._index_width = index_width
        self._tag_widths = tuple(tag_widths)

    def __missing__(self, ip: int) -> tuple[int, tuple[int, ...]]:
        if len(self) >= self.MAX_ENTRIES:
            self.clear()
        w = self._index_width
        folds = (xor_fold(ip, w) ^ xor_fold(ip >> w, w),
                 tuple(xor_fold(ip, width) for width in self._tag_widths))
        self[ip] = folds
        return folds


class Tage(Predictor):
    """A parameterizable TAGE.

    Matching the paper's point that every example is tweakable: the
    number of tagged tables, per-table sizes, tag widths and the history
    series are all constructor parameters (a modern TAGE has "more than
    50 parameters"; these are the structural ones).

    Parameters
    ----------
    num_tables:
        Number of tagged tables backing the base bimodal.
    log_base_size:
        log2 of the base bimodal table.
    log_tagged_size:
        log2 of each tagged table (uniform, like the original TAGE).
    tag_widths:
        Per-table partial tag widths; defaults to a gently increasing
        series (longer histories earn wider tags).
    min_history, max_history:
        Ends of the geometric history series.
    counter_width:
        Bits of each tagged prediction counter.
    useful_width:
        Bits of each ``u`` counter.
    u_reset_period:
        Tagged-table trainings between graceful ``u`` resets (the
        alternating high/low bit clear of the original).
    """

    USE_ALT_MAX = 15  # 4-bit use_alt_on_na confidence counter

    def __init__(self, num_tables: int = 7, log_base_size: int = 13,
                 log_tagged_size: int = 10,
                 tag_widths: Sequence[int] | None = None,
                 min_history: int = 5, max_history: int = 130,
                 counter_width: int = 3, useful_width: int = 2,
                 u_reset_period: int = 1 << 18,
                 lfsr_seed: int = 0xC0FFEE):
        if num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        if u_reset_period < 1:
            raise ValueError("u_reset_period must be >= 1")
        self.num_tables = num_tables
        self.log_base_size = log_base_size
        self.log_tagged_size = log_tagged_size
        self.min_history = min_history
        self.max_history = max_history
        self.counter_width = counter_width
        self.useful_width = useful_width
        self.u_reset_period = u_reset_period
        self.history_lengths = geometric_history_lengths(
            num_tables, min_history, max_history)
        if tag_widths is None:
            tag_widths = tuple(min(14, 7 + i) for i in range(num_tables))
        if len(tag_widths) != num_tables:
            raise ValueError("need one tag width per tagged table")
        self.tag_widths = tuple(tag_widths)

        self._base = [0] * (1 << log_base_size)
        self._base_mask = mask(log_base_size)
        self._tables = [
            TaggedTable(log_tagged_size, self.tag_widths[i],
                        counter_width, useful_width)
            for i in range(num_tables)
        ]
        # The global history as one integer (bit i = outcome i branches
        # ago), as long as the longest table's history.
        self._history = 0
        self._history_mask = mask(max(self.history_lengths))
        self._folded_index = [
            FoldedHistory(length, log_tagged_size)
            for length in self.history_lengths
        ]
        self._folded_tag0 = [
            FoldedHistory(length, self.tag_widths[i])
            for i, length in enumerate(self.history_lengths)
        ]
        self._folded_tag1 = [
            FoldedHistory(length, max(1, self.tag_widths[i] - 1))
            for i, length in enumerate(self.history_lengths)
        ]
        # Per-table lookup lanes, zipped once so the hot path iterates
        # tuples instead of indexing five lists.
        self._index_mask = mask(log_tagged_size)
        self._lanes = tuple(zip(
            range(num_tables), self._tables, self._folded_index,
            self._folded_tag0, self._folded_tag1,
            [mask(w) for w in self.tag_widths]))
        self._registers = (self._folded_index + self._folded_tag0
                           + self._folded_tag1)
        self._ip_folds = IpFolds(log_tagged_size, self.tag_widths)
        self._path = 0
        self._rng = Lfsr(width=32, seed=lfsr_seed)
        self._use_alt_on_na = self.USE_ALT_MAX // 2
        self._train_count = 0
        self._u_reset_phase = 0
        # Per-prediction cache (predict-then-train protocol).
        self._cached_ip: int | None = None
        self._cache: dict[str, Any] = {}
        # Execution statistics.
        self._stat_provider_hits = [0] * (num_tables + 1)  # [0] = base
        self._stat_allocations = 0
        self._stat_allocation_failures = 0

    # ------------------------------------------------------------------
    # Prediction.
    # ------------------------------------------------------------------

    def _base_index(self, ip: int) -> int:
        return ip & self._base_mask

    def _lookup(self, ip: int) -> dict[str, Any]:
        # Table t's index is fold(ip) ^ fold(ip >> w) ^ fold(path) ^
        # folded_index[t] ^ t on w = log_tagged_size bits.  The first three
        # terms do not depend on t: the path term is folded once per
        # prediction, and the ip terms (with the tags' ip folds) come from
        # a memo filled once per static branch.
        ip_index, ip_tags = self._ip_folds[ip]
        shared = ip_index ^ xor_fold(self._path, self.log_tagged_size)
        index_mask = self._index_mask
        indices = []
        tags = []
        hits = []
        for (t, table, fi, f0, f1, tag_mask), ip_tag in zip(self._lanes,
                                                              ip_tags):
            index = (shared ^ fi.value ^ t) & index_mask
            tag = (ip_tag ^ f0.value ^ (f1.value << 1)) & tag_mask
            indices.append(index)
            tags.append(tag)
            if table.tags[index] == tag:
                hits.append(t)
        base_pred = self._base[self._base_index(ip)] >= 0
        provider = hits[-1] if hits else None
        alt = hits[-2] if len(hits) >= 2 else None

        if provider is not None:
            counter = self._tables[provider].counters[indices[provider]]
            provider_pred = counter >= 0
            weak = counter in (0, -1)
        else:
            provider_pred = base_pred
            weak = False
        if alt is not None:
            alt_counter = self._tables[alt].counters[indices[alt]]
            alt_pred = alt_counter >= 0
        else:
            alt_pred = base_pred

        alt_used = (provider is not None and weak
                    and self._use_alt_on_na >= (self.USE_ALT_MAX + 1) // 2)
        final = alt_pred if alt_used else provider_pred
        return {
            "indices": indices,
            "tags": tags,
            "provider": provider,
            "alt": alt,
            "base_pred": base_pred,
            "provider_pred": provider_pred,
            "alt_pred": alt_pred,
            "weak": weak,
            "alt_used": alt_used,
            "final": final,
        }

    def predict(self, ip: int) -> bool:
        """Longest tag match provides; alt prediction covers weak entries."""
        state = self._lookup(ip)
        self._cached_ip = ip
        self._cache = state
        return state["final"]

    # ------------------------------------------------------------------
    # Training.
    # ------------------------------------------------------------------

    def _update_base(self, ip: int, taken: bool) -> None:
        i = self._base_index(ip)
        v = self._base[i]
        if taken:
            if v < 1:
                self._base[i] = v + 1
        elif v > -2:
            self._base[i] = v - 1

    def train(self, branch: Branch) -> None:
        """Provider/alt counter training, u management and allocation."""
        if self._cached_ip != branch.ip or not self._cache:
            self.predict(branch.ip)
        state = self._cache
        taken = branch.taken
        indices = state["indices"]
        provider = state["provider"]
        mispredicted = state["final"] != taken

        self._stat_provider_hits[0 if provider is None else provider + 1] += 1

        probe = self._probe
        if probe is not None:
            # Attribute to whoever supplied the *final* answer: the base,
            # the provider table, or — when use_alt_on_na distrusted a
            # weak provider — the alternative (which overrode it).
            if provider is None:
                source = "base"
            elif state["alt_used"]:
                source = ("base" if state["alt"] is None
                          else f"T{state['alt'] + 1}")
            else:
                source = f"T{provider + 1}"
            overrode = (f"T{provider + 1}"
                        if state["alt_used"]
                        and state["alt_pred"] != state["provider_pred"]
                        else None)
            probe.record(branch.ip, source, not mispredicted,
                         overrode=overrode)

        if provider is None:
            self._update_base(branch.ip, taken)
        else:
            table = self._tables[provider]
            index = indices[provider]
            # use_alt_on_na learns whether weak entries should be trusted.
            if state["weak"] and state["provider_pred"] != state["alt_pred"]:
                if state["alt_pred"] == taken:
                    self._use_alt_on_na = min(self.USE_ALT_MAX,
                                              self._use_alt_on_na + 1)
                else:
                    self._use_alt_on_na = max(0, self._use_alt_on_na - 1)
            table.update_counter(index, taken)
            # The alt (or base) trains too when the provider was weak and
            # newly allocated — keeps the fallback warm.
            if state["weak"]:
                if state["alt"] is not None:
                    self._tables[state["alt"]].update_counter(
                        indices[state["alt"]], taken)
                else:
                    self._update_base(branch.ip, taken)
            # u tracks whether the provider beats its alternative.
            if state["provider_pred"] != state["alt_pred"]:
                delta = 1 if state["provider_pred"] == taken else -1
                table.update_useful(index, delta)

        if mispredicted:
            self._allocate(taken, provider, indices, state["tags"])

        self._train_count += 1
        if self._train_count % self.u_reset_period == 0:
            self._graceful_u_reset()
        self._cached_ip = None

    def _allocate(self, taken: bool, provider: int | None,
                  indices: list[int], tags: list[int]) -> None:
        """Claim an entry in a longer-history table after a mispredict.

        Following the original policy: pick a random start among the
        longer tables (biased towards shorter histories), allocate at the
        first candidate whose ``u`` is zero, and on total failure age the
        ``u`` of every candidate instead.
        """
        start = 0 if provider is None else provider + 1
        if start >= self.num_tables:
            return
        # Bias: with probability 1/2 skip the first candidate table once,
        # with 1/4 twice — the LFSR-driven start of the original TAGE.
        offset = 0
        span = self.num_tables - start
        while offset < span - 1 and self._rng.next_bit():
            offset += 1
            if offset >= 2:  # original caps the random start at +2
                break
        allocated = False
        for t in range(start + offset, self.num_tables):
            index = indices[t]
            if self._tables[t].useful[index] == 0:
                self._tables[t].allocate(index, tags[t], taken)
                self._stat_allocations += 1
                allocated = True
                break
        if not allocated:
            self._stat_allocation_failures += 1
            for t in range(start, self.num_tables):
                self._tables[t].update_useful(indices[t], -1)

    def _graceful_u_reset(self) -> None:
        """Alternately clear the high and low bit of every u counter."""
        high_bit = 1 << (self.useful_width - 1)
        bit = high_bit if self._u_reset_phase == 0 else 1
        for table in self._tables:
            table.decay_useful(bit)
        self._u_reset_phase ^= 1

    # ------------------------------------------------------------------
    # Scenario tracking.
    # ------------------------------------------------------------------

    def track(self, branch: Branch) -> None:
        """Push the outcome through the global history and folded registers."""
        self._history = push_history(self._registers, self._history,
                                     branch.taken, self._history_mask)
        self._path = ((self._path << 1) ^ (branch.ip & 0xFFFF)) & 0xFFFF
        self._cached_ip = None

    # ------------------------------------------------------------------
    # Output hooks.
    # ------------------------------------------------------------------

    def metadata_stats(self) -> dict[str, Any]:
        """Self-description for the simulator output."""
        return {
            "name": "repro TAGE",
            "num_tables": self.num_tables,
            "log_base_size": self.log_base_size,
            "log_tagged_size": self.log_tagged_size,
            "tag_widths": list(self.tag_widths),
            "history_lengths": list(self.history_lengths),
            "counter_width": self.counter_width,
            "useful_width": self.useful_width,
            "u_reset_period": self.u_reset_period,
        }

    def execution_stats(self) -> dict[str, Any]:
        """Provider distribution and allocation behaviour."""
        return {
            "provider_hits": {
                "base" if t == 0 else f"T{t}": count
                for t, count in enumerate(self._stat_provider_hits)
            },
            "allocations": self._stat_allocations,
            "allocation_failures": self._stat_allocation_failures,
            "use_alt_on_na": self._use_alt_on_na,
        }

    def on_warmup_end(self) -> None:
        """Reset statistics so they cover the measured region only."""
        self._stat_provider_hits = [0] * (self.num_tables + 1)
        self._stat_allocations = 0
        self._stat_allocation_failures = 0

    def probe_stats(self) -> dict[str, Any]:
        """Structural snapshot: the base table plus every tagged table."""
        from ..utils.tables import distribution_stats

        stats: dict[str, Any] = {
            "base": distribution_stats(self._base, -2, 1),
        }
        for t, table in enumerate(self._tables):
            stats[f"T{t + 1}"] = table.structural_stats()
        return stats

    def storage_bits(self) -> int:
        """Hardware budget of the configuration, in bits."""
        base = (1 << self.log_base_size) * 2
        tagged = sum(
            (1 << self.log_tagged_size)
            * (self.tag_widths[t] + self.counter_width + self.useful_width)
            for t in range(self.num_tables)
        )
        return base + tagged + max(self.history_lengths)
