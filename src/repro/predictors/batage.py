"""The BATAGE predictor (Michaud, 2018).

BATAGE — BAyesian TAGE — replaces TAGE's signed counters and
meta-predictors with *dual counters*: each tagged entry keeps how many
times its branch went taken (``n1``) and not-taken (``n0``), and the
estimated misprediction probability ``(1 + min) / (2 + n0 + n1)`` ranks
entries by confidence.  The prediction comes from the most confident
hitting entry (ties favour the longest history), which removes TAGE's
``use_alt_on_na`` machinery, and allocation pressure is governed by
**CAT** (Controlled Allocation Throttling).

The paper uses BATAGE as its heavyweight evaluation predictor: multiple
tables, prediction overriding by confidence priority, a non-trivial
update policy and a random number generator — the slowest predictor in
Table III, giving the worst-case speedup (3.25× over the CBP5 framework).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.branch import Branch
from ..core.predictor import Predictor
from ..utils.bits import mask
from ..utils.folded import FoldedHistory, push_history
from ..utils.hashing import xor_fold
from ..utils.lfsr import Lfsr
from .tage import IpFolds, geometric_history_lengths

__all__ = ["Batage", "dual_counter_confidence"]

#: Confidence levels, ordered best to worst.
HIGH, MEDIUM, LOW = 0, 1, 2


def dual_counter_confidence(n_taken: int, n_not_taken: int) -> int:
    """Confidence class of a dual counter (Michaud's derivation).

    The estimated misprediction probability is
    ``(1 + min) / (2 + n0 + n1)``; the classes are

    * ``HIGH``   — probability < 1/3  (``2*min + 1 < max``)
    * ``MEDIUM`` — 1/3 <= probability < 1/2
    * ``LOW``    — probability >= 1/2 (``min == max``, a coin toss)
    """
    low, high = ((n_taken, n_not_taken) if n_taken <= n_not_taken
                 else (n_not_taken, n_taken))
    if 2 * low + 1 < high:
        return HIGH
    if low < high:
        return MEDIUM
    return LOW


class _DualCounterTable:
    """Tagged table whose entries hold (tag, n_taken, n_not_taken)."""

    __slots__ = ("log_size", "tag_width", "counter_max",
                 "tags", "n_taken", "n_not_taken")

    def __init__(self, log_size: int, tag_width: int, counter_max: int):
        size = 1 << log_size
        self.log_size = log_size
        self.tag_width = tag_width
        self.counter_max = counter_max
        self.tags = [0] * size
        self.n_taken = [0] * size
        self.n_not_taken = [0] * size

    def update(self, index: int, taken: bool) -> None:
        """Michaud's dual-counter update: grow the witnessed side, or
        decay the opposite side when the witnessed one is saturated."""
        if taken:
            if self.n_taken[index] < self.counter_max:
                self.n_taken[index] += 1
            elif self.n_not_taken[index] > 0:
                self.n_not_taken[index] -= 1
        else:
            if self.n_not_taken[index] < self.counter_max:
                self.n_not_taken[index] += 1
            elif self.n_taken[index] > 0:
                self.n_taken[index] -= 1

    def decay(self, index: int) -> None:
        """Weaken the entry: decrement its larger side."""
        if self.n_taken[index] > self.n_not_taken[index]:
            self.n_taken[index] -= 1
        elif self.n_not_taken[index] > 0:
            self.n_not_taken[index] -= 1

    def allocate(self, index: int, tag: int, taken: bool) -> None:
        """Claim the entry with a weak counter seeded by the outcome."""
        self.tags[index] = tag
        self.n_taken[index] = 1 if taken else 0
        self.n_not_taken[index] = 0 if taken else 1


def _dual_table_stats(table: _DualCounterTable) -> dict[str, Any]:
    """Structural snapshot of a dual-counter table (:mod:`repro.probe`).

    Instead of counter-value entropy (dual counters are 2-D), reports
    the confidence-class mix derived from :func:`dual_counter_confidence`
    plus occupancy and saturation fractions.
    """
    import numpy as np

    n_taken = np.asarray(table.n_taken, dtype=np.int64)
    n_not_taken = np.asarray(table.n_not_taken, dtype=np.int64)
    entries = int(n_taken.size)
    low = np.minimum(n_taken, n_not_taken)
    high = np.maximum(n_taken, n_not_taken)
    high_conf = 2 * low + 1 < high
    return {
        "entries": entries,
        "live_fraction": float(((n_taken + n_not_taken) > 0).mean()),
        "saturated_fraction": float(
            ((n_taken == table.counter_max)
             | (n_not_taken == table.counter_max)).mean()),
        "high_confidence_fraction": float(high_conf.mean()),
        "medium_confidence_fraction": float((~high_conf & (low < high))
                                            .mean()),
        "low_confidence_fraction": float((low == high).mean()),
    }


class Batage(Predictor):
    """A parameterizable BATAGE.

    Parameters
    ----------
    num_tables:
        Number of tagged tables backing the base bimodal.
    log_base_size, log_tagged_size:
        log2 of the base and tagged table sizes.
    tag_widths:
        Per-table partial tag widths.
    min_history, max_history:
        Ends of the geometric history series.
    counter_max:
        Saturation value of each dual-counter half (3 bits → 7).
    cat_max:
        Range of the Controlled Allocation Throttling counter.
    skip_max:
        Largest number of tables an allocation may skip when CAT is
        fully throttled.
    """

    def __init__(self, num_tables: int = 7, log_base_size: int = 13,
                 log_tagged_size: int = 10,
                 tag_widths: Sequence[int] | None = None,
                 min_history: int = 5, max_history: int = 150,
                 counter_max: int = 7, cat_max: int = 1 << 14,
                 skip_max: int = 4, lfsr_seed: int = 0xBA7A6E):
        if num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        if counter_max < 1:
            raise ValueError("counter_max must be >= 1")
        if cat_max < 1:
            raise ValueError("cat_max must be >= 1")
        self.num_tables = num_tables
        self.log_base_size = log_base_size
        self.log_tagged_size = log_tagged_size
        self.min_history = min_history
        self.max_history = max_history
        self.counter_max = counter_max
        self.cat_max = cat_max
        self.skip_max = skip_max
        self.history_lengths = geometric_history_lengths(
            num_tables, min_history, max_history)
        if tag_widths is None:
            tag_widths = tuple(min(14, 8 + i) for i in range(num_tables))
        if len(tag_widths) != num_tables:
            raise ValueError("need one tag width per tagged table")
        self.tag_widths = tuple(tag_widths)

        # The base predictor is itself a dual-counter table (untagged).
        self._base = _DualCounterTable(log_base_size, 0, counter_max)
        self._base_mask = mask(log_base_size)
        self._tables = [
            _DualCounterTable(log_tagged_size, self.tag_widths[i], counter_max)
            for i in range(num_tables)
        ]
        self._history = 0  # bit i = outcome i branches ago
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
            range(num_tables), [3 * t for t in range(num_tables)],
            self._tables, self._folded_index, self._folded_tag0,
            self._folded_tag1, [mask(w) for w in self.tag_widths]))
        self._registers = (self._folded_index + self._folded_tag0
                           + self._folded_tag1)
        self._ip_folds = IpFolds(log_tagged_size, self.tag_widths)
        self._path = 0
        self._rng = Lfsr(width=32, seed=lfsr_seed)
        self._cat = 0  # Controlled Allocation Throttling state
        self._cached_ip: int | None = None
        self._cache: dict[str, Any] = {}
        self._stat_provider_hits = [0] * (num_tables + 1)
        self._stat_allocations = 0
        self._stat_decays = 0

    # ------------------------------------------------------------------
    # Prediction (index and tag shape shared with TAGE).
    # ------------------------------------------------------------------

    def _base_index(self, ip: int) -> int:
        return ip & self._base_mask

    def _lookup(self, ip: int) -> dict[str, Any]:
        # As in TAGE, the table-independent path fold is computed once per
        # prediction and the ip folds once per static branch; only the
        # salt (3 * t) differs from TAGE's.
        ip_index, ip_tags = self._ip_folds[ip]
        shared = ip_index ^ xor_fold(self._path, self.log_tagged_size)
        index_mask = self._index_mask
        indices = []
        tags = []
        hits = []
        for (t, salt, table, fi, f0, f1, tag_mask), ip_tag in zip(
                self._lanes, ip_tags):
            index = (shared ^ fi.value ^ salt) & index_mask
            tag = (ip_tag ^ f0.value ^ (f1.value << 1)) & tag_mask
            indices.append(index)
            tags.append(tag)
            if table.tags[index] == tag:
                hits.append(t)
        base_index = self._base_index(ip)
        base_n1 = self._base.n_taken[base_index]
        base_n0 = self._base.n_not_taken[base_index]

        # Scan candidates from the longest history down to the base and
        # keep the most confident; the scan order makes ties favour the
        # longer history (strict improvement is required to switch).
        best_table: int | None = None  # None = the base provides
        best_conf = dual_counter_confidence(base_n1, base_n0)
        best_pred = base_n1 >= base_n0
        first = True
        for t in reversed(hits):
            n1 = self._tables[t].n_taken[indices[t]]
            n0 = self._tables[t].n_not_taken[indices[t]]
            conf = dual_counter_confidence(n1, n0)
            if first or conf < best_conf:
                best_table, best_conf, best_pred = t, conf, n1 >= n0
            first = False
        if not first:
            # Base entry competes last: it wins only on strictly better
            # confidence than every hitting entry.
            base_conf = dual_counter_confidence(base_n1, base_n0)
            if base_conf < best_conf:
                best_table, best_conf = None, base_conf
                best_pred = base_n1 >= base_n0
        return {
            "indices": indices,
            "tags": tags,
            "hits": hits,
            "provider": best_table,
            "confidence": best_conf,
            "final": best_pred,
        }

    def predict(self, ip: int) -> bool:
        """Most confident hitting entry wins; longest history breaks ties."""
        state = self._lookup(ip)
        self._cached_ip = ip
        self._cache = state
        return state["final"]

    # ------------------------------------------------------------------
    # Training.
    # ------------------------------------------------------------------

    def train(self, branch: Branch) -> None:
        """Dual-counter updates, confidence-based decay and CAT allocation."""
        if self._cached_ip != branch.ip or not self._cache:
            self.predict(branch.ip)
        state = self._cache
        taken = branch.taken
        indices = state["indices"]
        hits: list[int] = state["hits"]
        provider = state["provider"]
        mispredicted = state["final"] != taken

        self._stat_provider_hits[0 if provider is None else provider + 1] += 1

        probe = self._probe
        if probe is not None:
            # The most confident entry provided; when that was not the
            # longest-history hit, confidence ranking overrode it.
            source = "base" if provider is None else f"T{provider + 1}"
            longest = hits[-1] if hits else None
            overrode = (f"T{longest + 1}"
                        if longest is not None and provider != longest
                        else None)
            probe.record(branch.ip, source, not mispredicted,
                         overrode=overrode)

        # Update the provider; also update the next candidate when the
        # provider is not yet highly confident (keeps the fallback warm).
        if provider is None:
            self._base.update(self._base_index(branch.ip), taken)
        else:
            self._tables[provider].update(indices[provider], taken)
            if state["confidence"] != HIGH:
                shorter = [t for t in hits if t < provider]
                if shorter:
                    t = shorter[-1]
                    self._tables[t].update(indices[t], taken)
                else:
                    self._base.update(self._base_index(branch.ip), taken)

        if mispredicted:
            self._allocate(taken, provider, indices, state["tags"])
        self._cached_ip = None

    def _allocate(self, taken: bool, provider: int | None,
                  indices: list[int], tags: list[int]) -> None:
        """CAT-throttled allocation in a longer-history table.

        The CAT counter tracks how often allocations clobber useful
        (high-confidence) entries; as it grows, allocations randomly skip
        tables, lowering the allocation rate.  Victims that are highly
        confident are decayed instead of stolen — controlled decay.
        """
        start = 0 if provider is None else provider + 1
        if start >= self.num_tables:
            return
        # Throttle: skip up to skip_max tables with probability cat/cat_max.
        skip = 0
        while (skip < self.skip_max
               and self._rng.below(self.cat_max, bits=14) < self._cat):
            skip += 1
        table = start + skip
        if table >= self.num_tables:
            return
        index = indices[table]
        entry = self._tables[table]
        n1, n0 = entry.n_taken[index], entry.n_not_taken[index]
        if dual_counter_confidence(n1, n0) == HIGH:
            # Useful victim: decay it, raise the throttle.
            entry.decay(index)
            self._stat_decays += 1
            self._cat = min(self.cat_max - 1, self._cat + 3)
        else:
            entry.allocate(index, tags[table], taken)
            self._stat_allocations += 1
            self._cat = max(0, self._cat - 1)

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
            "name": "repro BATAGE",
            "num_tables": self.num_tables,
            "log_base_size": self.log_base_size,
            "log_tagged_size": self.log_tagged_size,
            "tag_widths": list(self.tag_widths),
            "history_lengths": list(self.history_lengths),
            "counter_max": self.counter_max,
            "cat_max": self.cat_max,
            "skip_max": self.skip_max,
        }

    def execution_stats(self) -> dict[str, Any]:
        """Provider distribution, allocation and decay behaviour."""
        return {
            "provider_hits": {
                "base" if t == 0 else f"T{t}": count
                for t, count in enumerate(self._stat_provider_hits)
            },
            "allocations": self._stat_allocations,
            "controlled_decays": self._stat_decays,
            "cat": self._cat,
        }

    def on_warmup_end(self) -> None:
        """Reset statistics so they cover the measured region only."""
        self._stat_provider_hits = [0] * (self.num_tables + 1)
        self._stat_allocations = 0
        self._stat_decays = 0

    def probe_stats(self) -> dict[str, Any]:
        """Structural snapshot: confidence mix of every dual-counter table."""
        stats: dict[str, Any] = {"base": _dual_table_stats(self._base)}
        for t, table in enumerate(self._tables):
            stats[f"T{t + 1}"] = _dual_table_stats(table)
        return stats

    def storage_bits(self) -> int:
        """Hardware budget of the configuration, in bits."""
        counter_bits = 2 * (self.counter_max.bit_length())
        base = (1 << self.log_base_size) * counter_bits
        tagged = sum(
            (1 << self.log_tagged_size) * (self.tag_widths[t] + counter_bits)
            for t in range(self.num_tables)
        )
        return base + tagged + max(self.history_lengths)
