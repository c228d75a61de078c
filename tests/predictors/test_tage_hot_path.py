"""Differential harness: the TAGE/BATAGE hot path against per-table formulas.

``Tage._lookup`` and ``Batage._lookup`` fold the table-independent
``path`` term once per prediction, take the ``ip`` terms from a memo
filled once per static branch, and zip their per-table registers;
``track`` updates every register in one pass over an integer history.
The reference subclasses below keep the straightforward per-table
formulas instead: one ``_tagged_index``/``_tag`` call per table, tags
re-derived at allocation time, and an index-by-index ``track`` over
their own :class:`HistoryWindow`.  Both must agree on every per-branch
prediction, on the result JSON (minus ``simulation_time``), on
``execution_stats()`` and on the probe report, across table counts,
table sizes, tag widths (including the 1- and 2-bit tags whose second
tag register is clamped to one bit), history lengths around the folded
widths and ``u`` reset periods.

Uses `hypothesis` when the environment provides it; otherwise the same
properties run against draws from a seeded ``random.Random``.
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable

import numpy as np
import pytest

from repro.core.branch import OPCODE_COND_JUMP, OPCODE_JUMP
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import Batage, Tage
from repro.predictors.batage import HIGH, dual_counter_confidence
from repro.predictors.tage import IpFolds
from repro.probe import PredictionProbe
from repro.utils.bits import mask
from repro.utils.folded import HistoryWindow
from repro.utils.hashing import xor_fold
from tests.conftest import make_trace, scalar_predictions

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


def _reference_track(self, branch) -> None:
    new_bit = branch.taken
    for t in range(self.num_tables):
        evicted = self._window[self.history_lengths[t] - 1]
        self._folded_index[t].update(new_bit, evicted)
        self._folded_tag0[t].update(new_bit, evicted)
        self._folded_tag1[t].update(new_bit, evicted)
    self._window.push(new_bit)
    self._path = ((self._path << 1) ^ (branch.ip & 0xFFFF)) & 0xFFFF
    self._cached_ip = None


def _reference_tag(self, table: int, ip: int) -> int:
    w = self.tag_widths[table]
    value = (xor_fold(ip, w) ^ self._folded_tag0[table].value
             ^ (self._folded_tag1[table].value << 1))
    return value & mask(w)


class _ReferenceTage(Tage):
    """TAGE with one index/tag computation per table and lookup."""

    track = _reference_track
    _tag = _reference_tag

    def __init__(self, **kwargs) -> None:
        # Tage keeps its history as an integer; the reference reads the
        # evicted bits from its own window.
        super().__init__(**kwargs)
        self._window = HistoryWindow(max(self.history_lengths))

    def _tagged_index(self, table: int, ip: int) -> int:
        w = self.log_tagged_size
        value = (xor_fold(ip, w) ^ xor_fold(ip >> w, w)
                 ^ self._folded_index[table].value
                 ^ xor_fold(self._path, w) ^ table)
        return value & mask(w)

    def _lookup(self, ip: int) -> dict[str, Any]:
        indices = [self._tagged_index(t, ip) for t in range(self.num_tables)]
        tags = [self._tag(t, ip) for t in range(self.num_tables)]
        hits = [
            t for t in range(self.num_tables)
            if self._tables[t].matches(indices[t], tags[t])
        ]
        base_pred = self._base[self._base_index(ip)] >= 0
        provider = hits[-1] if hits else None
        alt = hits[-2] if len(hits) >= 2 else None

        if provider is not None:
            counter = int(self._tables[provider].counters[indices[provider]])
            provider_pred = counter >= 0
            weak = counter in (0, -1)
        else:
            provider_pred = base_pred
            weak = False
        if alt is not None:
            alt_counter = int(self._tables[alt].counters[indices[alt]])
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

    def _allocate(self, taken, provider, indices, tags) -> None:
        # Ignores the lookup's tags: re-derives each one from the branch
        # address, which train() still holds in _cached_ip.
        ip = self._cached_ip
        start = 0 if provider is None else provider + 1
        if start >= self.num_tables:
            return
        offset = 0
        span = self.num_tables - start
        while offset < span - 1 and self._rng.next_bit():
            offset += 1
            if offset >= 2:
                break
        allocated = False
        for t in range(start + offset, self.num_tables):
            index = indices[t]
            if int(self._tables[t].useful[index]) == 0:
                tag = self._tag(t, ip)
                self._tables[t].allocate(index, tag, taken)
                self._stat_allocations += 1
                allocated = True
                break
        if not allocated:
            self._stat_allocation_failures += 1
            for t in range(start, self.num_tables):
                self._tables[t].update_useful(indices[t], -1)


class _ReferenceBatage(Batage):
    """BATAGE with one index/tag computation per table and lookup."""

    track = _reference_track
    _tag = _reference_tag

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._window = HistoryWindow(max(self.history_lengths))

    def _tagged_index(self, table: int, ip: int) -> int:
        w = self.log_tagged_size
        value = (xor_fold(ip, w) ^ xor_fold(ip >> w, w)
                 ^ self._folded_index[table].value
                 ^ xor_fold(self._path, w) ^ (table * 3))
        return value & mask(w)

    def _lookup(self, ip: int) -> dict[str, Any]:
        indices = [self._tagged_index(t, ip) for t in range(self.num_tables)]
        tags = [self._tag(t, ip) for t in range(self.num_tables)]
        hits = [
            t for t in range(self.num_tables)
            if self._tables[t].tags[indices[t]] == tags[t]
        ]
        base_index = self._base_index(ip)
        base_n1 = self._base.n_taken[base_index]
        base_n0 = self._base.n_not_taken[base_index]

        best_table = None
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

    def _allocate(self, taken, provider, indices, tags) -> None:
        ip = self._cached_ip
        start = 0 if provider is None else provider + 1
        if start >= self.num_tables:
            return
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
            entry.decay(index)
            self._stat_decays += 1
            self._cat = min(self.cat_max - 1, self._cat + 3)
        else:
            entry.allocate(index, self._tag(table, ip), taken)
            self._stat_allocations += 1
            self._cat = max(0, self._cat - 1)


#: Bases of the branch-address pool: low, 47-bit PIE-like and 64-bit.
_IP_BASES = (0x40_0000, 0x5555_5540_0000, 0xFFFF_F000_0000_0000)


def draw_case(integer: Callable[[int, int], int],
              choice: Callable[[list], Any]) -> tuple[dict, dict, Any]:
    """(TAGE kwargs, BATAGE kwargs, trace) from two draw primitives.

    History lengths are drawn around the folded widths: one below,
    equal to, and multiples of ``log_tagged_size`` or the first tag
    width, so the evicted bit lands at every fold position.
    """
    num_tables = integer(1, 8)
    log_tagged_size = integer(1, 12)
    tag_widths = tuple(choice([1, 2, integer(3, 14)])
                       for _ in range(num_tables))
    width = choice([log_tagged_size, tag_widths[0]])
    min_history = choice([max(1, width - 1), width, 2 * width,
                          integer(1, 3) * width])
    max_history = choice([min_history, min_history + width,
                          min_history * integer(2, 6)])
    shape = dict(num_tables=num_tables, log_base_size=integer(1, 8),
                 log_tagged_size=log_tagged_size, tag_widths=tag_widths,
                 min_history=min_history, max_history=max_history)
    tage = dict(shape, u_reset_period=integer(1, 64))
    batage = dict(shape, counter_max=integer(1, 7),
                  cat_max=choice([1, 64, 1 << 14]))

    base = choice(list(_IP_BASES))
    pool = [base + 4 * integer(0, 255) for _ in range(integer(1, 24))]
    ips, taken, opcodes = [], [], []
    for _ in range(integer(1, 300)):
        ips.append(choice(pool))
        conditional = integer(0, 9) > 0
        opcodes.append(int(OPCODE_COND_JUMP if conditional else OPCODE_JUMP))
        taken.append(integer(0, 2) > 0 or not conditional)
    trace = make_trace(ips, taken, opcodes=opcodes)
    return tage, batage, trace


def comparable_document(result) -> dict:
    document = json.loads(result.to_json_string())
    del document["metrics"]["simulation_time"]
    return document


def assert_hot_path_matches_reference(optimized, reference, kwargs,
                                      trace) -> None:
    assert np.array_equal(scalar_predictions(optimized(**kwargs), trace),
                          scalar_predictions(reference(**kwargs), trace))
    config = SimulationConfig(warmup_instructions=trace.num_instructions // 4)
    runs = []
    for factory in (optimized, reference):
        predictor = factory(**kwargs)
        probe = PredictionProbe()
        result = simulate(predictor, trace, config, probe=probe)
        runs.append((comparable_document(result),
                     predictor.execution_stats(),
                     json.dumps(result.probe_report)))
    assert runs[0] == runs[1]


def check_case(integer, choice) -> None:
    tage, batage, trace = draw_case(integer, choice)
    assert_hot_path_matches_reference(Tage, _ReferenceTage, tage, trace)
    assert_hot_path_matches_reference(Batage, _ReferenceBatage, batage,
                                      trace)


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hot_path_matches_per_table_formulas(data):
        check_case(lambda lo, hi: data.draw(st.integers(lo, hi)),
                   lambda values: data.draw(st.sampled_from(values)))

else:  # pragma: no cover - environments without hypothesis

    @pytest.mark.parametrize("seed", range(25))
    def test_hot_path_matches_per_table_formulas(seed):
        rng = random.Random(seed)
        check_case(rng.randint, rng.choice)


@pytest.mark.parametrize("tag_widths", [(1, 2), (2, 1), (14, 1)])
def test_narrow_tags_match_reference(tag_widths):
    """1- and 2-bit tags: the second tag register is clamped to 1 bit."""
    rng = random.Random(sum(tag_widths))
    pool = [0x5555_5540_0000 + 4 * i for i in range(12)]
    ips = [rng.choice(pool) for _ in range(400)]
    trace = make_trace(ips, [rng.random() < 0.6 for _ in ips])
    kwargs = dict(num_tables=2, log_tagged_size=3, tag_widths=tag_widths,
                  min_history=2, max_history=8)
    assert_hot_path_matches_reference(Tage, _ReferenceTage,
                                      dict(kwargs, u_reset_period=7), trace)
    assert_hot_path_matches_reference(Batage, _ReferenceBatage, kwargs,
                                      trace)


def test_default_configurations_match_reference(small_trace):
    """The Table II defaults over a realistic synthetic program."""
    assert_hot_path_matches_reference(Tage, _ReferenceTage, {}, small_trace)
    assert_hot_path_matches_reference(Batage, _ReferenceBatage, {},
                                      small_trace)


class _MemoWatchingTage(Tage):
    """TAGE that records the largest size its ``ip`` memo reached."""

    memo_peak = 0

    def _lookup(self, ip: int) -> dict[str, Any]:
        state = super()._lookup(ip)
        self.memo_peak = max(self.memo_peak, len(self._ip_folds))
        return state


def test_ip_memo_stays_bounded_and_matches_reference():
    """More distinct ips than the memo holds: it is cleared, never grows
    past its bound, and the results equal the per-table reference's."""
    bound = IpFolds.MAX_ENTRIES
    rng = random.Random(bound)
    pool = [0x5555_5540_0000 + 4 * i for i in range(bound + 512)]
    ips = pool + rng.sample(pool, 1024) + pool[:256]
    trace = make_trace(ips, [rng.random() < 0.6 for _ in ips])
    config = SimulationConfig(warmup_instructions=len(ips) // 4)
    watched = _MemoWatchingTage()
    documents = [comparable_document(simulate(predictor, trace, config))
                 for predictor in (watched, _ReferenceTage())]
    assert watched.memo_peak == bound
    assert len(watched._ip_folds) < bound  # cleared at least once
    assert documents[0] == documents[1]
