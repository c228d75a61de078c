"""Differential harness: the TAGE/BATAGE hot path against per-table formulas.

``Tage`` and ``Batage`` keep every folded register in one
:class:`~repro.utils.folded.FoldedBank` word, take the ``ip`` terms and
table salts from a memo filled once per static branch, read all
indices and tags in one unpack and pass tuple-shaped state from
``predict`` to ``train``.  The reference subclasses below share only
the tables, counters, LFSR and statistics of the class under test.
Everything on the hot path is their own: one :class:`FoldedHistory`
per register over their own :class:`HistoryWindow`, one
``_tagged_index``/``_tag`` call per table, a dict-shaped prediction
state, tags re-derived at allocation time, and their own
``predict``/``train``/``track``.  Both must agree on every per-branch
prediction, on the result JSON (minus ``simulation_time``), on
``execution_stats()`` and on the probe report, across table counts
(more tables than a table has entries, so salts wrap), table sizes,
tag widths (1- and 2-bit tags, whose second tag register is clamped to
one bit, and widths at the bank's slot boundaries), history lengths
around the folded widths and beyond 128 bits, and ``u`` reset periods.

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
from repro.utils.folded import FoldedHistory, HistoryWindow
from repro.utils.hashing import xor_fold
from tests.conftest import make_trace, scalar_predictions

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


class _ReferenceRegisters:
    """Per-table folded registers, window, path and prediction state,
    kept apart from the optimized class's attributes."""

    #: Table t's index salt is SALT * t.
    SALT = 1

    def _init_reference(self) -> None:
        lengths = self.history_lengths
        self._ref_window = HistoryWindow(max(lengths))
        self._ref_index = [FoldedHistory(length, self.log_tagged_size)
                           for length in lengths]
        self._ref_tag0 = [FoldedHistory(length, width)
                          for length, width in zip(lengths, self.tag_widths)]
        self._ref_tag1 = [FoldedHistory(length, max(1, width - 1))
                          for length, width in zip(lengths, self.tag_widths)]
        self._ref_path = 0
        self._ref_ip: int | None = None
        self._ref_state: dict[str, Any] = {}

    def _tagged_index(self, table: int, ip: int) -> int:
        w = self.log_tagged_size
        value = (xor_fold(ip, w) ^ xor_fold(ip >> w, w)
                 ^ self._ref_index[table].value
                 ^ xor_fold(self._ref_path, w) ^ (self.SALT * table))
        return value & mask(w)

    def _tag(self, table: int, ip: int) -> int:
        w = self.tag_widths[table]
        value = (xor_fold(ip, w) ^ self._ref_tag0[table].value
                 ^ (self._ref_tag1[table].value << 1))
        return value & mask(w)

    def predict(self, ip: int) -> bool:
        self._ref_state = self._reference_lookup(ip)
        self._ref_ip = ip
        return self._ref_state["final"]

    def _reference_state(self, ip: int) -> dict[str, Any]:
        if self._ref_ip != ip or not self._ref_state:
            self.predict(ip)
        return self._ref_state

    def track(self, branch) -> None:
        new_bit = branch.taken
        for t in range(self.num_tables):
            evicted = self._ref_window[self.history_lengths[t] - 1]
            self._ref_index[t].update(new_bit, evicted)
            self._ref_tag0[t].update(new_bit, evicted)
            self._ref_tag1[t].update(new_bit, evicted)
        self._ref_window.push(new_bit)
        self._ref_path = ((self._ref_path << 1)
                          ^ (branch.ip & 0xFFFF)) & 0xFFFF
        self._ref_ip = None


class _ReferenceTage(_ReferenceRegisters, Tage):
    """TAGE with one index/tag computation per table and lookup."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._init_reference()

    def _reference_lookup(self, ip: int) -> dict[str, Any]:
        indices = [self._tagged_index(t, ip) for t in range(self.num_tables)]
        tags = [self._tag(t, ip) for t in range(self.num_tables)]
        hits = [
            t for t in range(self.num_tables)
            if self._tables[t].matches(indices[t], tags[t])
        ]
        base_pred = self._base[ip & mask(self.log_base_size)] >= 0
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
            "provider": provider,
            "alt": alt,
            "provider_pred": provider_pred,
            "alt_pred": alt_pred,
            "weak": weak,
            "alt_used": alt_used,
            "final": final,
        }

    def _update_base(self, ip: int, taken: bool) -> None:
        i = ip & mask(self.log_base_size)
        self._base[i] = (min(1, self._base[i] + 1) if taken
                         else max(-2, self._base[i] - 1))

    def train(self, branch) -> None:
        ip, taken = branch.ip, branch.taken
        state = self._reference_state(ip)
        indices = state["indices"]
        provider = state["provider"]
        mispredicted = state["final"] != taken
        self._stat_provider_hits[0 if provider is None else provider + 1] += 1

        if self._probe is not None:
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
            self._probe.record(ip, source, not mispredicted,
                               overrode=overrode)

        if provider is None:
            self._update_base(ip, taken)
        else:
            table = self._tables[provider]
            if state["weak"] and state["provider_pred"] != state["alt_pred"]:
                step = 1 if state["alt_pred"] == taken else -1
                self._use_alt_on_na = min(self.USE_ALT_MAX, max(
                    0, self._use_alt_on_na + step))
            table.update_counter(indices[provider], taken)
            if state["weak"]:
                if state["alt"] is not None:
                    self._tables[state["alt"]].update_counter(
                        indices[state["alt"]], taken)
                else:
                    self._update_base(ip, taken)
            if state["provider_pred"] != state["alt_pred"]:
                table.update_useful(
                    indices[provider],
                    1 if state["provider_pred"] == taken else -1)

        if mispredicted:
            self._reference_allocate(ip, taken, provider, indices)
        self._train_count += 1
        if self._train_count % self.u_reset_period == 0:
            self._graceful_u_reset()
        self._ref_ip = None

    def _reference_allocate(self, ip, taken, provider, indices) -> None:
        # Re-derives each tag from the branch address.
        start = 0 if provider is None else provider + 1
        if start >= self.num_tables:
            return
        offset = 0
        span = self.num_tables - start
        while offset < span - 1 and self._rng.next_bit():
            offset += 1
            if offset >= 2:
                break
        for t in range(start + offset, self.num_tables):
            index = indices[t]
            if int(self._tables[t].useful[index]) == 0:
                self._tables[t].allocate(index, self._tag(t, ip), taken)
                self._stat_allocations += 1
                return
        self._stat_allocation_failures += 1
        for t in range(start, self.num_tables):
            self._tables[t].update_useful(indices[t], -1)


class _ReferenceBatage(_ReferenceRegisters, Batage):
    """BATAGE with one index/tag computation per table and lookup."""

    SALT = 3

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._init_reference()

    def _reference_lookup(self, ip: int) -> dict[str, Any]:
        indices = [self._tagged_index(t, ip) for t in range(self.num_tables)]
        hits = [
            t for t in range(self.num_tables)
            if self._tables[t].tags[indices[t]] == self._tag(t, ip)
        ]
        base_index = ip & mask(self.log_base_size)
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
            "hits": hits,
            "provider": best_table,
            "confidence": best_conf,
            "final": best_pred,
        }

    def train(self, branch) -> None:
        ip, taken = branch.ip, branch.taken
        state = self._reference_state(ip)
        indices = state["indices"]
        hits = state["hits"]
        provider = state["provider"]
        mispredicted = state["final"] != taken
        self._stat_provider_hits[0 if provider is None else provider + 1] += 1

        if self._probe is not None:
            source = "base" if provider is None else f"T{provider + 1}"
            longest = hits[-1] if hits else None
            overrode = (f"T{longest + 1}"
                        if longest is not None and provider != longest
                        else None)
            self._probe.record(ip, source, not mispredicted,
                               overrode=overrode)

        base_index = ip & mask(self.log_base_size)
        if provider is None:
            self._base.update(base_index, taken)
        else:
            self._tables[provider].update(indices[provider], taken)
            if state["confidence"] != HIGH:
                shorter = [t for t in hits if t < provider]
                if shorter:
                    self._tables[shorter[-1]].update(indices[shorter[-1]],
                                                     taken)
                else:
                    self._base.update(base_index, taken)

        if mispredicted:
            self._reference_allocate(ip, taken, provider, indices)
        self._ref_ip = None

    def _reference_allocate(self, ip, taken, provider, indices) -> None:
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

#: Tag widths on either side of the bank's 8/16/32/64-bit slot sizes.
_SLOT_EDGES = (7, 8, 15, 16, 31, 32)


def draw_case(integer: Callable[[int, int], int],
              choice: Callable[[list], Any]) -> tuple[dict, dict, Any]:
    """(TAGE kwargs, BATAGE kwargs, trace) from two draw primitives.

    History lengths are drawn around the folded widths: one below,
    equal to, and multiples of ``log_tagged_size`` or the first tag
    width, so the evicted bit lands at every fold position, or past
    128 bits.  Tables of 2 to 8 entries next to up to 12 tables make
    the salts wrap.
    """
    num_tables = integer(1, 12)
    log_tagged_size = choice([integer(1, 3), integer(1, 12)])
    tag_widths = tuple(choice([1, 2, integer(3, 14), choice(_SLOT_EDGES)])
                       for _ in range(num_tables))
    width = choice([log_tagged_size, tag_widths[0]])
    min_history = choice([max(1, width - 1), width, 2 * width,
                          integer(1, 3) * width])
    max_history = choice([min_history, min_history + width,
                          min_history * integer(2, 6), integer(129, 300)])
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

    def _lookup(self, ip: int) -> tuple:
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
