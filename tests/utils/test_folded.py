"""Property tests for the folded-history invariant.

The whole point of :class:`FoldedHistory` is the O(1)-maintained
invariant ``folded.value == xor_fold(window.value(L), W)``; these tests
hammer it across lengths, widths and outcome sequences, and check every
lane of a :class:`FoldedBank` against it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bits import mask
from repro.utils.folded import FoldedBank, FoldedHistory, HistoryWindow
from repro.utils.hashing import xor_fold


class TestHistoryWindow:
    def test_push_and_index(self):
        window = HistoryWindow(4)
        window.push(True)
        window.push(False)
        assert window[0] == 0  # newest
        assert window[1] == 1

    def test_wraps_and_discards(self):
        window = HistoryWindow(3)
        for taken in (True, True, True, False):
            window.push(taken)
        assert window[0] == 0
        assert window[1] == 1
        assert window[2] == 1

    def test_value_packs_lsb_newest(self):
        window = HistoryWindow(8)
        for taken in (True, False, True):  # newest last
            window.push(taken)
        assert window.value(3) == 0b101

    def test_value_length_bounds(self):
        window = HistoryWindow(4)
        with pytest.raises(ValueError):
            window.value(5)

    def test_index_bounds(self):
        window = HistoryWindow(4)
        with pytest.raises(IndexError):
            window[4]

    def test_reset(self):
        window = HistoryWindow(4)
        window.push(True)
        window.reset()
        assert window.value(4) == 0

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            HistoryWindow(0)


class TestFoldedHistoryInvariant:
    def _run(self, history_length, folded_width, outcomes):
        window = HistoryWindow(history_length)
        folded = FoldedHistory(history_length, folded_width)
        for taken in outcomes:
            evicted = window[history_length - 1]
            folded.update(taken, evicted)
            window.push(taken)
            expected = xor_fold(window.value(history_length), folded_width)
            assert folded.value == expected
        return folded

    @given(st.lists(st.booleans(), max_size=150))
    def test_invariant_width_smaller_than_length(self, outcomes):
        self._run(history_length=23, folded_width=7, outcomes=outcomes)

    @given(st.lists(st.booleans(), max_size=150))
    def test_invariant_width_larger_than_length(self, outcomes):
        self._run(history_length=5, folded_width=11, outcomes=outcomes)

    @given(st.lists(st.booleans(), max_size=150))
    def test_invariant_width_divides_length(self, outcomes):
        self._run(history_length=24, folded_width=8, outcomes=outcomes)

    @given(st.lists(st.booleans(), max_size=80))
    def test_invariant_width_one(self, outcomes):
        self._run(history_length=9, folded_width=1, outcomes=outcomes)

    @given(st.integers(min_value=1, max_value=40),
           st.lists(st.booleans(), max_size=100))
    def test_invariant_width_one_any_length(self, length, outcomes):
        # A 1-bit fold is the parity of the window (TAGE's second tag
        # register for 1- and 2-bit tags).
        self._run(history_length=length, folded_width=1, outcomes=outcomes)

    def test_update_accepts_truthy_outcomes(self):
        # Non-bool truthy outcomes (numpy bools, ints) shift in a 1.
        import numpy as np

        plain = FoldedHistory(5, 3)
        mixed = FoldedHistory(5, 3)
        for taken, raw in [(True, np.bool_(True)), (False, 0),
                           (True, 2), (True, np.int64(1))]:
            plain.update(taken, 0)
            mixed.update(raw, 0)
            assert mixed.value == plain.value

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=16),
           st.lists(st.booleans(), min_size=70, max_size=140))
    def test_invariant_random_shapes(self, length, width, outcomes):
        self._run(history_length=length, folded_width=width,
                  outcomes=outcomes)

    def test_reset(self):
        folded = FoldedHistory(10, 4)
        folded.update(True, 0)
        folded.reset()
        assert folded.value == 0

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            FoldedHistory(0, 4)
        with pytest.raises(ValueError):
            FoldedHistory(4, 0)

    def test_int_conversion(self):
        folded = FoldedHistory(8, 4)
        folded.update(True, 0)
        assert int(folded) == folded.value


class TestFoldedBank:
    """Every lane of the packed bank against FoldedHistory and xor_fold."""

    # (history lengths, index width, tag widths).  Slots of 8 bits
    # (widths 1-7), then widths and width spreads that force 16, 32, 64
    # and 128-bit slots, beside the default TAGE and BATAGE shapes.
    FIXED_SHAPES = [
        ((5,), 3, (4,)),
        ((1, 2, 3), 1, (1, 2, 7)),
        ((9, 24), 8, (8, 1)),
        ((16, 40, 130), 15, (15, 16, 8)),
        ((3, 300), 16, (1, 16)),
        ((7, 64, 200), 31, (1, 12, 31)),
        ((11, 129), 40, (1, 2)),
        ((5, 9, 15, 25, 44, 75, 130), 10, (7, 8, 9, 10, 11, 12, 13)),
        ((5, 10, 17, 29, 50, 87, 150), 10, (8, 9, 10, 11, 12, 13, 14)),
    ]

    def _run(self, lengths, index_width, tag_widths, outcomes):
        shapes = ([(length, index_width) for length in lengths]
                  + list(zip(lengths, tag_widths))
                  + [(length, max(1, w - 1))
                     for length, w in zip(lengths, tag_widths)])
        longest = max(lengths)
        window = HistoryWindow(longest)
        independent = [FoldedHistory(length, width)
                       for length, width in shapes]
        bank = FoldedBank(lengths, index_width, tag_widths)
        for taken in outcomes:
            for folded in independent:
                folded.update(taken, window[folded.history_length - 1])
            window.push(taken)
            bank.push(taken)
            history = window.value(longest)
            assert bank.history == history
            expected = tuple(xor_fold(history & mask(length), width)
                             for length, width in shapes)
            assert self._lanes(bank) == expected
            assert expected == tuple(folded.value for folded in independent)
        return bank

    @staticmethod
    def _lanes(bank):
        return tuple((bank.word >> (k * bank.slot)) & mask(bank.slot)
                     for k in range(3 * len(bank.tag_widths)))

    def _check_read(self, bank, rng):
        n = len(bank.tag_widths)
        lanes = self._lanes(bank)
        index_terms = [rng.getrandbits(bank.index_width) for _ in range(n)]
        tag_terms = [rng.getrandbits(w) for w in bank.tag_widths]
        shared = rng.getrandbits(rng.choice([bank.index_width, 16, 64]))
        read = bank.read(bank.pack(index_terms, tag_terms), shared)
        fold = xor_fold(shared, bank.index_width)
        assert read[:n] == tuple(lanes[t] ^ index_terms[t] ^ fold
                                 for t in range(n))
        assert read[n:] == tuple(
            (lanes[n + t] ^ (lanes[2 * n + t] << 1) ^ tag_terms[t])
            & mask(w) for t, w in enumerate(bank.tag_widths))

    @settings(max_examples=20, deadline=None)
    @given(outcomes=st.lists(st.booleans(), max_size=400),
           seed=st.integers(0, 2**32))
    def test_fixed_shapes_match_xor_fold_and_update(self, outcomes, seed):
        for shape in self.FIXED_SHAPES:
            bank = self._run(*shape, outcomes)
            self._check_read(bank, random.Random(seed))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_shapes_match_xor_fold_and_update(self, data):
        n = data.draw(st.integers(1, 12))
        lengths = data.draw(st.lists(st.integers(1, 300), min_size=n,
                                     max_size=n))
        index_width = data.draw(st.integers(1, 16))
        tag_widths = data.draw(st.lists(st.integers(1, 16), min_size=n,
                                        max_size=n))
        outcomes = data.draw(st.lists(st.booleans(), min_size=70,
                                      max_size=400))
        bank = self._run(lengths, index_width, tag_widths, outcomes)
        self._check_read(bank, random.Random(data.draw(st.integers(0, 99))))

    @pytest.mark.parametrize("index_width, tag_widths, slot", [
        (7, (7, 6), 8), (8, (1,), 16), (12, (12, 15), 16), (16, (4,), 32),
        (9, (1,), 32), (28, (30, 20), 32), (17, (1,), 64), (40, (30,), 64),
        (33, (1,), 128)])
    def test_slot_fits_widest_register_and_twice_the_spread(
            self, index_width, tag_widths, slot):
        bank = FoldedBank([3] * len(tag_widths), index_width, tag_widths)
        assert bank.slot == slot

    def test_truthy_outcomes_shift_in_a_one(self):
        import numpy as np

        plain = FoldedBank([5], 3, [4])
        mixed = FoldedBank([5], 3, [4])
        for taken, raw in [(True, np.bool_(True)), (False, 0),
                           (True, 2), (True, np.int64(1))]:
            plain.push(taken)
            mixed.push(raw)
            assert mixed.history == plain.history
            assert mixed.word == plain.word

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            FoldedBank([], 4, [])
        with pytest.raises(ValueError):
            FoldedBank([4, 8], 4, [6])
        with pytest.raises(ValueError):
            FoldedBank([0], 4, [6])
        with pytest.raises(ValueError):
            FoldedBank([4], 0, [6])
