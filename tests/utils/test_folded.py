"""Property tests for the folded-history invariant.

The whole point of :class:`FoldedHistory` is the O(1)-maintained
invariant ``folded.value == xor_fold(window.value(L), W)``; these tests
hammer it across lengths, widths and outcome sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bits import mask
from repro.utils.folded import FoldedHistory, HistoryWindow, push_history
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


class TestPushHistory:
    """The one-pass update of many registers over an integer history."""

    # Width above length, width dividing length, 1-bit widths and a
    # length-1 register, beside TAGE-like shapes.
    FIXED_SHAPES = [(5, 11), (24, 8), (9, 1), (1, 1), (1, 4), (16, 16),
                    (130, 10), (130, 13), (130, 12)]

    def _run(self, shapes, outcomes):
        longest = max(length for length, _ in shapes)
        window = HistoryWindow(longest)
        registers = [FoldedHistory(length, width) for length, width in shapes]
        independent = [FoldedHistory(length, width)
                       for length, width in shapes]
        history = 0
        for taken in outcomes:
            for folded in independent:
                folded.update(taken, window[folded.history_length - 1])
            window.push(taken)
            history = push_history(registers, history, taken, mask(longest))
            assert history == window.value(longest)
            for register, folded in zip(registers, independent):
                expected = xor_fold(window.value(register.history_length),
                                    register.folded_width)
                assert register.value == expected == folded.value

    @given(st.lists(st.booleans(), max_size=300))
    def test_fixed_shapes_match_xor_fold_and_update(self, outcomes):
        self._run(self.FIXED_SHAPES, outcomes)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=64),
                              st.integers(min_value=1, max_value=16)),
                    min_size=1, max_size=8),
           st.lists(st.booleans(), min_size=70, max_size=160))
    def test_random_shapes_match_xor_fold_and_update(self, shapes, outcomes):
        self._run(shapes, outcomes)

    def test_truthy_outcomes_shift_in_a_one(self):
        import numpy as np

        plain = [FoldedHistory(5, 3)]
        mixed = [FoldedHistory(5, 3)]
        history_plain = history_mixed = 0
        for taken, raw in [(True, np.bool_(True)), (False, 0),
                           (True, 2), (True, np.int64(1))]:
            history_plain = push_history(plain, history_plain, taken,
                                         mask(5))
            history_mixed = push_history(mixed, history_mixed, raw, mask(5))
            assert history_mixed == history_plain
            assert mixed[0].value == plain[0].value
