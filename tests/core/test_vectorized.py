"""Equivalence and unit tests for the vectorized engine.

The headline property: the numpy kernels are *bit-exact* against the
scalar predictors driven by the standard simulator, prediction by
prediction — not just in aggregate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import SimulationConfig, simulate
from repro.core.vectorized import (
    clamped_walk_states,
    global_history_windows,
    simulate_vectorized,
    xor_fold_array,
)
from repro.predictors import Bimodal, GShare
from repro.utils.hashing import xor_fold
from tests.conftest import (
    OPCODE_COND_JUMP,
    OPCODE_JUMP,
    assert_kernel_matches_scalar,
    make_trace,
)


class TestClampedWalkScan:
    def _reference(self, segments, steps, lo, hi, initial=0):
        states = {}
        out = []
        for segment, step in zip(segments, steps):
            state = states.get(segment, initial)
            out.append(state)
            states[segment] = max(lo, min(hi, state + step))
        return out

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()),
                    max_size=300))
    def test_matches_sequential_reference(self, events):
        segments = np.array(sorted(s for s, _ in events), dtype=np.int64)
        order = np.argsort([s for s, _ in events], kind="stable")
        steps = np.array([1 if events[i][1] else -1 for i in order],
                         dtype=np.int64)
        result = clamped_walk_states(segments, steps, -2, 1)
        expected = self._reference(segments, steps, -2, 1)
        assert result.tolist() == expected

    def test_empty_input(self):
        out = clamped_walk_states(np.zeros(0, np.int64),
                                  np.zeros(0, np.int64), -2, 1)
        assert len(out) == 0

    def test_length_mismatch_rejected(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            clamped_walk_states(np.zeros(2, np.int64),
                                np.zeros(3, np.int64), -2, 1)

    @given(st.lists(st.booleans(), min_size=1, max_size=60),
           st.integers(min_value=-3, max_value=3))
    def test_degenerate_lo_equals_hi(self, outcomes, bound):
        # A one-value codomain: every update clamps to the single state.
        # The closure algebra must survive B' = min(Bg, max(Ag, Bf + Cg))
        # collapsing to a constant, not just the common lo < hi case.
        segments = np.zeros(len(outcomes), dtype=np.int64)
        steps = np.array([1 if t else -1 for t in outcomes], dtype=np.int64)
        result = clamped_walk_states(segments, steps, bound, bound,
                                     initial=0)
        expected = self._reference(segments, steps, bound, bound)
        assert result.tolist() == expected
        # After the first update the state is pinned at the bound.
        assert result[1:].tolist() == [bound] * (len(outcomes) - 1)

    def test_lo_above_hi_rejected(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            clamped_walk_states(np.zeros(2, np.int64),
                                np.array([1, -1], np.int64), 1, -1)

    @given(st.integers(min_value=1, max_value=4),
           st.lists(st.booleans(), min_size=1, max_size=120))
    def test_single_segment_various_widths(self, width, outcomes):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        segments = np.zeros(len(outcomes), dtype=np.int64)
        steps = np.array([1 if t else -1 for t in outcomes], dtype=np.int64)
        result = clamped_walk_states(segments, steps, lo, hi)
        expected = self._reference(segments, steps, lo, hi)
        assert result.tolist() == expected


class TestHistoryWindows:
    @given(st.lists(st.booleans(), max_size=120),
           st.integers(min_value=1, max_value=20))
    def test_matches_global_history_register(self, outcomes, length):
        from repro.utils.history import GlobalHistory

        taken = np.array(outcomes, dtype=bool)
        windows = global_history_windows(taken, length)
        register = GlobalHistory(length)
        for t in range(len(outcomes)):
            assert int(windows[t]) == register.value
            register.push(outcomes[t])

    def test_invalid_length_rejected(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            global_history_windows(np.zeros(4, bool), 0)
        with pytest.raises(SimulationError):
            global_history_windows(np.zeros(4, bool), 64)


class TestXorFoldArray:
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    max_size=50),
           st.integers(min_value=1, max_value=24))
    def test_matches_scalar_fold(self, values, width):
        array = np.array(values, dtype=np.uint64)
        folded = xor_fold_array(array, width)
        for value, result in zip(values, folded.tolist()):
            assert result == xor_fold(value, width)

    def test_invalid_width(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            xor_fold_array(np.zeros(1, np.uint64), 0)


def _random_trace(seed, n=2000, conditional_fraction=0.9):
    rng = np.random.default_rng(seed)
    ips = rng.integers(0x40_0000, 0x40_4000, n).astype(np.uint64)
    conditional = rng.random(n) < conditional_fraction
    opcodes = np.where(conditional, int(OPCODE_COND_JUMP),
                       int(OPCODE_JUMP)).astype(np.uint8)
    taken = np.where(conditional, rng.random(n) < 0.6, True)
    gaps = rng.integers(0, 6, n).astype(np.uint16)
    return make_trace(ips.tolist(), taken.tolist(),
                      opcodes=opcodes.tolist(), gaps=gaps.tolist())


class TestBimodalEquivalence:
    @pytest.mark.parametrize("log_size,width", [(6, 2), (10, 2), (8, 3),
                                                (4, 1)])
    def test_bit_exact_vs_scalar(self, log_size, width):
        trace = _random_trace(seed=log_size * 10 + width)
        assert_kernel_matches_scalar(
            lambda: Bimodal(log_table_size=log_size, counter_width=width),
            trace)

    def test_warmup_equivalence(self):
        trace = _random_trace(seed=3)
        config = SimulationConfig(warmup_instructions=500)
        scalar = simulate(Bimodal(log_table_size=8), trace, config)
        vectorized = simulate_vectorized(Bimodal(log_table_size=8), trace,
                                         config)
        assert vectorized.mispredictions == scalar.mispredictions
        assert (vectorized.num_conditional_branches
                == scalar.num_conditional_branches)

    def test_instruction_shift(self):
        assert_kernel_matches_scalar(
            lambda: Bimodal(log_table_size=8, instruction_shift=2),
            _random_trace(seed=4))

    def test_synthetic_workload(self, small_trace):
        scalar = simulate(Bimodal(), small_trace)
        vectorized = simulate_vectorized(Bimodal(), small_trace)
        assert vectorized.mispredictions == scalar.mispredictions
        assert vectorized.mpki == pytest.approx(scalar.mpki)


class TestGshareEquivalence:
    @pytest.mark.parametrize("history,log_size", [(4, 8), (12, 10), (25, 12)])
    def test_bit_exact_vs_scalar(self, history, log_size):
        assert_kernel_matches_scalar(
            lambda: GShare(history_length=history, log_table_size=log_size),
            _random_trace(seed=history + log_size))

    def test_unconditional_branches_enter_history(self):
        # The scalar GShare tracks unconditional branches too; the
        # kernel must reproduce that (its history windows read
        # trace.taken of every branch, True for unconditional ones).
        assert_kernel_matches_scalar(
            lambda: GShare(history_length=8, log_table_size=8),
            _random_trace(seed=9, conditional_fraction=0.6))

    def test_synthetic_workload(self, small_trace):
        scalar = simulate(GShare(), small_trace)
        vectorized = simulate_vectorized(GShare(), small_trace)
        assert vectorized.mispredictions == scalar.mispredictions
        assert vectorized.accuracy == pytest.approx(scalar.accuracy)

    def test_prediction_stream_matches(self):
        # Stronger than totals: compare each individual prediction.
        assert_kernel_matches_scalar(
            lambda: GShare(history_length=6, log_table_size=7),
            _random_trace(seed=17, n=600))
