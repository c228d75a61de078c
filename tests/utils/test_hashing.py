"""Unit and property tests for the hashing helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import mask
from repro.utils.hashing import (
    gshare_index,
    mix64,
    path_hash_step,
    skew_h,
    skew_h_inverse,
    skew_hash,
    vote_indices,
    vote_lanes,
    xor_fold,
)


class TestXorFold:
    def test_fold_of_zero(self):
        assert xor_fold(0, 8) == 0

    def test_value_within_width_unchanged(self):
        assert xor_fold(0b1010, 8) == 0b1010

    def test_fold_combines_chunks(self):
        # 0b1010_1100 folded to 4 bits: 1010 ^ 1100 = 0110.
        assert xor_fold(0b1010_1100, 4) == 0b0110

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            xor_fold(1, 0)
        with pytest.raises(ValueError):
            xor_fold(-1, 4)

    @given(st.integers(min_value=0, max_value=2**80 - 1),
           st.integers(min_value=1, max_value=24))
    def test_result_fits_width(self, value, width):
        assert 0 <= xor_fold(value, width) <= mask(width)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=1, max_value=20))
    def test_xor_homomorphism(self, value, width):
        # Folding is linear over xor: fold(a ^ (b << k*width)) =
        # fold(a) ^ fold(b << k*width); spot-check the simplest instance.
        shifted = value << width
        assert (xor_fold(value ^ shifted, width)
                == xor_fold(value, width) ^ xor_fold(shifted, width))

    @staticmethod
    def _naive_fold(value, width):
        result = 0
        for shift in range(0, value.bit_length(), width):
            result ^= (value >> shift) & ((1 << width) - 1)
        return result

    @given(st.integers(min_value=0, max_value=2**80 - 1))
    def test_width_one_is_parity(self, value):
        assert xor_fold(value, 1) == self._naive_fold(value, 1)
        assert xor_fold(value, 1) == bin(value).count("1") % 2

    @given(st.integers(min_value=2**64, max_value=2**200),
           st.integers(min_value=1, max_value=24))
    def test_matches_naive_chunk_loop_above_64_bits(self, value, width):
        assert xor_fold(value, width) == self._naive_fold(value, width)

    @given(st.integers(min_value=0, max_value=2**200),
           st.integers(min_value=0, max_value=2**200),
           st.integers(min_value=1, max_value=24))
    def test_xor_linearity(self, a, b, width):
        assert (xor_fold(a ^ b, width)
                == xor_fold(a, width) ^ xor_fold(b, width))

    @given(st.integers(min_value=2**64, max_value=2**100),
           st.integers(min_value=0, max_value=2**100))
    def test_xor_linearity_width_one_above_64_bits(self, a, b):
        assert xor_fold(a ^ b, 1) == xor_fold(a, 1) ^ xor_fold(b, 1)

    def test_every_input_bit_matters(self):
        width = 6
        base = xor_fold(0, width)
        for bit_position in range(48):
            flipped = xor_fold(1 << bit_position, width)
            assert flipped != base, f"bit {bit_position} ignored"


class TestVoteIndices:
    @staticmethod
    def _naive(seed, ghist, history_lengths, width, extra):
        """One ``xor_fold`` per table, as the formula is written."""
        indices = []
        for table, length in enumerate(history_lengths):
            if length == 0:
                indices.append(xor_fold(seed, width))
            else:
                value = (seed ^ ((ghist & mask(length)) << 2)
                         ^ (table << 1) ^ extra)
                indices.append(xor_fold(value, width))
        return indices

    @given(st.integers(min_value=0, max_value=2**70),
           st.integers(min_value=0, max_value=2**130),
           st.lists(st.integers(min_value=0, max_value=120), min_size=1,
                    max_size=12),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=2**40))
    def test_matches_naive_per_table_fold(self, seed, ghist, lengths, width,
                                          extra):
        lanes = vote_lanes(lengths, width)
        assert (vote_indices(seed, ghist, lanes, width, extra)
                == self._naive(seed, ghist, lengths, width, extra))

    def test_bias_lane_ignores_history_salt_and_extra(self):
        lanes = vote_lanes((0, 4, 0), 6)
        assert lanes[0] == lanes[2] == (None, 0)
        bias = xor_fold(0x5555_5540_1234, 6)
        indices = vote_indices(0x5555_5540_1234, 0b1011, lanes, 6,
                               extra=0b111 << 3)
        assert indices[0] == indices[2] == bias
        assert indices[1] != bias

    def test_salt_separates_equal_history_tables(self):
        indices = vote_indices(0x40_0000, 0, vote_lanes((3, 3, 3), 8), 8)
        assert len(set(indices)) == 3

    def test_indices_fit_width(self):
        lanes = vote_lanes((0, 2, 30, 90), 5)
        for index in vote_indices(2**64 - 1, 2**90 - 1, lanes, 5,
                                  extra=2**40 - 1):
            assert 0 <= index <= mask(5)

    def test_rejects_negative_inputs(self):
        lanes = vote_lanes((0, 3), 4)
        with pytest.raises(ValueError):
            vote_indices(-1, 0, lanes, 4)
        with pytest.raises(ValueError):
            vote_indices(1, 0, lanes, 4, extra=-8)


class TestGshareIndex:
    def test_matches_manual_composition(self):
        ip, history, width = 0x40_0123, 0b1011, 14
        assert gshare_index(ip, history, width) == xor_fold(ip ^ history, width)

    @given(st.integers(min_value=0, max_value=2**48 - 1),
           st.integers(min_value=0, max_value=2**25 - 1))
    def test_fits_width(self, ip, history):
        assert 0 <= gshare_index(ip, history, 17) < (1 << 17)


class TestSkewFunctions:
    @given(st.integers(min_value=0, max_value=2**14 - 1))
    def test_h_inverse_inverts_h(self, value):
        assert skew_h_inverse(skew_h(value, 14), 14) == value

    @given(st.integers(min_value=0, max_value=2**14 - 1))
    def test_h_inverts_h_inverse(self, value):
        assert skew_h(skew_h_inverse(value, 14), 14) == value

    def test_h_is_bijection_exhaustive_small(self):
        width = 8
        images = {skew_h(v, width) for v in range(1 << width)}
        assert len(images) == 1 << width

    def test_rejects_width_one(self):
        with pytest.raises(ValueError):
            skew_h(0, 1)
        with pytest.raises(ValueError):
            skew_h_inverse(0, 1)

    def test_banks_dealias(self):
        # The defining property of skewing: two values that collide in
        # one bank should usually not collide in another.
        width = 10
        v1a, v2a = 0x155, 0x2AA
        v1b, v2b = 0x0F3, 0x10C
        collisions = 0
        for bank in range(3):
            ha = skew_hash(v1a, v2a, bank, width)
            hb = skew_hash(v1b, v2b, bank, width)
            collisions += ha == hb
        assert collisions <= 1

    def test_skew_hash_rejects_negative_bank(self):
        with pytest.raises(ValueError):
            skew_hash(1, 2, -1, 10)

    @given(st.integers(min_value=0, max_value=2**12 - 1),
           st.integers(min_value=0, max_value=2**12 - 1),
           st.integers(min_value=0, max_value=3))
    def test_skew_hash_fits_width(self, v1, v2, bank):
        assert 0 <= skew_hash(v1, v2, bank, 12) < (1 << 12)


class TestMix64:
    def test_deterministic(self):
        assert mix64(42) == mix64(42)

    def test_different_inputs_differ(self):
        outputs = {mix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_stays_in_64_bits(self, value):
        assert 0 <= mix64(value) < 2**64

    def test_avalanche_rough(self):
        # Flipping one input bit should flip roughly half the output bits.
        base = mix64(0x1234_5678)
        flipped = mix64(0x1234_5678 ^ 1)
        differing = (base ^ flipped).bit_count()
        assert 16 <= differing <= 48


class TestPathHashStep:
    def test_fits_width(self):
        value = 0
        for ip in range(0, 4000, 4):
            value = path_hash_step(value, ip, 12)
            assert 0 <= value < (1 << 12)

    def test_order_sensitivity(self):
        a = path_hash_step(path_hash_step(0, 0x100, 12), 0x200, 12)
        b = path_hash_step(path_hash_step(0, 0x200, 12), 0x100, 12)
        assert a != b

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            path_hash_step(0, 1, 0)
