"""Behavioural tests for the static, bimodal, gshare and two-level
predictors."""

import random

import pytest

from repro.core.simulator import simulate
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    Btfnt,
    GAg,
    GShare,
    Scope,
    TwoLevel,
)
from repro.predictors.twolevel import GAp, GAs, PAg, PAp, PAs, SAg, SAp, SAs
from repro.utils.hashing import xor_fold
from tests.conftest import make_branch, make_trace


class TestStatics:
    def test_always_taken_accuracy_is_taken_rate(self):
        trace = make_trace([0x4000] * 10, [True] * 7 + [False] * 3)
        result = simulate(AlwaysTaken(), trace)
        assert result.accuracy == pytest.approx(0.7)

    def test_statics_are_complementary(self):
        trace = make_trace([0x4000] * 10, [True] * 7 + [False] * 3)
        taken = simulate(AlwaysTaken(), trace)
        not_taken = simulate(AlwaysNotTaken(), trace)
        assert taken.mispredictions + not_taken.mispredictions == 10

    def test_btfnt_learns_direction(self):
        predictor = Btfnt()
        backward = make_branch(ip=0x5000, target=0x4000, taken=True)
        forward = make_branch(ip=0x6000, target=0x7000, taken=False)
        assert predictor.predict(0x5000) is False  # unknown yet
        predictor.track(backward)
        predictor.track(forward)
        assert predictor.predict(0x5000) is True   # backward -> taken
        assert predictor.predict(0x6000) is False  # forward  -> not taken


class TestBimodal:
    def test_counter_hysteresis(self):
        predictor = Bimodal(log_table_size=4)
        branch = make_branch(ip=0x3)
        # Train strongly taken, then one not-taken must not flip it.
        for _ in range(4):
            predictor.train(branch.with_outcome(True))
        predictor.train(branch.with_outcome(False))
        assert predictor.predict(0x3) is True

    def test_aliasing_between_far_addresses(self):
        predictor = Bimodal(log_table_size=4)
        a, b = 0x10, 0x10 + (1 << 4)  # same index
        for _ in range(3):
            predictor.train(make_branch(ip=a, taken=True))
        assert predictor.predict(b) is True  # destructive aliasing

    def test_instruction_shift_changes_indexing(self):
        no_shift = Bimodal(log_table_size=4, instruction_shift=0)
        shifted = Bimodal(log_table_size=4, instruction_shift=2)
        assert no_shift._index(0x14) != no_shift._index(0x10)
        assert shifted._index(0x43) == shifted._index(0x40)

    def test_storage_bits(self):
        assert Bimodal(log_table_size=10, counter_width=2).storage_bits() \
            == 2048

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Bimodal(log_table_size=-1)
        with pytest.raises(ValueError):
            Bimodal(counter_width=0)
        with pytest.raises(ValueError):
            Bimodal(instruction_shift=-1)

    def test_metadata(self):
        metadata = Bimodal(log_table_size=12).metadata_stats()
        assert metadata["log_table_size"] == 12


class TestGShare:
    def test_history_tracks_all_branch_outcomes(self):
        predictor = GShare(history_length=4, log_table_size=8)
        predictor.track(make_branch(taken=True))
        predictor.track(make_branch(taken=False))
        predictor.track(make_branch(taken=True))
        assert predictor.history == 0b101

    def test_learns_alternating_pattern_bimodal_cannot(self):
        # A strictly alternating branch defeats bimodal but is trivial
        # for GShare once the pattern is in the history register.
        ips = [0x4000] * 400
        taken = [i % 2 == 0 for i in range(400)]
        trace = make_trace(ips, taken)
        gshare = simulate(GShare(history_length=4, log_table_size=10), trace)
        bimodal = simulate(Bimodal(log_table_size=10), trace)
        assert gshare.mispredictions < bimodal.mispredictions / 4

    def test_train_indexes_with_the_current_history(self):
        # train reuses predict's index only for the same ip before track;
        # otherwise (train-only callers, another ip predicted) it hashes.
        rng = random.Random(7)
        predictor = GShare(history_length=6, log_table_size=5)
        expected = [0] * 32
        for _ in range(600):
            branch = make_branch(ip=0x4000 + 4 * rng.randrange(4),
                                 taken=rng.random() < 0.6)
            before_train = rng.choice(["same ip", "other ip", "none"])
            if before_train != "none":
                predictor.predict(branch.ip + 4 * (before_train == "other ip"))
            i = xor_fold(branch.ip ^ predictor.history, 5)
            expected[i] = (min(1, expected[i] + 1) if branch.taken
                           else max(-2, expected[i] - 1))
            predictor.train(branch)
            predictor.track(branch)
        assert predictor._table == expected

    def test_storage_bits(self):
        predictor = GShare(history_length=15, log_table_size=17)
        assert predictor.storage_bits() == (1 << 17) * 2 + 15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GShare(history_length=0)
        with pytest.raises(ValueError):
            GShare(log_table_size=0)
        with pytest.raises(ValueError):
            GShare(counter_width=0)

    def test_metadata_matches_listing1_fields(self):
        metadata = GShare(history_length=25, log_table_size=18).metadata_stats()
        assert metadata["history_length"] == 25
        assert metadata["log_table_size"] == 18


class TestTwoLevel:
    def test_scheme_names(self):
        assert GAg().scheme_name() == "GAg"
        assert GAp().scheme_name() == "GAp"
        assert GAs().scheme_name() == "GAs"
        assert PAg().scheme_name() == "PAg"
        assert PAp().scheme_name() == "PAp"
        assert PAs().scheme_name() == "PAs"
        assert SAg().scheme_name() == "SAg"
        assert SAp().scheme_name() == "SAp"
        assert SAs().scheme_name() == "SAs"

    def test_gag_learns_global_pattern(self):
        trace = make_trace([0x4000] * 300,
                           [(i % 3) != 2 for i in range(300)])
        result = simulate(GAg(history_length=6), trace)
        assert result.accuracy > 0.9

    def test_pag_learns_per_address_patterns(self):
        # Two interleaved branches with different periods: per-address
        # history separates them, global history needs more bits.
        ips, taken = [], []
        for i in range(300):
            ips.append(0x4000)
            taken.append(i % 2 == 0)
            ips.append(0x5000)
            taken.append(i % 3 == 0)
        trace = make_trace(ips, taken)
        pag = simulate(PAg(history_length=8, log_histories=4), trace)
        assert pag.accuracy > 0.9

    def test_per_set_sharing(self):
        predictor = TwoLevel(Scope.PER_SET, Scope.GLOBAL,
                             history_length=4, log_histories=2, set_shift=4)
        # Addresses in the same aligned 16-byte region share one history.
        assert predictor._history_index(0x40) == predictor._history_index(0x4C)
        assert (predictor._history_index(0x40)
                != predictor._history_index(0x50))

    def test_global_pattern_table_is_single(self):
        assert GAg().num_pattern_tables == 1
        assert GAs(log_pattern_tables=3).num_pattern_tables == 8

    def test_storage_accounting(self):
        predictor = GAg(history_length=10)
        assert predictor.storage_bits() == (1 << 10) * 2 + 10
        per_address = PAg(history_length=8, log_histories=4)
        assert per_address.storage_bits() == (1 << 8) * 2 + 16 * 8

    def test_history_length_cap(self):
        with pytest.raises(ValueError, match="refusing"):
            TwoLevel(history_length=30)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TwoLevel(history_length=0)
        with pytest.raises(ValueError):
            TwoLevel(counter_width=0)
        with pytest.raises(ValueError):
            TwoLevel(log_histories=-1)

    def test_metadata_scheme(self):
        metadata = PAs(history_length=7).metadata_stats()
        assert metadata["scheme"] == "PAs"
        assert metadata["history_length"] == 7
