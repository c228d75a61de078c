"""Differential harness: the hashed-vote predictors against per-table formulas.

``HashedPerceptron``, ``OGehl`` and ``StatisticalCorrector`` index their
tables through :func:`repro.utils.hashing.vote_indices`, which folds the
seed once per prediction and adds pre-folded per-table salts.  The
reference subclasses below keep the straightforward per-table formulas
instead: one ``xor_fold`` of ``seed ^ (segment << 2) ^ (t << 1) [^ path
<< 3]`` per history table, ``xor_fold(seed)`` for a bias table, and a
``track`` that re-derives its history mask (and, for the perceptron,
always pushes the path history); the perceptron reference also keeps
the clamp-after-add weight update.  Both must agree on every per-branch
prediction, on the result JSON (minus ``simulation_time``), on
``execution_stats()``, on the probe report and on the final table
contents, across table sizes, history lengths (zeros after the first
table, lengths spanning several fold chunks), weight widths and
path-history settings.

Uses `hypothesis` when the environment provides it; otherwise the same
properties run against draws from a seeded ``random.Random``.
"""

from __future__ import annotations

import random
from typing import Any, Callable

import pytest

from repro.core.branch import OPCODE_COND_JUMP, OPCODE_JUMP
from repro.core.simulator import simulate
from repro.predictors import Bimodal, HashedPerceptron, OGehl, Tage
from repro.predictors.corrector import StatisticalCorrector
from repro.utils.bits import mask
from repro.utils.hashing import xor_fold
from tests.conftest import make_trace
from tests.predictors.test_tage_hot_path import (
    assert_hot_path_matches_reference,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


def _sum_votes(tables, indices) -> int:
    total = 0
    for table, index in zip(tables, indices):
        total += table[index]
    return total


class _ReferencePerceptron(HashedPerceptron):
    """Hashed perceptron with one ``xor_fold`` per table and prediction."""

    def _index(self, table: int, ip: int) -> int:
        length = self.history_lengths[table]
        if length == 0:
            return xor_fold(ip, self.log_table_size)
        segment = self._ghist & mask(length)
        value = ip ^ (segment << 2) ^ (table << 1)
        if self.use_path_history:
            value ^= self._path.value << 3
        return xor_fold(value, self.log_table_size)

    def predict(self, ip: int) -> bool:
        indices = [self._index(t, ip) for t in range(self.num_tables)]
        self._cached_ip = ip
        self._cached_indices = indices
        self._cached_sum = _sum_votes(self._tables, indices)
        return self._cached_sum >= 0

    def train(self, branch) -> None:
        # The clamped update: every weight moves by delta, then is
        # clamped to [w_min, w_max].
        if self._cached_ip != branch.ip:
            self.predict(branch.ip)
        total = self._cached_sum
        taken = branch.taken
        mispredicted = (total >= 0) != taken
        if self._probe is not None:
            weights = [self._tables[t][self._cached_indices[t]]
                       for t in range(self.num_tables)]
            dominant = max(range(self.num_tables),
                           key=lambda t: abs(weights[t]))
            self._probe.record(branch.ip, f"T{dominant}", not mispredicted)
        if mispredicted or abs(total) <= self.theta:
            if mispredicted:
                self._stat_mispredict_trainings += 1
            else:
                self._stat_threshold_trainings += 1
            delta = 1 if taken else -1
            for table, index in zip(self._tables, self._cached_indices):
                w = table[index] + delta
                table[index] = min(self._w_max, max(self._w_min, w))
            if self.adaptive_theta:
                self._adapt_theta(mispredicted)
        self._cached_ip = None

    def track(self, branch) -> None:
        self._ghist = (((self._ghist << 1) | branch.taken)
                       & mask(self._max_history))
        self._path.push(branch.ip)
        self._cached_ip = None


class _ReferenceOGehl(OGehl):
    """O-GEHL with one ``xor_fold`` per table and prediction."""

    def _index(self, table: int, ip: int) -> int:
        length = self.history_lengths[table]
        if length == 0:
            return xor_fold(ip, self.log_table_size)
        segment = self._ghist & mask(length)
        return xor_fold(ip ^ (segment << 2) ^ (table << 1),
                        self.log_table_size)

    def _compute(self, ip: int) -> tuple[list[int], int]:
        indices = [self._index(t, ip) for t in range(self.num_tables)]
        return indices, self.num_tables // 2 + _sum_votes(self._tables,
                                                          indices)


class _ReferenceCorrector(StatisticalCorrector):
    """Statistical corrector with one ``xor_fold`` per table."""

    def _compute(self, ip: int) -> tuple:
        main_prediction = self.main.predict(ip)
        seed = (ip << 1) | main_prediction
        indices = [
            xor_fold(seed ^ ((self._ghist & mask(length)) << 2)
                     ^ (table << 1), self.log_table_size)
            for table, length in enumerate(self._history_lengths)
        ]
        total = _sum_votes(self._tables, indices)
        if total <= -self.threshold:
            final = not main_prediction
        else:
            final = main_prediction
        return main_prediction, indices, total, final

    def track(self, branch) -> None:
        self.main.track(branch)
        self._ghist = ((self._ghist << 1) | branch.taken) & mask(
            max(self._history_lengths) or 1)
        self._cached_ip = None


def assert_matches_reference(optimized, reference, kwargs, trace) -> None:
    assert_hot_path_matches_reference(optimized, reference, kwargs, trace)
    # A wrong per-table salt only relabels that table's entries, which
    # no prediction can observe; the final table contents pin it.
    tables = []
    for factory in (optimized, reference):
        predictor = factory(**kwargs)
        simulate(predictor, trace)
        tables.append(predictor._tables)
    assert tables[0] == tables[1]


def _corrector(main_factory: Callable[[], Any], cls=StatisticalCorrector):
    """A predictor factory that wraps a fresh main predictor."""
    return lambda **kwargs: cls(main_factory(), **kwargs)


#: Bases of the branch-address pool: low, 47-bit PIE-like and 64-bit.
_IP_BASES = (0x40_0000, 0x5555_5540_0000, 0xFFFF_F000_0000_0000)


def draw_trace(integer: Callable[[int, int], int],
               choice: Callable[[list], Any]):
    base = choice(list(_IP_BASES))
    pool = [base + 4 * integer(0, 255) for _ in range(integer(1, 24))]
    ips, taken, opcodes = [], [], []
    for _ in range(integer(1, 300)):
        ips.append(choice(pool))
        conditional = integer(0, 9) > 0
        opcodes.append(int(OPCODE_COND_JUMP if conditional else OPCODE_JUMP))
        taken.append(integer(0, 2) > 0 or not conditional)
    return make_trace(ips, taken, opcodes=opcodes)


def draw_history_lengths(integer, choice, width: int) -> tuple[int, ...]:
    """Lengths with bias tables anywhere and multi-chunk folds.

    Each length is 0 (a bias table), short, or up to three fold widths
    long, so ``(segment << 2)`` spans one to four ``width``-bit chunks.
    """
    return tuple(choice([0, integer(1, width), integer(width, 3 * width)])
                 for _ in range(integer(1, 8)))


def check_case(integer, choice) -> None:
    trace = draw_trace(integer, choice)
    width = integer(1, 16)
    perceptron = dict(
        log_table_size=width,
        weight_width=choice([2, integer(3, 10)]),
        history_lengths=draw_history_lengths(integer, choice, width),
        theta=choice([None, integer(0, 40)]),
        adaptive_theta=choice([True, False]),
        use_path_history=choice([True, False]))
    assert_matches_reference(HashedPerceptron, _ReferencePerceptron,
                             perceptron, trace)

    min_history = integer(1, 2 * width)
    max_history = min_history + integer(0, 3 * width)
    gehl = dict(num_tables=integer(2, 8), log_table_size=integer(1, 16),
                counter_width=integer(2, 6), min_history=min_history,
                max_history=max_history,
                alt_max_history=max_history + integer(0, 3 * width))
    assert_matches_reference(OGehl, _ReferenceOGehl, gehl, trace)

    main_size = integer(1, 8)
    corrector = dict(num_tables=integer(1, 12), log_table_size=width,
                     counter_width=integer(2, 8), threshold=integer(0, 10))
    assert_matches_reference(
        _corrector(lambda: Bimodal(log_table_size=main_size)),
        _corrector(lambda: Bimodal(log_table_size=main_size),
                   _ReferenceCorrector),
        corrector, trace)


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_vote_hot_path_matches_per_table_formulas(data):
        check_case(lambda lo, hi: data.draw(st.integers(lo, hi)),
                   lambda values: data.draw(st.sampled_from(values)))

else:  # pragma: no cover - environments without hypothesis

    @pytest.mark.parametrize("seed", range(25))
    def test_vote_hot_path_matches_per_table_formulas(seed):
        rng = random.Random(seed)
        check_case(rng.randint, rng.choice)


@pytest.mark.parametrize("kwargs", [
    {},
    {"use_path_history": True},
    {"history_lengths": (3, 0, 5, 40)},
    {"log_table_size": 5, "weight_width": 2, "use_path_history": True,
     "history_lengths": (0, 9, 0, 17, 33)},
])
def test_perceptron_configurations_match_reference(small_trace, kwargs):
    assert_matches_reference(HashedPerceptron, _ReferencePerceptron,
                             kwargs, small_trace)


def test_ogehl_length_switches_match_reference():
    """Long enough for the dynamic-length controller to switch configs."""
    rng = random.Random(5)
    pool = [0x5555_5540_0000 + 4 * i for i in range(64)]
    ips = [rng.choice(pool) for _ in range(3000)]
    trace = make_trace(ips, [rng.random() < 0.5 for _ in ips])
    kwargs = dict(num_tables=6, log_table_size=6, min_history=3,
                  max_history=20, alt_max_history=60)
    predictor = OGehl(**kwargs)
    simulate(predictor, trace)
    assert predictor.execution_stats()["config_switches"] > 0
    assert_matches_reference(OGehl, _ReferenceOGehl, kwargs, trace)


def test_default_configurations_match_reference(small_trace):
    """Default O-GEHL and TAGE-SC over a realistic synthetic program."""
    assert_matches_reference(OGehl, _ReferenceOGehl, {}, small_trace)
    assert_matches_reference(
        _corrector(Tage), _corrector(Tage, _ReferenceCorrector), {},
        small_trace)
