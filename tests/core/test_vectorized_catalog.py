"""Catalog-wide differential harness: ``engine="vectorized"`` vs scalar.

Every table-indexed predictor in the catalog — bimodal, gshare, gskew,
two-level (all four scope combinations), local, tournament (McFarling
and Alpha 21264 shapes, and one over a perceptron), YAGS and the hashed
perceptron — must produce a **byte-identical**
:class:`~repro.core.output.SimulationResult` JSON document under the
vectorized engine, for arbitrary traces, table sizes, history lengths
and counter widths.  A probed run takes the scalar loop whatever the
engine, so ``engine="auto"`` with a probe must give the scalar probe
report, serialized.
Aggregate agreement can hide compensating errors, so the serialized
document (which includes the most-failed branch profile) is compared
verbatim; only ``simulation_time`` — wall-clock, meaningless to compare
— is removed first.

Uses `hypothesis` when the environment provides it; otherwise the same
properties run against draws from a seeded ``random.Random``, so the
file never silently skips.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.branch import OPCODE_COND_JUMP, OPCODE_JUMP, OPCODE_RET
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import (
    Bimodal,
    GShare,
    HashedPerceptron,
    LocalPredictor,
    OGehl,
    Tournament,
    TwoBcGskew,
    Yags,
)
from repro.predictors.twolevel import Scope, TwoLevel
from repro.probe import PredictionProbe
from tests.conftest import make_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

#: Scope combinations of the two-level predictor, all vectorizable.
_SCOPES = [Scope.GLOBAL, Scope.PER_SET, Scope.PER_ADDRESS]

#: CLI-facing catalog: name -> (seeded Random) -> predictor.  Parameters
#: are drawn small so short traces still exercise aliasing, saturation
#: clamps at every counter width, and history wrap-around.
CATALOG = {
    "bimodal": lambda rng: Bimodal(
        log_table_size=rng.randint(0, 5),
        counter_width=rng.randint(1, 4),
        instruction_shift=rng.choice([0, 2])),
    "gshare": lambda rng: GShare(
        history_length=rng.randint(1, 12),
        log_table_size=rng.randint(1, 6),
        counter_width=rng.randint(1, 4)),
    "two-level": lambda rng: TwoLevel(
        rng.choice(_SCOPES), rng.choice(_SCOPES),
        history_length=rng.randint(1, 8),
        log_histories=rng.randint(0, 4),
        log_pattern_tables=rng.randint(0, 3),
        set_shift=rng.choice([0, 2, 4]),
        counter_width=rng.randint(1, 3)),
    "local": lambda rng: LocalPredictor(
        log_histories=rng.randint(0, 5),
        history_length=rng.randint(1, 10),
        counter_width=rng.randint(1, 4)),
    "tournament": lambda rng: Tournament(
        meta=Bimodal(rng.randint(1, 4), rng.randint(1, 3)),
        bp0=Bimodal(rng.randint(0, 5), rng.randint(1, 3)),
        bp1=GShare(rng.randint(1, 10), rng.randint(1, 5),
                   rng.randint(1, 3))),
    "gskew": lambda rng: TwoBcGskew(
        log_bank_size=rng.randint(2, 6),
        history_length_g0=rng.randint(1, 10),
        history_length_g1=rng.randint(1, 16)),
    "yags": lambda rng: Yags(
        log_choice_size=rng.randint(1, 6),
        log_cache_size=rng.randint(1, 5),
        tag_width=rng.randint(1, 8),
        history_length=rng.randint(1, 12)),
    "perceptron": lambda rng: HashedPerceptron(
        log_table_size=rng.randint(1, 6),
        weight_width=rng.randint(2, 8),
        history_lengths=[rng.choice([0, 0, 1, 3, 8, 17, 33, 63])
                         for _ in range(rng.randint(1, 6))],
        theta=rng.choice([None, 0, 1, 7]),
        adaptive_theta=rng.random() < 0.5),
    # A composition whose base reports trained statistics: the nested
    # ``predictor_0`` threshold and training counters must come out of
    # the perceptron kernel's run, not the untrained instance.
    "perceptron-tournament": lambda rng: Tournament(
        meta=Bimodal(rng.randint(1, 4), rng.randint(1, 3)),
        bp0=HashedPerceptron(
            log_table_size=rng.randint(1, 5),
            weight_width=rng.randint(2, 6),
            history_lengths=[rng.choice([0, 3, 8, 17])
                             for _ in range(rng.randint(1, 4))],
            theta=rng.choice([None, 0, 3])),
        bp1=GShare(rng.randint(1, 10), rng.randint(1, 5),
                   rng.randint(1, 3))),
}


def random_trace(rng: random.Random, num_branches: int,
                 pool_size: int, conditional_fraction: float):
    """A trace with mixed branch kinds over a small aliasing-heavy pool."""
    pool = [0x40_0000 + 4 * i for i in range(pool_size)]
    ips, opcodes, taken, gaps = [], [], [], []
    for _ in range(num_branches):
        kind = rng.random()
        if kind < conditional_fraction:
            opcodes.append(int(OPCODE_COND_JUMP))
            taken.append(rng.random() < 0.6)
        elif kind < conditional_fraction + 0.1:
            opcodes.append(int(OPCODE_JUMP))
            taken.append(True)
        else:
            opcodes.append(int(OPCODE_RET))
            taken.append(True)
        ips.append(rng.choice(pool))
        gaps.append(rng.randint(0, 9))
    return make_trace(ips, taken, opcodes=opcodes, gaps=gaps)


def random_config(rng: random.Random, trace) -> SimulationConfig:
    instructions = trace.num_instructions
    warmup = rng.choice([0, 0, instructions // 3, instructions + 10])
    limit = rng.choice([None, None, max(1, instructions // 2)])
    return SimulationConfig(
        warmup_instructions=warmup, max_instructions=limit,
        track_only_conditional=rng.random() < 0.3)


def comparable_document(result) -> dict:
    document = json.loads(result.to_json_string())
    del document["metrics"]["simulation_time"]
    return document


def assert_engines_agree(factory, trace, config) -> None:
    """The headline property: the kernel's result is byte-identical to
    the scalar loop's, and a probe gives the same report under either
    engine setting."""
    scalar = simulate(factory(), trace, config, probe=PredictionProbe())
    vector = simulate(factory(), trace, config, engine="vectorized")
    assert comparable_document(scalar) == comparable_document(vector)
    auto = simulate(factory(), trace, config, engine="auto",
                    probe=PredictionProbe())
    assert comparable_document(auto) == comparable_document(scalar)
    # Probe reports must match as *serialized*: same values, same key
    # order (report tables golden-test on ordering).
    assert (json.dumps(scalar.probe_report)
            == json.dumps(auto.probe_report))


def check_one(name: str, seed: int) -> None:
    rng = random.Random(seed)
    factory = CATALOG[name]
    predictor_seed = rng.randint(0, 2**30)
    trace = random_trace(rng, num_branches=rng.randint(2, 400),
                         pool_size=rng.randint(1, 40),
                         conditional_fraction=rng.choice([0.5, 0.8, 1.0]))
    config = random_config(rng, trace)
    assert_engines_agree(lambda: factory(random.Random(predictor_seed)),
                         trace, config)


if HAVE_HYPOTHESIS:

    @pytest.mark.parametrize("name", sorted(CATALOG))
    class TestCatalogDifferential:
        @settings(max_examples=25, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
        def test_byte_identical_results(self, name, seed):
            check_one(name, seed)

else:  # pragma: no cover - environments without hypothesis

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("seed", range(25))
    def test_byte_identical_results(name, seed):
        check_one(name, seed * 7919 + hash(name) % 1000)


class TestCatalogEdges:
    """Deterministic edge traces the random draws may not always hit."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_empty_trace(self, name):
        trace = make_trace([], [])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(1)), trace,
                             SimulationConfig())

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_single_branch(self, name):
        trace = make_trace([0x40_0000], [True])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(2)), trace,
                             SimulationConfig())

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_single_not_taken_with_warmup(self, name):
        trace = make_trace([0x40_0000], [False], gaps=[5])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(3)), trace,
                             SimulationConfig(warmup_instructions=100))

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_no_conditional_branches(self, name):
        trace = make_trace([0x40_0000, 0x40_0040], [True, True],
                           opcodes=[int(OPCODE_JUMP), int(OPCODE_RET)])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(4)), trace,
                             SimulationConfig())

    def test_auto_engine_matches_vectorized(self, small_trace):
        scalar = simulate(Bimodal(8), small_trace)
        auto = simulate(Bimodal(8), small_trace, engine="auto")
        assert comparable_document(scalar) == comparable_document(auto)

    def test_auto_engine_falls_back_for_scalar_only_predictor(
            self, small_trace):
        result = simulate(OGehl(), small_trace, engine="auto")
        assert result.num_conditional_branches > 0

    def test_vectorized_engine_rejects_scalar_only_predictor(
            self, small_trace):
        from repro.core.errors import EngineNotSupportedError

        with pytest.raises(EngineNotSupportedError) as excinfo:
            simulate(OGehl(), small_trace, engine="vectorized")
        assert "vector kernel" in str(excinfo.value)

    def test_unknown_engine_rejected(self, small_trace):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            simulate(Bimodal(), small_trace, engine="simd")

    def test_vectorized_never_trains_the_instance(self, small_trace):
        predictor = GShare(history_length=8, log_table_size=8)
        simulate(predictor, small_trace, engine="vectorized")
        # The vectorized engine works from the configuration alone; the
        # live instance's counter table must stay cold.
        assert all(counter == 0 for counter in predictor._table)

    def test_vectorized_never_trains_the_perceptron(self, small_trace):
        predictor = HashedPerceptron(log_table_size=8)
        cold = (predictor.metadata_stats(), predictor.execution_stats())
        result = simulate(predictor, small_trace, engine="vectorized")
        assert result.predictor_statistics["threshold_trainings"] > 0
        assert all(weight == 0 for table in predictor._tables
                   for weight in table)
        assert (predictor.metadata_stats(),
                predictor.execution_stats()) == cold


def test_catalog_covers_the_issue_list():
    assert set(CATALOG) == {"bimodal", "gshare", "gskew", "two-level",
                            "local", "tournament", "yags", "perceptron",
                            "perceptron-tournament"}


class TestPerceptronKernel:
    """The hybrid kernel's array-derived inputs, checked on their own."""

    @staticmethod
    def scalar_indices(predictor, trace, track_all):
        """Each conditional branch's ``vote_indices`` row, as the scalar
        predictor computes it inside the simulator's loop."""
        rows = []
        for branch, _gap in trace.iter_branches():
            if branch.is_conditional:
                predictor.predict(branch.ip)
                rows.append(list(predictor._cached_indices))
                predictor.train(branch)
                predictor.track(branch)
            elif track_all:
                predictor.track(branch)
        return rows

    @pytest.mark.parametrize("seed", range(12))
    def test_index_rows_equal_vote_indices(self, seed, monkeypatch):
        from repro.core import vectorized
        from repro.core.vectorized import _VectorContext

        rng = random.Random(seed)
        predictor = CATALOG["perceptron"](rng)
        trace = random_trace(rng, num_branches=rng.randint(150, 400),
                             pool_size=rng.randint(1, 40),
                             conditional_fraction=rng.choice([0.5, 1.0]))
        track_all = rng.random() < 0.5
        expected = self.scalar_indices(predictor, trace, track_all)
        kernel = predictor.vector_kernel()
        ctx = _VectorContext(trace, track_all=track_all)
        # Blocks far smaller than the trace: rows cross block boundaries.
        block_rows = rng.choice([1, 7, 64])
        monkeypatch.setattr(vectorized, "ITER_BLOCK_ROWS",
                            block_rows * predictor.num_tables)
        blocks = list(kernel.index_blocks(ctx))
        assert len(blocks) == -(-ctx.n // block_rows) > 1
        assert all(len(block) <= block_rows for block in blocks)
        offsets = np.arange(predictor.num_tables) << predictor.log_table_size
        rows = (np.concatenate(blocks) - offsets).tolist()
        assert rows == expected

    def test_long_histories_and_path_history_stay_scalar(self):
        assert HashedPerceptron(history_lengths=(0, 64)).vector_kernel() \
            is None
        assert HashedPerceptron(history_lengths=(0, 63)).vector_kernel() \
            is not None
        assert HashedPerceptron(
            use_path_history=True).vector_kernel() is None
