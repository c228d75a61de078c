"""Differential tests: vector kernels vs the scalar predictors.

The vector kernels claim to be *bit-exact* rewrites of the per-branch
predictors.  Aggregate MPKI agreement can mask compensating errors, so
these tests drive the scalar predictor branch-by-branch exactly the way
the standard simulator does and compare the full **per-branch
prediction stream** of ``predictor.vector_kernel()`` against it, not
just the totals — for every predictor in the vectorizable catalog.

Also checks the cache boundary: a result served by :mod:`repro.cache`
must be byte-identical (``to_json_string``) to the fresh simulation that
populated it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache import SimulationCache
from repro.core.branch import OPCODE_COND_JUMP, OPCODE_JUMP, OPCODE_RET
from repro.core.simulator import SimulationConfig, simulate
from repro.core.vectorized import simulate_vectorized
from repro.predictors import (
    Bimodal,
    GShare,
    LocalPredictor,
    Tournament,
    TwoBcGskew,
    Yags,
)
from repro.predictors.twolevel import Scope, TwoLevel
from repro.sbbt.trace import TraceData
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES
from tests.conftest import assert_kernel_matches_scalar

#: The seven catalog predictors that provide a vector kernel, sized
#: small so the traces below drive every table into aliasing.
KERNEL_CATALOG = {
    "bimodal": lambda: Bimodal(log_table_size=7, instruction_shift=2),
    "gshare": lambda: GShare(history_length=12, log_table_size=8),
    "two-level": lambda: TwoLevel(Scope.PER_ADDRESS, Scope.PER_SET,
                                  history_length=6, log_histories=4,
                                  log_pattern_tables=2, set_shift=2),
    "local": lambda: LocalPredictor(log_histories=5, history_length=8),
    "tournament": lambda: Tournament(meta=Bimodal(6), bp0=Bimodal(7),
                                     bp1=GShare(10, 8)),
    "gskew": lambda: TwoBcGskew(log_bank_size=6, history_length_g0=4,
                                history_length_g1=11),
    "yags": lambda: Yags(log_choice_size=7, log_cache_size=5,
                         tag_width=6, history_length=8),
}


def synthetic_traces() -> list[TraceData]:
    """Workload-profile traces plus an adversarial aliasing stress trace."""
    traces = [
        generate_trace(PROFILES["short_mobile"], seed=11, num_branches=4000),
        generate_trace(PROFILES["long_server"], seed=7, num_branches=4000),
    ]
    # Heavy aliasing: few distinct IPs, random outcomes, mixed branch
    # kinds — drives every counter into both saturation clamps and makes
    # compensating-error cancellation effectively impossible to hide.
    rng = random.Random(99)
    ips, targets, opcodes, taken, gaps = [], [], [], [], []
    pool = [0x400000 + 4 * i for i in range(37)]
    for _ in range(5000):
        kind = rng.random()
        if kind < 0.8:
            opcodes.append(int(OPCODE_COND_JUMP))
            taken.append(rng.random() < 0.6)
        elif kind < 0.9:
            opcodes.append(int(OPCODE_JUMP))
            taken.append(True)
        else:
            opcodes.append(int(OPCODE_RET))
            taken.append(True)
        ips.append(rng.choice(pool))
        targets.append(rng.choice(pool))
        gaps.append(rng.randint(0, 12))
    traces.append(TraceData(
        np.array(ips, np.uint64), np.array(targets, np.uint64),
        np.array(opcodes, np.uint8), np.array(taken, bool),
        np.array(gaps, np.uint16),
        len(ips) + sum(gaps),
    ))
    return traces


@pytest.fixture(scope="module", params=[0, 1, 2],
                ids=["short_mobile", "long_server", "aliasing_stress"])
def trace(request):
    return synthetic_traces()[request.param]


class TestCatalogDifferential:
    @pytest.mark.parametrize("track_all", [True, False],
                             ids=["track_all", "track_conditional"])
    @pytest.mark.parametrize("name", list(KERNEL_CATALOG))
    def test_per_branch_bit_exact(self, trace, name, track_all):
        # track_all=True feeds unconditional outcomes into the history
        # registers, exactly like the default simulator config.
        assert_kernel_matches_scalar(KERNEL_CATALOG[name], trace,
                                     track_all=track_all)


class TestBimodalDifferential:
    @pytest.mark.parametrize("log_table_size,counter_width,shift", [
        (7, 2, 0),    # small table: heavy aliasing
        (10, 2, 2),   # instruction shift in play
        (9, 3, 0),    # wider counters: longer saturation walks
        (0, 1, 0),    # degenerate single-entry, single-bit counter
    ])
    def test_per_branch_bit_exact(self, trace, log_table_size,
                                  counter_width, shift):
        assert_kernel_matches_scalar(
            lambda: Bimodal(log_table_size, counter_width, shift), trace)

    def test_aggregates_match_scalar_simulate(self, trace):
        result = simulate(Bimodal(8), trace)
        vectorized = simulate_vectorized(Bimodal(8), trace)
        assert vectorized.mispredictions == result.mispredictions
        assert (vectorized.num_conditional_branches
                == result.num_conditional_branches)
        assert (vectorized.simulation_instructions
                == result.simulation_instructions)

    def test_warmup_region_matches(self, trace):
        config = SimulationConfig(
            warmup_instructions=trace.num_instructions // 3)
        result = simulate(Bimodal(8), trace, config)
        vectorized = simulate_vectorized(Bimodal(8), trace, config)
        assert vectorized.mispredictions == result.mispredictions
        assert (vectorized.num_conditional_branches
                == result.num_conditional_branches)


class TestGShareDifferential:
    @pytest.mark.parametrize("history_length,log_table_size,counter_width", [
        (8, 9, 2),     # short history, small table
        (15, 10, 2),   # history longer than table width (folding)
        (25, 8, 2),    # much longer history: multiple xor folds
        (4, 6, 3),     # wider counters
    ])
    def test_per_branch_bit_exact(self, trace, history_length,
                                  log_table_size, counter_width):
        assert_kernel_matches_scalar(
            lambda: GShare(history_length, log_table_size, counter_width),
            trace)

    def test_aggregates_match_scalar_simulate(self, trace):
        result = simulate(GShare(10, 9), trace)
        vectorized = simulate_vectorized(GShare(10, 9), trace)
        assert vectorized.mispredictions == result.mispredictions
        assert (vectorized.num_conditional_branches
                == result.num_conditional_branches)

    def test_warmup_region_matches(self, trace):
        config = SimulationConfig(
            warmup_instructions=trace.num_instructions // 4)
        result = simulate(GShare(10, 9), trace, config)
        vectorized = simulate_vectorized(GShare(10, 9), trace, config)
        assert vectorized.mispredictions == result.mispredictions


class TestCachedResultsAreByteIdentical:
    def test_cache_hit_serializes_identically(self, tmp_path, trace):
        cache = SimulationCache(tmp_path / "c")
        fresh = cache.get_or_simulate(lambda: GShare(10, 9), trace,
                                      trace_name="t")
        cached = cache.get_or_simulate(lambda: GShare(10, 9), trace,
                                       trace_name="t")
        assert cached.from_cache and not fresh.from_cache
        assert cached.to_json_string() == fresh.to_json_string()

    def test_cache_hit_matches_plain_simulation(self, tmp_path, trace):
        cache = SimulationCache(tmp_path / "c")
        plain = simulate(Bimodal(9), trace, trace_name="t")
        cache.get_or_simulate(lambda: Bimodal(9), trace, trace_name="t")
        served = cache.get_or_simulate(lambda: Bimodal(9), trace,
                                       trace_name="t")
        # Identical up to wall-clock time, which is run-specific by nature.
        a, b = served.to_json(), plain.to_json()
        del a["metrics"]["simulation_time"], b["metrics"]["simulation_time"]
        assert a == b
