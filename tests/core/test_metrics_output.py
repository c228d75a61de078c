"""Tests for metrics computation and the Listing-1 JSON schema."""

import json

import pytest

from repro.core.metrics import (
    BranchStats,
    accuracy,
    most_failed_branches,
    mpki,
)
from repro.core.output import SIMULATOR_NAME, SimulationResult


class TestMpkiAccuracy:
    def test_mpki_basic(self):
        assert mpki(5, 1000) == 5.0
        assert mpki(0, 1000) == 0.0

    def test_mpki_zero_instructions(self):
        assert mpki(0, 0) == 0.0

    def test_mpki_rejects_negative_instructions(self):
        with pytest.raises(ValueError):
            mpki(1, -1)

    def test_accuracy_basic(self):
        assert accuracy(25, 100) == 0.75

    def test_accuracy_no_predictions(self):
        assert accuracy(0, 0) == 1.0

    def test_accuracy_rejects_negative(self):
        with pytest.raises(ValueError):
            accuracy(0, -1)


class TestBranchStats:
    def test_record(self):
        stats = BranchStats()
        stats.record(True)
        stats.record(False)
        assert stats.occurrences == 2
        assert stats.mispredictions == 1
        assert stats.accuracy() == 0.5


class TestMostFailed:
    def _stats(self, counts):
        return {ip: BranchStats(occurrences=o, mispredictions=m)
                for ip, (o, m) in counts.items()}

    def test_greedy_half_coverage(self):
        stats = self._stats({0xA: (10, 6), 0xB: (10, 3), 0xC: (10, 1)})
        entries = most_failed_branches(stats, 10, 1000)
        assert [e.ip for e in entries] == [0xA]

    def test_two_needed(self):
        stats = self._stats({0xA: (10, 4), 0xB: (10, 4), 0xC: (10, 2)})
        entries = most_failed_branches(stats, 10, 1000)
        assert [e.ip for e in entries] == [0xA, 0xB]

    def test_odd_total_rounds_up(self):
        stats = self._stats({0xA: (10, 3), 0xB: (10, 2), 0xC: (10, 2)})
        # Half of 7 rounded up is 4 -> A alone (3) is not enough.
        entries = most_failed_branches(stats, 7, 1000)
        assert [e.ip for e in entries] == [0xA, 0xB]

    def test_ties_broken_by_address(self):
        stats = self._stats({0xB: (10, 5), 0xA: (10, 5)})
        entries = most_failed_branches(stats, 10, 1000)
        assert entries[0].ip == 0xA

    def test_zero_mispredictions_empty(self):
        assert most_failed_branches({}, 0, 1000) == []

    def test_max_entries_cap(self):
        stats = self._stats({i: (10, 1) for i in range(100)})
        entries = most_failed_branches(stats, 100, 1000, max_entries=5)
        assert len(entries) == 5

    def test_entry_metrics(self):
        stats = self._stats({0xA: (20, 10)})
        entry = most_failed_branches(stats, 10, 1000)[0]
        assert entry.mpki == 10.0
        assert entry.accuracy == 0.5
        assert entry.occurrences == 20


def _result(**overrides):
    defaults = dict(
        trace_name="traces/SHORT_SERVER-1.sbbt.xz",
        warmup_instructions=0,
        simulation_instructions=1000,
        exhausted_trace=True,
        num_branch_instructions=200,
        num_conditional_branches=180,
        mispredictions=9,
        simulation_time=0.5,
        predictor_metadata={"name": "repro GShare", "history_length": 25,
                            "log_table_size": 18},
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestListing1Schema:
    def test_top_level_sections(self):
        output = _result().to_json()
        assert set(output) == {"metadata", "metrics",
                               "predictor_statistics", "most_failed"}

    def test_metadata_fields(self):
        metadata = _result().to_json()["metadata"]
        for key in ("simulator", "version", "trace", "warmup_instr",
                    "simulation_instr", "exhausted_trace",
                    "num_conditional_branches", "num_branch_instructions",
                    "predictor"):
            assert key in metadata
        assert metadata["simulator"] == SIMULATOR_NAME
        assert metadata["trace"].endswith(".sbbt.xz")

    def test_metrics_fields(self):
        metrics = _result().to_json()["metrics"]
        for key in ("mpki", "mispredictions", "accuracy",
                    "num_most_failed_branches", "simulation_time"):
            assert key in metrics
        assert metrics["mpki"] == pytest.approx(9.0)
        assert metrics["accuracy"] == pytest.approx(1 - 9 / 180)

    def test_predictor_metadata_embedded(self):
        output = _result().to_json()
        assert output["metadata"]["predictor"]["history_length"] == 25

    def test_json_serializable(self):
        parsed = json.loads(_result().to_json_string())
        assert parsed["metrics"]["mispredictions"] == 9

    def test_summary_line(self):
        line = _result().summary()
        assert "mpki=" in line and "repro GShare" in line

    def test_derived_properties(self):
        result = _result(mispredictions=0, num_conditional_branches=0,
                         simulation_instructions=0)
        assert result.mpki == 0.0
        assert result.accuracy == 1.0
        assert result.num_most_failed_branches == 0


class TestPickling:
    """Results cross the engine's pipes pickled; every field, including
    the in-memory-only ones, must survive the trip."""

    def test_round_trip_keeps_every_field(self):
        import dataclasses
        import pickle

        from repro.core.metrics import MostFailedEntry

        entry = MostFailedEntry(ip=0x40, occurrences=7, mispredictions=3,
                                mpki=1.5, accuracy=0.5)
        result = _result(predictor_statistics={"conflicts": 2},
                         most_failed=[entry], simulator_name="other",
                         from_cache=True, coalesced=True,
                         probe_report={"components": [1, 2]})
        copy = pickle.loads(pickle.dumps(result))
        for field in dataclasses.fields(SimulationResult):
            assert getattr(copy, field.name) == \
                getattr(result, field.name), field.name
        assert type(copy.most_failed[0]) is MostFailedEntry
        assert pickle.loads(pickle.dumps(entry)) == entry
