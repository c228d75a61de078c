"""Tests for the attribution/structure subsystem (:mod:`repro.probe`).

Covers the ISSUE-4 acceptance properties:

* with a probe attached, every composed predictor's per-component
  ``provided`` counts sum exactly to the measured prediction total
  (root scope == the simulator's conditional-branch count), under no
  warmup and under warmup;
* with the probe disabled the ``SimulationResult`` JSON is byte-
  identical to a probe-less run — the hooks are invisible when off;
* the vectorized engine fills a probe whose attribution, branch
  profile and structural statistics match the scalar simulator's
  exactly;
* ``run_suite(probe=True)`` attaches one fresh probe per trace on both
  the inline and the process-pool paths, and
  ``get_or_simulate(probe=...)`` observes misses only;
* probe reports survive the manifest / telemetry-document round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import SimulationCache
from repro.core.batch import run_suite
from repro.core.simulator import SimulationConfig, simulate
from repro.core.vectorized import simulate_vectorized
from repro.predictors import (
    Batage,
    Bimodal,
    GShare,
    HashedPerceptron,
    NeverTakenFilter,
    OGehl,
    Tage,
    Tournament,
    TwoBcGskew,
    WithLoopPredictor,
    Yags,
)
from repro.probe import (
    PROBE_SCHEMA,
    PredictionProbe,
    ScopedProbe,
    probe_consistent_with,
)
from repro.telemetry import (
    RunManifest,
    build_manifest,
    read_telemetry,
    write_telemetry,
)

# Every attribution-capable predictor shape in the examples library,
# sized small so each scalar simulation stays fast.
PREDICTOR_FACTORIES = {
    "bimodal": lambda: Bimodal(log_table_size=10),
    "gshare": lambda: GShare(log_table_size=10, history_length=8),
    "tournament": lambda: Tournament(Bimodal(log_table_size=10),
                                     Bimodal(log_table_size=10),
                                     GShare(log_table_size=10)),
    "tage": lambda: Tage(),
    "batage": lambda: Batage(),
    "gskew": lambda: TwoBcGskew(log_bank_size=10),
    "yags": lambda: Yags(log_choice_size=10, log_cache_size=8),
    "gehl": lambda: OGehl(num_tables=4, log_table_size=8),
    "perceptron": lambda: HashedPerceptron(log_table_size=8),
    "loop": lambda: WithLoopPredictor(GShare(log_table_size=10)),
    "filter": lambda: NeverTakenFilter(Bimodal(log_table_size=10)),
}


class TestProbeAccumulator:
    def test_record_and_report_shape(self):
        probe = PredictionProbe(top_branches=5)
        probe.record(0x40, "a", True)
        probe.record(0x40, "a", False, overrode="b")
        probe.record(0x44, "b", True, scope="inner")
        probe.record_branch(0x40, taken=True, mispredicted=False)
        probe.record_branch(0x40, taken=False, mispredicted=True)
        report = probe.report()
        assert report["schema"] == PROBE_SCHEMA
        root = report["attribution"][""]
        assert root["predictions"] == 2
        assert root["components"]["a"] == {
            "provided": 2, "correct": 1, "overrides": 1,
            "override_correct": 0, "overridden": 0,
        }
        assert root["components"]["b"]["overridden"] == 1
        assert report["attribution"]["inner"]["predictions"] == 1
        offenders = report["branches"]["top_offenders"]
        assert offenders[0] == {
            "ip": 0x40, "occurrences": 2, "taken": 1, "taken_rate": 0.5,
            "mispredictions": 1, "misprediction_rate": 0.5,
            "dominant_component": "a",
        }

    def test_warmup_gating(self):
        probe = PredictionProbe()
        probe.start(warmup_active=True)
        probe.record(0x40, "a", True)
        probe.record_branch(0x40, True, False)
        assert probe.report()["attribution"] == {}
        probe.arm()
        probe.record(0x40, "a", True)
        assert probe.report()["attribution"][""]["predictions"] == 1

    def test_start_resets(self):
        probe = PredictionProbe()
        probe.record(0x40, "a", True)
        probe.set_structure({"t": {"entries": 1}})
        probe.start()
        report = probe.report()
        assert report["attribution"] == {}
        assert report["branches"]["tracked"] == 0
        assert report["structure"] == {}

    def test_scoped_views_nest(self):
        probe = PredictionProbe()
        scoped = probe.scoped("outer")
        assert isinstance(scoped, ScopedProbe)
        scoped.record(0x40, "x", True)
        scoped.scoped("deep").record(0x40, "y", False)
        attribution = probe.report()["attribution"]
        assert set(attribution) == {"outer", "outer/deep"}

    def test_top_branches_bounds_offenders_not_tracking(self):
        probe = PredictionProbe(top_branches=2)
        for ip in range(5):
            probe.record_branch(ip, True, True)
        branches = probe.report()["branches"]
        assert branches["tracked"] == 5
        assert len(branches["top_offenders"]) == 2

    def test_offenders_ranked_by_mispredictions_then_ip(self):
        probe = PredictionProbe()
        probe.record_branch_bulk(0x50, 10, 5, 3)
        probe.record_branch_bulk(0x40, 10, 5, 3)
        probe.record_branch_bulk(0x60, 10, 5, 9)
        ips = [o["ip"] for o in probe.report()["branches"]["top_offenders"]]
        assert ips == [0x60, 0x40, 0x50]


class TestAttributionInvariants:
    @pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
    def test_provided_sums_to_predictions(self, name, server_trace):
        factory = PREDICTOR_FACTORIES[name]
        probe = PredictionProbe()
        result = simulate(factory(), server_trace, SimulationConfig(),
                          probe=probe)
        report = result.probe_report
        assert report is probe.report() or report == probe.report()
        assert probe_consistent_with(report, result)
        root = report["attribution"][""]
        assert root["predictions"] == result.num_conditional_branches
        provided = sum(c["provided"]
                       for c in root["components"].values())
        assert provided == result.num_conditional_branches
        correct = sum(c["correct"] for c in root["components"].values())
        assert correct == (result.num_conditional_branches
                           - result.mispredictions)

    @pytest.mark.parametrize("name", ["tournament", "tage", "loop"])
    def test_invariants_hold_under_warmup(self, name, server_trace):
        factory = PREDICTOR_FACTORIES[name]
        probe = PredictionProbe()
        config = SimulationConfig(warmup_instructions=3000)
        result = simulate(factory(), server_trace, config, probe=probe)
        report = result.probe_report
        assert probe_consistent_with(report, result)
        assert (report["attribution"][""]["predictions"]
                == result.num_conditional_branches)

    def test_override_bookkeeping_is_symmetric(self, server_trace):
        probe = PredictionProbe()
        simulate(PREDICTOR_FACTORIES["tournament"](), server_trace,
                 SimulationConfig(), probe=probe)
        components = probe.report()["attribution"][""]["components"]
        # In a two-arm tournament every override has exactly one loser.
        assert (components["predictor_0"]["overrides"]
                == components["predictor_1"]["overridden"])
        assert (components["predictor_1"]["overrides"]
                == components["predictor_0"]["overridden"])

    def test_branch_profile_matches_most_failed(self, server_trace):
        # The probe's offender ranking must agree with the Listing-1
        # ``most_failed`` section: same order, same per-branch counts.
        probe = PredictionProbe(top_branches=10 ** 9)
        result = simulate(Bimodal(log_table_size=10), server_trace,
                          SimulationConfig(), probe=probe)
        offenders = result.probe_report["branches"]["top_offenders"]
        by_ip = {o["ip"]: o for o in offenders}
        assert result.most_failed
        for entry in result.most_failed:
            offender = by_ip[entry.ip]
            assert offender["occurrences"] == entry.occurrences
            assert offender["mispredictions"] == entry.mispredictions
        head = [(o["ip"], o["mispredictions"])
                for o in offenders[:len(result.most_failed)]]
        assert head == [(e.ip, e.mispredictions)
                        for e in result.most_failed]

    def test_structure_snapshot_present(self, server_trace):
        probe = PredictionProbe()
        simulate(PREDICTOR_FACTORIES["tage"](), server_trace,
                 SimulationConfig(), probe=probe)
        structure = probe.report()["structure"]
        assert "base" in structure and "T1" in structure
        stats = structure["T1"]
        assert 0.0 <= stats["live_fraction"] <= 1.0
        assert 0.0 <= stats["saturated_fraction"] <= 1.0
        assert stats["entropy_bits"] >= 0.0


class TestZeroOverheadContract:
    @pytest.mark.parametrize("name", ["tournament", "tage", "bimodal"])
    def test_disabled_run_json_identical(self, name, server_trace):
        factory = PREDICTOR_FACTORIES[name]
        plain = simulate(factory(), server_trace, SimulationConfig())
        probed = simulate(factory(), server_trace, SimulationConfig(),
                          probe=PredictionProbe())
        a, b = plain.to_json(), probed.to_json()
        a["metrics"].pop("simulation_time")
        b["metrics"].pop("simulation_time")
        assert a == b
        assert plain.probe_report is None
        # The probe never leaks into the serialized (cache-keyed) form.
        assert "probe" not in json.dumps(probed.to_json())

    def test_probe_detached_after_run(self, server_trace):
        predictor = PREDICTOR_FACTORIES["tournament"]()
        simulate(predictor, server_trace, SimulationConfig(),
                 probe=PredictionProbe())
        assert predictor._probe is None


class TestVectorizedProbe:
    def test_bimodal_matches_scalar_probe(self, server_trace):
        scalar = PredictionProbe(top_branches=10 ** 9)
        scalar_result = simulate(Bimodal(log_table_size=10), server_trace,
                                 SimulationConfig(), probe=scalar)
        vectorized = PredictionProbe(top_branches=10 ** 9)
        vec_result = simulate_vectorized(
            Bimodal(log_table_size=10), server_trace, probe=vectorized)
        a, b = scalar.report(), vectorized.report()
        assert a["attribution"] == b["attribution"]
        assert a["branches"] == b["branches"]
        assert a["structure"] == b["structure"]
        assert probe_consistent_with(b, vec_result)
        assert scalar_result.mispredictions == vec_result.mispredictions

    def test_gshare_matches_scalar_probe(self, server_trace):
        scalar = PredictionProbe(top_branches=10 ** 9)
        config = SimulationConfig(track_only_conditional=False)
        simulate(GShare(log_table_size=10, history_length=8), server_trace,
                 config, probe=scalar)
        vectorized = PredictionProbe(top_branches=10 ** 9)
        simulate_vectorized(GShare(log_table_size=10, history_length=8),
                            server_trace, config, probe=vectorized)
        assert scalar.report() == vectorized.report()

    def test_warmup_region_excluded(self, server_trace):
        scalar = PredictionProbe(top_branches=10 ** 9)
        config = SimulationConfig(warmup_instructions=5000)
        simulate(Bimodal(log_table_size=10), server_trace, config,
                 probe=scalar)
        vectorized = PredictionProbe(top_branches=10 ** 9)
        result = simulate_vectorized(Bimodal(log_table_size=10),
                                     server_trace, config, probe=vectorized)
        assert scalar.report() == vectorized.report()
        assert probe_consistent_with(vectorized.report(), result)


class TestSuiteAndCacheThreading:
    def test_run_suite_probe_inline(self, small_trace, server_trace):
        batch = run_suite(Bimodal, [small_trace, server_trace], probe=True)
        assert len(batch.results) == 2
        for result in batch.results:
            assert result.probe_report is not None
            assert probe_consistent_with(result.probe_report, result)

    def test_run_suite_probe_across_processes(self, small_trace,
                                              server_trace):
        batch = run_suite(Bimodal, [small_trace, server_trace],
                          workers=2, probe=True)
        reports = [r.probe_report for r in batch.results]
        assert all(r is not None for r in reports)
        # Fresh accumulator per worker: totals differ per trace.
        inline = run_suite(Bimodal, [small_trace, server_trace],
                           probe=True)
        assert reports == [r.probe_report for r in inline.results]

    def test_run_suite_default_has_no_reports(self, small_trace):
        batch = run_suite(Bimodal, [small_trace])
        assert batch.results[0].probe_report is None

    def test_cache_hit_returns_no_probe_report(self, small_trace,
                                               tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        fresh = cache.get_or_simulate(Bimodal, small_trace,
                                      probe=PredictionProbe())
        assert fresh.probe_report is not None
        hit = cache.get_or_simulate(Bimodal, small_trace,
                                    probe=PredictionProbe())
        assert hit.from_cache
        assert hit.probe_report is None
        # The probe never changed what went on disk.
        assert fresh.to_json() == json.loads(
            json.dumps(hit.to_json()))


class TestProbeThroughTelemetry:
    def test_manifest_carries_probe_report(self, small_trace):
        probe = PredictionProbe()
        result = simulate(Bimodal(log_table_size=10), small_trace,
                          SimulationConfig(), probe=probe)
        manifest = build_manifest(result, environment={},
                                  created="2026-01-01T00:00:00+00:00")
        assert manifest.probe == result.probe_report
        document = manifest.to_json()
        assert document["probe"]["schema"] == PROBE_SCHEMA
        assert RunManifest.from_json(document) == manifest

    def test_probe_less_manifest_omits_key(self, small_trace):
        result = simulate(Bimodal(log_table_size=10), small_trace)
        manifest = build_manifest(result, environment={},
                                  created="2026-01-01T00:00:00+00:00")
        assert "probe" not in manifest.to_json()

    def test_telemetry_document_round_trip(self, small_trace, tmp_path):
        probe = PredictionProbe()
        result = simulate(Bimodal(log_table_size=10), small_trace,
                          SimulationConfig(), probe=probe)
        path = tmp_path / "telemetry.json"
        write_telemetry(path, probe=result.probe_report)
        document = read_telemetry(path)
        assert document["probe"] == result.probe_report

    def test_probe_less_document_omits_key(self, tmp_path):
        path = tmp_path / "telemetry.json"
        write_telemetry(path)
        assert "probe" not in json.loads(path.read_text())


class TestVectorizedCatalogProbe:
    """``simulate(engine="vectorized")`` probe parity for every predictor
    with a vector kernel: attribution, branch profile and structural
    snapshot must serialize identically to the scalar engine's report."""

    VECTORIZABLE = ["bimodal", "gshare", "tournament", "gskew", "yags"]

    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_report_matches_scalar(self, name, server_trace):
        scalar = PredictionProbe(top_branches=10 ** 9)
        scalar_result = simulate(PREDICTOR_FACTORIES[name](), server_trace,
                                 SimulationConfig(), probe=scalar)
        vectorized = PredictionProbe(top_branches=10 ** 9)
        vec_result = simulate(PREDICTOR_FACTORIES[name](), server_trace,
                              SimulationConfig(), engine="vectorized",
                              probe=vectorized)
        assert json.dumps(scalar.report()) == json.dumps(vectorized.report())
        assert probe_consistent_with(vec_result.probe_report, vec_result)
        assert scalar_result.mispredictions == vec_result.mispredictions

    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_report_matches_scalar_under_warmup(self, name, server_trace):
        config = SimulationConfig(warmup_instructions=5000)
        scalar = PredictionProbe(top_branches=10 ** 9)
        simulate(PREDICTOR_FACTORIES[name](), server_trace, config,
                 probe=scalar)
        vectorized = PredictionProbe(top_branches=10 ** 9)
        simulate(PREDICTOR_FACTORIES[name](), server_trace, config,
                 engine="vectorized", probe=vectorized)
        assert scalar.report() == vectorized.report()

    def test_structure_snapshot_matches(self, server_trace):
        # Component tables (chooser + both bases for the tournament)
        # must land under the same roles with the same statistics.
        scalar = PredictionProbe()
        simulate(PREDICTOR_FACTORIES["tournament"](), server_trace,
                 SimulationConfig(), probe=scalar)
        vectorized = PredictionProbe()
        simulate(PREDICTOR_FACTORIES["tournament"](), server_trace,
                 SimulationConfig(), engine="vectorized", probe=vectorized)
        a, b = scalar.report(), vectorized.report()
        assert list(a["structure"]) == list(b["structure"])
        assert a["structure"] == b["structure"]
