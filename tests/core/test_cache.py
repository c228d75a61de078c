"""The content-addressed simulation cache (repro.cache).

Covers the acceptance criteria of the cache subsystem:

* a repeated ``run_suite`` / ``sweep_parameter`` with ``cache=`` performs
  **zero** simulate calls the second time (counting predictor) and
  returns results equal to the uncached run;
* corrupted / truncated entries and concurrent writers degrade to
  recomputation, never wrong results;
* LRU caps, atomic publication, key sensitivity, CLI-facing maintenance
  (stats / clear / verify).
"""

from __future__ import annotations

import enum
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.cache import (CACHE_DIR_ENV, SCHEMA_VERSION, SimulationCache,
                         resolve_cache_dir)
from repro.analysis.sweep import sweep_parameter
from repro.core.batch import run_suite
from repro.core.configured import KeyedSpec
from repro.core.errors import CacheError
from repro.core.output import SimulationResult
from repro.core.plan import WorkPlan, execute_plan
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import Bimodal, GShare
from repro.registry import predictor_factory
from repro.sbbt.digest import trace_digest
from repro.sbbt.writer import write_trace
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES

try:
    import hypothesis  # noqa: F401
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


class CountingBimodal(Bimodal):
    """A bimodal that counts every ``predict`` call, class-wide.

    A cache hit must never predict, so the counter staying flat across a
    second run proves zero simulation work happened.
    """

    predict_calls = 0

    def predict(self, ip: int) -> bool:
        CountingBimodal.predict_calls += 1
        return super().predict(ip)


def counting_factory() -> CountingBimodal:
    return CountingBimodal(log_table_size=10)


@pytest.fixture()
def reset_counter():
    CountingBimodal.predict_calls = 0
    yield


@pytest.fixture(scope="module")
def trace_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cache-traces")
    paths = []
    for i in range(3):
        trace = generate_trace(PROFILES["short_mobile"], seed=40 + i,
                               num_branches=2500)
        path = directory / f"t{i}.sbbt"
        write_trace(path, trace)
        paths.append(path)
    return paths


class TestRepeatedRunsAreFree:
    def test_second_run_suite_simulates_nothing(self, tmp_path, trace_paths,
                                                reset_counter):
        cache = SimulationCache(tmp_path / "c")
        uncached = run_suite(counting_factory, trace_paths)
        first = run_suite(counting_factory, trace_paths, cache=cache)
        calls_after_first = CountingBimodal.predict_calls
        second = run_suite(counting_factory, trace_paths, cache=cache)
        # Zero predict calls in the second run: nothing was simulated.
        assert CountingBimodal.predict_calls == calls_after_first
        assert second.cache_hits == len(trace_paths)
        assert all(r.from_cache for r in second.results)
        # ... and the served results equal both the first cached run and
        # a plain uncached run.
        for fresh, c1, c2 in zip(uncached.results, first.results,
                                 second.results):
            assert c2.to_json() == c1.to_json()
            assert c2.mispredictions == fresh.mispredictions
            assert c2.simulation_instructions == fresh.simulation_instructions

    def test_hits_excluded_from_timing(self, tmp_path, trace_paths):
        cache = SimulationCache(tmp_path / "c")
        run_suite(counting_factory, trace_paths, cache=cache)
        second = run_suite(counting_factory, trace_paths, cache=cache)
        assert second.timing.total == 0.0
        # A half-cached suite times only the fresh simulations.
        extra = trace_paths[0].parent / "extra.sbbt"
        write_trace(extra, generate_trace(PROFILES["short_mobile"], seed=99,
                                          num_branches=2500))
        mixed = run_suite(counting_factory, [*trace_paths, extra],
                          cache=cache)
        assert mixed.cache_hits == len(trace_paths)
        fresh_times = [r.simulation_time for r in mixed.results
                       if not r.from_cache]
        assert len(fresh_times) == 1
        assert mixed.timing.total == pytest.approx(sum(fresh_times))

    def test_repeated_sweep_simulates_nothing(self, tmp_path, trace_paths,
                                              reset_counter):
        cache = SimulationCache(tmp_path / "c")
        first = sweep_parameter(CountingBimodal, "log_table_size",
                                [6, 8], trace_paths[:2], cache=cache)
        calls_after_first = CountingBimodal.predict_calls
        second = sweep_parameter(CountingBimodal, "log_table_size",
                                 [6, 8], trace_paths[:2], cache=cache)
        assert CountingBimodal.predict_calls == calls_after_first
        assert [p.mean_mpki for p in second.points] == \
            [p.mean_mpki for p in first.points]

    def test_refined_sweep_only_simulates_new_points(self, tmp_path,
                                                     trace_paths,
                                                     reset_counter):
        cache = SimulationCache(tmp_path / "c")
        sweep_parameter(CountingBimodal, "log_table_size", [6, 8],
                        trace_paths[:1], cache=cache)
        before = CountingBimodal.predict_calls
        # The refined sweep shares points 6 and 8; only 7 is new.
        sweep_parameter(CountingBimodal, "log_table_size", [6, 7, 8],
                        trace_paths[:1], cache=cache)
        new_calls = CountingBimodal.predict_calls - before
        assert new_calls == before // 2  # one new point of two cached ones

    def test_cache_accepts_plain_directory_path(self, tmp_path, trace_paths,
                                                reset_counter):
        run_suite(counting_factory, trace_paths[:1], cache=tmp_path / "c")
        before = CountingBimodal.predict_calls
        batch = run_suite(counting_factory, trace_paths[:1],
                          cache=str(tmp_path / "c"))
        assert CountingBimodal.predict_calls == before
        assert batch.cache_hits == 1

    def test_one_unit_plan_hit_simulates_nothing(self, tmp_path,
                                                 trace_paths, reset_counter):
        # ``mbp simulate``'s shape: a one-unit plan through the funnel.
        cache = SimulationCache(tmp_path / "c")
        plan = WorkPlan.for_suite(counting_factory, trace_paths[:1])
        (first,) = execute_plan(plan, cache=cache)
        before = CountingBimodal.predict_calls
        (again,) = execute_plan(plan, cache=cache)
        assert CountingBimodal.predict_calls == before
        assert again.from_cache and not first.from_cache
        assert again.to_json() == first.to_json()


class TestKeySensitivity:
    def test_key_changes_with_parameters(self, trace_paths):
        digest = trace_digest(trace_paths[0])
        base = SimulationCache.make_key(digest, Bimodal(10).spec())
        assert SimulationCache.make_key(digest, Bimodal(11).spec()) != base
        assert SimulationCache.make_key(digest, GShare().spec()) != base

    def test_key_changes_with_config(self, trace_paths):
        digest = trace_digest(trace_paths[0])
        spec = Bimodal(10).spec()
        assert (SimulationCache.make_key(digest, spec, SimulationConfig())
                != SimulationCache.make_key(
                    digest, spec, SimulationConfig(warmup_instructions=5)))

    def test_key_changes_with_trace(self, trace_paths):
        spec = Bimodal(10).spec()
        keys = {SimulationCache.make_key(trace_digest(p), spec)
                for p in trace_paths}
        assert len(keys) == len(trace_paths)

    def test_key_stable_across_processes(self, trace_paths):
        digest = trace_digest(trace_paths[0])
        spec = Bimodal(10).spec()
        expected = SimulationCache.make_key(digest, spec)
        code = (
            "from repro.cache import SimulationCache;"
            "from repro.predictors import Bimodal;"
            f"print(SimulationCache.make_key({digest!r}, Bimodal(10).spec()))"
        )
        import subprocess
        import sys
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected

    def test_compression_does_not_change_digest(self, tmp_path):
        trace = generate_trace(PROFILES["short_mobile"], seed=5,
                               num_branches=1000)
        plain = tmp_path / "t.sbbt"
        gz = tmp_path / "t.sbbt.gz"
        write_trace(plain, trace)
        write_trace(gz, trace)
        assert trace_digest(plain) == trace_digest(gz) == trace_digest(trace)


#: One fixed (digest, spec, config) and the keys the cache has always
#: given it: a key that moves orphans every cache directory already
#: filled, so these are literals, not recomputations.
PINNED_DIGEST = "ab" * 32
PINNED_SPEC = {"name": "GShare", "history_length": 15,
               "log_table_size": 14, "counter_width": 2}
PINNED_CONFIG = SimulationConfig(warmup_instructions=1000,
                                 max_instructions=50_000,
                                 track_only_conditional=True,
                                 collect_most_failed=False)
PINNED_KEY = (
    "90f2e415c0a713abbc3399056b9b6e04ab9b3b8d04a4e75444ce9ca07ec22f3e")
PINNED_CONFIG_KEY = (
    "e7ffda6d16cfff940e22e515d2f05f20d6babe7bfcdfe03803f82dd928452ba8")
PINNED_GSHARE_DEFAULT_KEY = (
    "dffe2002254611b68b9acdbc8fc40a977169eb26dcf62a51fe6eca19e371f3df")


class TestKeyStability:
    def test_make_key_is_pinned(self):
        assert SimulationCache.make_key(PINNED_DIGEST,
                                        PINNED_SPEC) == PINNED_KEY
        assert SimulationCache.make_key(PINNED_DIGEST, PINNED_SPEC,
                                        PINNED_CONFIG) == PINNED_CONFIG_KEY

    def test_prefix_path_is_pinned(self):
        keyed = KeyedSpec(PINNED_SPEC)
        assert keyed.cache_key(PINNED_DIGEST, SimulationConfig()) \
            == PINNED_KEY
        assert keyed.cache_key(PINNED_DIGEST,
                               PINNED_CONFIG) == PINNED_CONFIG_KEY

    def test_registry_factory_keys_are_pinned(self):
        derivation = predictor_factory("gshare").derivation()
        assert derivation.cache_key(PINNED_DIGEST, SimulationConfig()) \
            == PINNED_GSHARE_DEFAULT_KEY
        assert SimulationCache.make_key(PINNED_DIGEST, GShare().spec()) \
            == PINNED_GSHARE_DEFAULT_KEY

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="needs hypothesis")
    def test_prefix_path_equals_make_key(self):
        import numpy as np
        from hypothesis import given, settings
        from hypothesis import strategies as st

        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 7

        scalars = st.one_of(
            st.integers(-2**40, 2**40),
            st.integers(-2**31, 2**31 - 1).map(np.int64),
            st.integers(0, 255).map(np.uint8),
            st.sampled_from(list(Level)),
            st.booleans(),
            st.none(),
            st.text(max_size=6),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        values = st.recursive(
            scalars,
            lambda inner: st.one_of(
                st.lists(inner, max_size=3),
                st.lists(inner, max_size=3).map(tuple),
                st.dictionaries(st.text(max_size=4), inner, max_size=3)),
            max_leaves=8)
        specs = st.dictionaries(st.text(max_size=8), values, max_size=5)
        configs = st.builds(
            SimulationConfig,
            warmup_instructions=st.integers(0, 10**9),
            max_instructions=st.one_of(st.none(), st.integers(0, 10**12)),
            track_only_conditional=st.booleans(),
            collect_most_failed=st.booleans())
        digests = st.binary(min_size=32, max_size=32).map(bytes.hex)

        @settings(max_examples=200, deadline=None)
        @given(spec=specs, config=configs, digest=digests)
        def check(spec, config, digest):
            assert KeyedSpec(spec).cache_key(digest, config) == \
                SimulationCache.make_key(digest, spec, config)

        check()


class TestCorruptionTolerance:
    """A damaged cache can cost recomputation, never wrong results."""

    def _seed_cache(self, tmp_path, trace_paths):
        cache = SimulationCache(tmp_path / "c")
        batch = run_suite(counting_factory, trace_paths[:1], cache=cache)
        entries = list((tmp_path / "c").glob("*.json"))
        assert len(entries) == 1
        return cache, entries[0], batch

    @pytest.mark.parametrize("damage", [
        b"",                              # truncated to nothing
        b"{\"schema\":",                  # truncated JSON
        b"not json at all \xff\xfe",     # garbage bytes
        b"[1, 2, 3]",                     # wrong JSON shape
        json.dumps({"schema": SCHEMA_VERSION + 1, "key": "x",
                    "result": {}}).encode(),   # future schema
    ])
    def test_damaged_entry_is_a_miss_then_recomputed(
            self, tmp_path, trace_paths, reset_counter, damage):
        cache, entry, batch = self._seed_cache(tmp_path, trace_paths)
        entry.write_bytes(damage)
        before = CountingBimodal.predict_calls
        again = run_suite(counting_factory, trace_paths[:1], cache=cache)
        # Recomputed (predict ran again), and the answer is right.
        assert CountingBimodal.predict_calls > before
        assert again.results[0].mispredictions == \
            batch.results[0].mispredictions
        assert not again.results[0].from_cache

    def test_tampered_result_fails_verify(self, tmp_path, trace_paths):
        cache, entry, _ = self._seed_cache(tmp_path, trace_paths)
        data = json.loads(entry.read_bytes())
        data["result"]["metrics"]["mispredictions"] += 1  # silent corruption
        entry.write_bytes(json.dumps(data).encode())
        report = cache.verify()
        assert not report.ok
        assert report.invalid[0][1] == "result does not round-trip"

    def test_entry_under_wrong_name_is_ignored(self, tmp_path, trace_paths,
                                               reset_counter):
        cache, entry, _ = self._seed_cache(tmp_path, trace_paths)
        # A valid entry renamed to another key must not be served for it.
        other_key = "0" * 64
        entry.rename(entry.with_name(f"{other_key}.json"))
        assert cache.get(other_key) is None

    def test_verify_delete_removes_bad_entries(self, tmp_path, trace_paths):
        cache, entry, _ = self._seed_cache(tmp_path, trace_paths)
        entry.write_bytes(b"garbage")
        report = cache.verify(delete=True)
        assert len(report.invalid) == 1
        assert len(cache) == 0


def _fill_cache(args):
    """Worker for the concurrent-writer test (module-level: picklable)."""
    cache_dir, trace_path = args
    batch = run_suite(counting_factory, [trace_path], cache=cache_dir)
    return batch.results[0].mispredictions


class TestConcurrentWriters:
    def test_two_processes_share_a_directory(self, tmp_path, trace_paths):
        cache_dir = tmp_path / "shared"
        ctx = multiprocessing.get_context("spawn")
        jobs = [(str(cache_dir), str(p)) for p in trace_paths for _ in (0, 1)]
        with ctx.Pool(2) as pool:
            counts = pool.map(_fill_cache, jobs)
        # Every worker got the right answer regardless of who stored first.
        reference = {str(p): simulate(Bimodal(10), p).mispredictions
                     for p in trace_paths}
        for (_, path), count in zip(jobs, counts):
            assert count == reference[path]
        # The shared directory holds exactly one sound entry per trace.
        cache = SimulationCache(cache_dir)
        assert len(cache) == len(trace_paths)
        assert cache.verify().ok

    def test_no_temp_litter_after_puts(self, tmp_path, trace_paths):
        cache = SimulationCache(tmp_path / "c")
        run_suite(counting_factory, trace_paths, cache=cache)
        leftovers = [p for p in (tmp_path / "c").iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestLruCap:
    def _result(self, trace_paths, i=0):
        return simulate(Bimodal(10), trace_paths[i])

    def test_max_entries_evicts_oldest(self, tmp_path, trace_paths):
        cache = SimulationCache(tmp_path / "c", max_entries=2)
        result = self._result(trace_paths)
        for i, key in enumerate(["a" * 64, "b" * 64, "c" * 64]):
            cache.put(key, result)
            path = cache._entry_path(key)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        cache.prune()
        names = {p.stem for p in (tmp_path / "c").glob("*.json")}
        assert names == {"b" * 64, "c" * 64}

    def test_hit_refreshes_recency(self, tmp_path, trace_paths):
        cache = SimulationCache(tmp_path / "c", max_entries=2)
        result = self._result(trace_paths)
        keys = ["a" * 64, "b" * 64]
        for i, key in enumerate(keys):
            cache.put(key, result)
            os.utime(cache._entry_path(key), (1_000_000 + i,) * 2)
        assert cache.get("a" * 64) is not None  # refresh "a"
        cache.put("c" * 64, result)  # must evict "b", the stale one
        names = {p.stem for p in (tmp_path / "c").glob("*.json")}
        assert "a" * 64 in names and "b" * 64 not in names

    def test_max_bytes_cap(self, tmp_path, trace_paths):
        result = self._result(trace_paths)
        entry_size = len(json.dumps({
            "schema": SCHEMA_VERSION, "key": "k" * 64,
            "result": result.to_json(),
        }, separators=(",", ":")).encode())
        cache = SimulationCache(tmp_path / "c",
                                max_bytes=2 * entry_size + 10)
        for i, key in enumerate(["a" * 64, "b" * 64, "c" * 64]):
            cache.put(key, result)
            os.utime(cache._entry_path(key), (1_000_000 + i,) * 2)
        cache.prune()
        assert len(cache) == 2
        assert cache.stats().total_bytes <= 2 * entry_size + 10

    def test_bad_caps_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            SimulationCache(tmp_path / "c", max_entries=0)
        with pytest.raises(CacheError):
            SimulationCache(tmp_path / "c", max_bytes=0)


class TestMaintenance:
    def test_stats_clear(self, tmp_path, trace_paths):
        cache = SimulationCache(tmp_path / "c")
        run_suite(counting_factory, trace_paths, cache=cache)
        stats = cache.stats()
        assert stats.entries == len(trace_paths)
        assert stats.stores == len(trace_paths)
        assert stats.total_bytes > 0
        assert cache.clear() == len(trace_paths)
        assert cache.stats().entries == 0

    def test_directory_is_a_file(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        with pytest.raises(CacheError):
            SimulationCache(blocker)

    def test_result_json_round_trip(self, trace_paths):
        result = simulate(GShare(history_length=8, log_table_size=10),
                          trace_paths[0],
                          SimulationConfig(warmup_instructions=100))
        rebuilt = SimulationResult.from_json(result.to_json())
        assert rebuilt.to_json() == result.to_json()
        assert rebuilt.mpki == result.mpki


class TestResolveCacheDir:
    """Regression tests for the single flag > env > default rule."""

    def test_explicit_beats_environment(self):
        assert resolve_cache_dir(
            "flag", environ={CACHE_DIR_ENV: "env"}) == "flag"

    def test_environment_beats_default(self):
        assert resolve_cache_dir(
            None, default="dflt", environ={CACHE_DIR_ENV: "env"}) == "env"

    def test_default_when_nothing_else(self):
        assert resolve_cache_dir(None, default="dflt", environ={}) == "dflt"

    def test_all_unset_is_none(self):
        assert resolve_cache_dir(None, environ={}) is None

    def test_empty_strings_mean_unset_at_every_level(self):
        assert resolve_cache_dir(
            "", default="dflt", environ={CACHE_DIR_ENV: ""}) == "dflt"
        assert resolve_cache_dir("", environ={}) is None

    def test_pathlike_explicit_is_stringified(self):
        assert resolve_cache_dir(Path("p") / "q", environ={}) == os.path.join(
            "p", "q")

    def test_reads_real_environment_by_default(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "from-process-env")
        assert resolve_cache_dir(None) == "from-process-env"
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert resolve_cache_dir(None) is None

    def test_cli_simulate_and_cache_stats_agree(self, tmp_path, trace_paths,
                                                monkeypatch, capsys):
        """`mbp simulate` (env-resolved cache) fills exactly the store
        `mbp cache stats` (same env) inspects."""
        from repro.cli import main

        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        assert main(["simulate", str(trace_paths[0]),
                     "--predictor", "bimodal"]) == 0
        capsys.readouterr()  # discard the simulation report
        assert main(["cache", "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["directory"] == str(cache_dir)
        assert stats["entries"] == 1
