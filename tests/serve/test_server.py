"""End-to-end tests for the ``mbp serve`` daemon.

Every test starts a real server (on a background thread, via
``start_in_thread``) and talks to it over a real socket.  Most use
``workers=0`` (plans run inline on the server's threads — no
multiprocessing) for speed; the shared-memory hygiene tests use a
real engine.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from repro.core.plan import WorkPlan, execute_plan
from repro.core.simulator import SimulationConfig, simulate
from repro.cli import PREDICTOR_CHOICES
from repro.registry import predictor_factory
from repro.sbbt.writer import write_trace
from repro.serve import MbpClient, ServeConfig, ServeError, start_in_thread
from repro.serve.protocol import encode_frame
from repro.serve.server import MbpServer, _Client


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, small_trace, server_trace, medium_trace):
    """Three traces on disk, shared by every test in the module."""
    directory = tmp_path_factory.mktemp("serve-traces")
    paths = []
    for name, trace in (("mobile", small_trace), ("server", server_trace),
                        ("medium", medium_trace)):
        path = directory / f"{name}.sbbt"
        write_trace(path, trace)
        paths.append(str(path))
    return paths


@pytest.fixture
def serve(tmp_path):
    """Factory fixture: start a server, auto-stop at teardown."""
    handles = []

    def _start(**overrides):
        overrides.setdefault("socket_path", str(tmp_path / "mbp.sock"))
        overrides.setdefault("workers", 0)
        handle = start_in_thread(ServeConfig(**overrides))
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


# ----------------------------------------------------------------------
# Basic round trips.
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_ping(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.ping()
        assert reply["ok"] is True
        assert reply["server"] == "mbp-serve"

    def test_simulate_then_cache_hit(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            first = client.simulate(trace_files[0], "gshare")
            second = client.simulate(trace_files[0], "gshare")
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert first["result"] == second["result"]

    def test_suite_aggregates(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.suite(trace_files, "bimodal")
        assert [entry["trace"] for entry in reply["results"]] == trace_files
        assert reply["failures"] == []
        mpkis = [entry["result"]["metrics"]["mpki"]
                 for entry in reply["results"]]
        assert reply["aggregate"]["mean_mpki"] == pytest.approx(
            sum(mpkis) / len(mpkis))

    def test_sweep_points_and_best(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.sweep([trace_files[0]], "gshare",
                                 "history_length", [2, 8])
        assert [point["parameters"] for point in reply["points"]] == [
            {"history_length": 2}, {"history_length": 8}]
        best = min(reply["points"], key=lambda point: point["mean_mpki"])
        assert reply["best"]["parameters"] == best["parameters"]

    def test_sweep_runs_one_batched_group(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.sweep([trace_files[0]], "gshare",
                                 "history_length", [2, 4, 8])
            stats = client.stats()
        # The sweep's one plan evaluated all three points in one
        # stacked pass, and this request computed every entry.
        assert stats["counters"]["serve_batch_groups"] == 1
        assert stats["counters"]["serve_batch_units"] == 3
        assert stats["server"]["batch"] == "auto"
        assert all(point["cache_hits"] == 0 for point in reply["points"])

    def test_batch_off_disables_prewarm(self, serve, trace_files):
        handle = serve(batch="off")
        with MbpClient(socket_path=handle.socket_path) as client:
            off = client.sweep([trace_files[0]], "gshare",
                               "history_length", [2, 8])
            stats = client.stats()
        assert "serve_batch_groups" not in stats["counters"]
        assert stats["server"]["batch"] == "off"
        # Same answers either way.
        handle_on = serve(socket_path=None,
                          host="127.0.0.1", port=0)
        kind, host, port = handle_on.address
        with MbpClient(host=host, port=port) as client:
            on = client.sweep([trace_files[0]], "gshare",
                              "history_length", [2, 8])
        assert [p["mean_mpki"] for p in on["points"]] == \
            [p["mean_mpki"] for p in off["points"]]

    def test_bad_batch_config_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(batch="sometimes")

    def test_tcp_transport(self, serve, trace_files):
        handle = serve(socket_path=None, host="127.0.0.1", port=0)
        kind, host, port = handle.address
        assert kind == "tcp"
        with MbpClient(host=host, port=port) as client:
            reply = client.simulate(trace_files[0], "bimodal")
        assert reply["ok"] is True

    def test_parameters_override_constructor(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            narrow = client.simulate(trace_files[0], "gshare",
                                     parameters={"history_length": 2})
            default = client.simulate(trace_files[0], "gshare")
        spec_narrow = narrow["result"]["metadata"]["predictor"]
        spec_default = default["result"]["metadata"]["predictor"]
        assert spec_narrow != spec_default


# ----------------------------------------------------------------------
# One pass through the funnel: one digest, one cache read per unit.
# ----------------------------------------------------------------------


class TestOnePassFunnel:
    def test_sweep_digests_once_and_reads_each_unit_once(
            self, serve, trace_files, tmp_path, monkeypatch):
        import repro.sbbt.digest as sbbt_digest

        from repro.sbbt.reader import read_trace

        digest = sbbt_digest.trace_digest(read_trace(trace_files[0]))
        calls = []
        original = sbbt_digest.payload_digest

        def counting(payload):
            calls.append(original(payload))
            return calls[-1]

        monkeypatch.setattr(sbbt_digest, "payload_digest", counting)
        handle = serve(cache_dir=str(tmp_path / "cache"))
        with MbpClient(socket_path=handle.socket_path) as client:
            first = client.sweep([trace_files[0]], "gshare",
                                 "history_length", [2, 4, 8])
            stats = client.stats()
            assert calls == [digest]
            repeat = client.sweep([trace_files[0]], "gshare",
                                  "history_length", [2, 4, 8])
        units = stats["counters"]["serve_units"]
        assert units == 3
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == units
        assert all(point["cache_hits"] == 0 for point in first["points"])
        assert all(point["cache_hits"] == 1 for point in repeat["points"])
        assert [point["mean_mpki"] for point in repeat["points"]] == \
            [point["mean_mpki"] for point in first["points"]]


# ----------------------------------------------------------------------
# Fidelity: served results vs direct library calls.
# ----------------------------------------------------------------------


PREDICTORS_UNDER_TEST = ("bimodal", "gshare", "two-level")


class TestFidelity:
    def test_result_matches_direct_simulate(self, serve, trace_files):
        """Served JSON == direct simulate() for three predictors, up to
        the wall-clock field (the only nondeterministic byte)."""
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            for name in PREDICTORS_UNDER_TEST:
                served = client.simulate(trace_files[0], name)["result"]
                direct = simulate(PREDICTOR_CHOICES[name](),
                                  trace_files[0],
                                  SimulationConfig()).to_json()
                served["metrics"].pop("simulation_time")
                direct["metrics"].pop("simulation_time")
                assert served == direct, name

    def test_byte_identical_through_shared_cache(self, serve, trace_files,
                                                 tmp_path):
        """With a shared cache directory the round trip is *literally*
        byte-identical to `mbp simulate --cache-dir`, wall clock
        included — under 4 concurrent clients."""
        cache_dir = tmp_path / "shared-cache"
        direct_json: dict[str, str] = {}
        for name in PREDICTORS_UNDER_TEST:
            (result,) = execute_plan(
                WorkPlan.for_suite(predictor_factory(name),
                                   [trace_files[0]], SimulationConfig()),
                cache=cache_dir)
            direct_json[name] = result.to_json_string()

        handle = serve(cache_dir=str(cache_dir))
        served: dict[str, str] = {}
        errors: list[Exception] = []
        lock = threading.Lock()

        def worker(name):
            try:
                with MbpClient(socket_path=handle.socket_path) as client:
                    reply = client.simulate(trace_files[0], name)
                    with lock:
                        served[name] = json.dumps(reply["result"], indent=2)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in PREDICTORS_UNDER_TEST + ("gshare",)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for name in PREDICTORS_UNDER_TEST:
            assert served[name] == direct_json[name], name


# ----------------------------------------------------------------------
# Coalescing and concurrency.
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_pipelined_identical_requests_compute_once(self, serve,
                                                       trace_files):
        handle = serve()
        request = {"op": "simulate", "trace": trace_files[0],
                   "predictor": "bimodal"}
        with MbpClient(socket_path=handle.socket_path) as client:
            replies = client.request_many([dict(request) for _ in range(10)])
            counters = client.stats()["counters"]
        assert all(not isinstance(reply, ServeError) for reply in replies)
        results = {json.dumps(reply["result"], sort_keys=True)
                   for reply in replies}
        assert len(results) == 1
        assert counters["serve_units"] == 10
        assert counters["serve_cache_misses"] == 1
        assert (counters.get("serve_coalesced", 0)
                + counters.get("serve_cache_hits", 0)) == 9

    def test_concurrent_clients_coalesce(self, serve, trace_files):
        """4 clients racing the same request: exactly one simulation."""
        handle = serve()
        barrier = threading.Barrier(4)
        errors: list[Exception] = []

        def worker():
            try:
                with MbpClient(socket_path=handle.socket_path) as client:
                    barrier.wait(timeout=30)
                    reply = client.simulate(trace_files[1], "gshare")
                    assert reply["ok"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with MbpClient(socket_path=handle.socket_path) as client:
            counters = client.stats()["counters"]
        assert counters["serve_units"] == 4
        assert counters["serve_cache_misses"] == 1
        assert (counters.get("serve_coalesced", 0)
                + counters.get("serve_cache_hits", 0)) == 3

    def test_suite_naming_a_trace_twice_simulates_it_once(self, serve,
                                                          trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.suite([trace_files[0], trace_files[0]], "gshare")
            stats = client.stats()
        first, second = reply["results"]
        assert first["result"] == second["result"]
        assert (first["coalesced"], second["coalesced"]) == (False, True)
        assert reply["aggregate"]["coalesced"] == 1
        assert stats["counters"]["serve_coalesced"] == 1
        assert stats["counters"]["serve_cache_misses"] == 1
        assert stats["cache"]["stores"] == 1
        assert stats["cache"]["entries"] == 1

    def test_stats_report_engine_and_cache_sections(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            stats = client.stats()
        assert stats["engine"] is None  # workers=0: inline plans
        assert stats["cache"]["entries"] == 0
        assert stats["queue"]["limit_per_client"] == 64
        assert stats["server"]["workers"] == 0


class TestStatsUnderLoad:
    def test_stats_during_concurrent_plans(self, serve, trace_files):
        """``stats`` answers consistently while plan threads tally."""
        handle = serve()
        errors: list[Exception] = []

        def worker(offset: int) -> None:
            try:
                with MbpClient(socket_path=handle.socket_path) as client:
                    for round_ in range(3):
                        client.sweep(trace_files[:2], "gshare",
                                     "history_length",
                                     [offset + 4 * round_ + h
                                      for h in (1, 2)])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(20 * i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        seen = []
        with MbpClient(socket_path=handle.socket_path) as client:
            while any(thread.is_alive() for thread in threads):
                seen.append(client.stats()["counters"].get("serve_units", 0))
            for thread in threads:
                thread.join()
            final = client.stats()["counters"]
        assert not errors
        assert seen and seen == sorted(seen)  # tallies only ever grow
        assert final["serve_units"] == 3 * 3 * 2 * 2
        assert final == handle.server.telemetry.snapshot()["counters"]

    def test_stats_copies_tallies_under_their_lock(self, serve):
        handle = serve()
        telemetry = handle.server.telemetry
        lock = telemetry._lock
        held: list[bool] = []

        class Watched(dict):
            """Records, on every copy, whether the tally lock is held."""

            def __iter__(self):
                return super().__iter__()

            def keys(self):
                held.append(lock.locked())
                return super().keys()

        with lock:
            telemetry.counters = Watched(telemetry.counters)
            telemetry.phases = Watched(telemetry.phases)
        with MbpClient(socket_path=handle.socket_path) as client:
            stats = client.stats()
        assert stats["counters"]["serve_requests"] == 1
        assert held and all(held)

class TestSpanLog:
    def test_blocked_plan_has_its_lookup_span_on_disk(
            self, serve, trace_files, tmp_path, monkeypatch):
        """Spans reach the daemon's log as they close, not when the
        plan returns: a plan stuck in its simulation has already
        written its ``cache_lookup`` span."""
        from repro.core import batch as core_batch
        from repro.tracing import read_spans

        entered, release = threading.Event(), threading.Event()
        run_one = core_batch._run_one

        def blocking(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return run_one(*args, **kwargs)

        monkeypatch.setattr(core_batch, "_run_one", blocking)
        handle = serve(trace_dir=str(tmp_path / "spans"))
        replies = []

        def request():
            with MbpClient(socket_path=handle.socket_path) as client:
                replies.append(client.simulate(trace_files[0], "bimodal"))

        thread = threading.Thread(target=request)
        thread.start()
        try:
            assert entered.wait(timeout=30)
            names = [span.name for span in read_spans([tmp_path / "spans"])]
            assert "cache_lookup" in names
            assert "execute_plan" not in names
        finally:
            release.set()
            thread.join(timeout=30)
        assert replies and replies[0]["ok"]
        handle.stop()
        spans = read_spans([tmp_path / "spans"])
        assert [s.name for s in spans].count("execute_plan") == 1


# ----------------------------------------------------------------------
# Error replies: every failure is a frame, not a dropped connection.
# ----------------------------------------------------------------------


def _raw_connection(handle):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(handle.socket_path)
    return sock


class TestErrorReplies:
    def test_malformed_json_gets_bad_request_and_connection_survives(
            self, serve):
        handle = serve()
        sock = _raw_connection(handle)
        reader = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        reply = json.loads(reader.readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"
        sock.sendall(encode_frame({"id": 2, "op": "ping"}))
        reply = json.loads(reader.readline())
        assert reply["ok"] is True and reply["id"] == 2
        sock.close()

    def test_oversized_request_gets_too_large_then_close(self, serve):
        handle = serve(max_request_bytes=4096)
        sock = _raw_connection(handle)
        reader = sock.makefile("rb")
        sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
        reply = json.loads(reader.readline())
        assert reply["error"]["code"] == "too_large"
        assert reader.readline() == b""  # server closed the connection
        sock.close()

    def test_unknown_predictor(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(trace_files[0], "nope")
        assert excinfo.value.code == "unknown_predictor"

    def test_unreadable_trace(self, serve, tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(str(tmp_path / "missing.sbbt"), "gshare")
        assert excinfo.value.code == "bad_trace"

    @pytest.mark.parametrize("workers", [0, 1])
    def test_non_sbbt_trace_is_bad_trace_for_any_workers(
            self, serve, tmp_path, workers):
        not_sbbt = tmp_path / "not-sbbt.sbbt"
        not_sbbt.write_bytes(b"this is not an SBBT trace\n" * 8)
        handle = serve(workers=workers)
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(str(not_sbbt), "gshare")
        assert excinfo.value.code == "bad_trace"

    @pytest.mark.parametrize("parameters", [{"history_length": -3},
                                            {"no_such_argument": 1}])
    def test_bad_predictor_configuration_is_bad_request(
            self, serve, trace_files, parameters):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(trace_files[0], "gshare",
                                parameters=parameters)
            assert excinfo.value.code == "bad_request"
            assert "cannot configure predictor" in str(excinfo.value)
            # In a suite the bad configuration fails every unit alone.
            reply = client.suite(trace_files[:2], "gshare",
                                 parameters=parameters)
        assert reply["results"] == []
        assert [failure["code"] for failure in reply["failures"]] == \
            ["bad_request", "bad_request"]

    def test_suite_reports_a_bad_trace_per_unit(self, serve, trace_files,
                                                tmp_path):
        handle = serve()
        missing = str(tmp_path / "missing.sbbt")
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.suite([trace_files[0], missing], "bimodal")
        assert [entry["trace"] for entry in reply["results"]] == \
            [trace_files[0]]
        (failure,) = reply["failures"]
        assert failure["trace"] == missing
        assert failure["code"] == "bad_trace"

    def test_timeout_reply_then_retry_hits_cache(self, serve, trace_files):
        # 20ms covers a cache hit but never a fresh ~30k-branch scalar
        # simulation, so the first attempt must time out.  (The scalar
        # engine is pinned: the vectorized kernel would finish in time.)
        handle = serve(request_timeout=0.02, sim_engine="scalar")
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(trace_files[2], "gshare")
            assert excinfo.value.code == "timeout"
            # The computation was NOT cancelled: it finishes into the
            # cache, so retries eventually answer within any budget.
            for _ in range(200):
                try:
                    reply = client.simulate(trace_files[2], "gshare")
                    break
                except ServeError as exc:
                    assert exc.code == "timeout"
                    time.sleep(0.05)
            else:
                pytest.fail("retry never completed")
            # The retry was served by the surviving first computation:
            # either it coalesced onto it mid-flight, or it found the
            # finished result in the cache.  Never a second simulation.
            assert reply["from_cache"] or reply["coalesced"]
            counters = client.stats()["counters"]
        assert counters["serve_timeouts"] >= 1
        assert counters["serve_cache_misses"] == 1

    def test_overloaded_when_client_queue_is_full(self, serve, trace_files):
        handle = serve(max_queue=2, max_inflight=2)
        requests = [
            {"id": index, "op": "simulate", "trace": trace_files[1],
             "predictor": "gshare", "warmup": index}  # distinct keys
            for index in range(30)
        ]
        sock = _raw_connection(handle)
        reader = sock.makefile("rb")
        sock.sendall(b"".join(encode_frame(request) for request in requests))
        replies = [json.loads(reader.readline()) for _ in requests]
        sock.close()
        codes = [reply.get("error", {}).get("code") for reply in replies
                 if not reply["ok"]]
        assert "overloaded" in codes
        assert all(code == "overloaded" for code in codes)
        assert any(reply["ok"] for reply in replies)


# ----------------------------------------------------------------------
# Scheduling fairness.
# ----------------------------------------------------------------------


class TestRoundRobin:
    def test_pick_job_rotates_across_clients(self):
        server = MbpServer(ServeConfig(workers=0))
        for client_id, pending in ((0, 3), (1, 3), (2, 3)):
            client = _Client(client_id, writer=None)
            client.queue = deque(
                ({"id": f"c{client_id}r{index}"}, 0.0, 0.0)
                for index in range(pending))
            server._clients[client_id] = client
            server._queued += pending
        order = []
        while True:
            picked = server._pick_job()
            if picked is None:
                break
            order.append(picked[1]["id"])
        # One request per client per rotation — client 0 cannot drain
        # fully before clients 1 and 2 are served.
        assert order == ["c0r0", "c1r0", "c2r0",
                         "c0r1", "c1r1", "c2r1",
                         "c0r2", "c1r2", "c2r2"]
        assert server._queued == 0

    def test_pick_job_skips_empty_queues(self):
        server = MbpServer(ServeConfig(workers=0))
        busy = _Client(0, writer=None)
        busy.queue = deque([({"id": "a"}, 0.0, 0.0),
                            ({"id": "b"}, 0.0, 0.0)])
        idle = _Client(1, writer=None)
        server._clients = {0: busy, 1: idle}
        server._queued = 2
        assert server._pick_job()[1]["id"] == "a"
        assert server._pick_job()[1]["id"] == "b"
        assert server._pick_job() is None


# ----------------------------------------------------------------------
# Shutdown hygiene: no leaked sockets, segments or processes.
# ----------------------------------------------------------------------


class TestShutdown:
    def test_socket_file_removed(self, serve):
        handle = serve()
        path = handle.socket_path
        assert os.path.exists(path)
        handle.stop()
        assert not os.path.exists(path)

    def test_client_initiated_shutdown(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.shutdown()
        assert reply["stopping"] is True
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        assert not os.path.exists(handle.socket_path)

    def test_engine_backend_releases_shared_memory(self, serve,
                                                   trace_files, tmp_path):
        """A real engine publishes traces to /dev/shm; a clean daemon
        shutdown must unlink every segment."""
        handle = serve(workers=1, cache_dir=str(tmp_path / "cache"))
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal")
            assert reply["ok"]
        segments = handle.server.engine.segment_names()
        assert segments  # the trace really was published
        handle.stop()
        assert handle.server.engine.closed
        for name in segments:
            assert not Path("/dev/shm", name).exists()

    def test_temporary_cache_directory_cleaned_up(self, serve, trace_files):
        handle = serve()  # no cache_dir -> private temp directory
        with MbpClient(socket_path=handle.socket_path) as client:
            client.simulate(trace_files[0], "bimodal")
        tmp_cache = handle.server.cache.directory
        assert Path(tmp_cache).exists()
        handle.stop()
        assert not Path(tmp_cache).exists()

    def test_engine_round_trip_matches_thread_backend(self, serve,
                                                      trace_files, tmp_path):
        """workers=1 (engine) and workers=0 (inline) serve identical
        result JSON, wall clock aside."""
        thread_handle = serve()
        engine_handle = serve(
            socket_path=str(tmp_path / "engine.sock"), workers=1)
        with MbpClient(socket_path=thread_handle.socket_path) as client:
            threads = client.simulate(trace_files[0], "gshare")["result"]
        with MbpClient(socket_path=engine_handle.socket_path) as client:
            engine = client.simulate(trace_files[0], "gshare")["result"]
        threads["metrics"].pop("simulation_time")
        engine["metrics"].pop("simulation_time")
        assert threads == engine


# ----------------------------------------------------------------------
# Config validation.
# ----------------------------------------------------------------------


class TestServeConfig:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ServeConfig(workers=-1)

    def test_rejects_socket_and_host_together(self):
        with pytest.raises(ValueError):
            ServeConfig(socket_path="a.sock", host="127.0.0.1")

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            ServeConfig(request_timeout=0)

    def test_none_timeout_means_unbounded(self):
        assert ServeConfig(request_timeout=None).request_timeout is None
