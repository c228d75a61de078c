"""Serve-side span tracing: request roots, client trace ids, coalescing
linkage and the reply echo."""

from __future__ import annotations

import threading

import pytest

from repro.sbbt.writer import write_trace
from repro.serve import MbpClient, ServeConfig, ServeError, start_in_thread
from repro.tracing import read_spans


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, small_trace, medium_trace):
    directory = tmp_path_factory.mktemp("serve-tracing")
    paths = []
    for name, trace in (("mobile", small_trace), ("medium", medium_trace)):
        path = directory / f"{name}.sbbt"
        write_trace(path, trace)
        paths.append(str(path))
    return paths


@pytest.fixture
def serve(tmp_path):
    handles = []

    def _start(**overrides):
        overrides.setdefault("socket_path", str(tmp_path / "mbp.sock"))
        overrides.setdefault("workers", 0)
        overrides.setdefault("trace_dir", str(tmp_path / "spans"))
        handle = start_in_thread(ServeConfig(**overrides))
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


def _by_name(spans):
    index = {}
    for span in spans:
        index.setdefault(span.name, []).append(span)
    return index


def _load(tmp_path):
    return read_spans([tmp_path / "spans"])


class TestRequestSpans:
    def test_simulate_request_span_tree(self, serve, trace_files,
                                        tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal")
            assert reply["ok"]
        handle.stop()
        spans = _by_name(_load(tmp_path))
        (request,) = spans["serve_request"]
        assert request.parent_id is None
        assert request.attributes["op"] == "simulate"
        (queue,) = spans["serve_queue"]
        assert queue.parent_id == request.span_id
        # The request ran as one plan through execute_plan.
        (plan,) = spans["execute_plan"]
        assert plan.parent_id == request.span_id
        assert plan.attributes["units"] == 1
        (lookup,) = spans["cache_lookup"]
        assert lookup.parent_id == plan.span_id
        assert lookup.attributes["cache_miss"] == 1
        (sim,) = spans["simulate"]
        assert sim.parent_id == plan.span_id
        # workers=0 runs the plan inline: one unit span per simulation.
        (unit,) = spans["unit"]
        assert unit.parent_id == sim.span_id
        assert unit.attributes["unit"] == trace_files[0]
        (reply_span,) = spans["serve_reply"]
        assert reply_span.parent_id == request.span_id
        # One trace id covers the whole request.
        all_spans = [request, queue, plan, lookup, sim, unit, reply_span]
        assert len({s.trace_id for s in all_spans}) == 1

    def test_client_trace_id_adopted_and_echoed(self, serve, trace_files,
                                                tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal",
                                    trace_id="client-chosen-id")
            assert reply["ok"]
            assert reply["trace_id"] == "client-chosen-id"
        handle.stop()
        spans = _load(tmp_path)
        assert spans, "no spans written"
        assert {s.trace_id for s in spans} == {"client-chosen-id"}

    def test_stats_reports_tracing_section(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            tracing = client.stats()["tracing"]
        assert tracing["enabled"] is True
        assert tracing["log"].endswith(".jsonl")

    def test_tracing_off_by_default(self, serve, trace_files, tmp_path):
        handle = serve(trace_dir=None)
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal")
            assert reply["ok"]
            assert "trace_id" not in reply
            tracing = client.stats()["tracing"]
        assert tracing == {"enabled": False, "log": None}
        handle.stop()
        assert not (tmp_path / "spans").exists()

    def test_error_request_closes_span_as_error(self, serve, tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(str(tmp_path / "absent.sbbt"), "bimodal")
        assert excinfo.value.code == "bad_trace"
        handle.stop()
        spans = _by_name(_load(tmp_path))
        (request,) = spans["serve_request"]
        assert request.status == "error"


class TestCoalescedLinkage:
    def test_followers_link_to_the_leader_span(self, serve, trace_files,
                                               tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            replies = client.request_many([
                {"op": "simulate", "trace": trace_files[1],
                 "predictor": "gshare", "trace_id": f"req-{i}"}
                for i in range(4)])
        assert all(reply["ok"] for reply in replies)
        handle.stop()
        spans = _by_name(_load(tmp_path))
        plans = {p.span_id: p for p in spans["execute_plan"]}
        assert len(plans) == 4
        # Exactly one plan actually simulated; late arrivals may be
        # answered by the cache, but racing ones coalesce.
        (sim,) = spans["simulate"]
        assert sim.parent_id in plans
        followers = spans.get("coalesced", [])
        # The medium trace simulates slowly enough that the pipelined
        # requests overlap the leader's computation.
        assert followers
        # A follower's coalesced span sits in its own request's plan and
        # links to the execute_plan span (and trace) of the plan whose
        # claim it waited on, so the shared work is findable from any
        # request's trace.  (A late plan may claim a cache hit that
        # others coalesce onto, so the link targets *a* plan, not
        # necessarily the one that simulated.)
        for follower in followers:
            own = plans[follower.parent_id]
            assert own.trace_id == follower.trace_id
            leader = plans[follower.attributes["leader_span"]]
            assert follower.attributes["leader_trace"] == leader.trace_id
            assert follower.attributes["leader_trace"] \
                != follower.trace_id

    def test_concurrent_clients_keep_own_request_roots(self, serve,
                                                       trace_files,
                                                       tmp_path):
        handle = serve()
        barrier = threading.Barrier(3)
        errors: list[Exception] = []

        def worker(i):
            try:
                with MbpClient(socket_path=handle.socket_path) as client:
                    barrier.wait(timeout=30)
                    reply = client.simulate(trace_files[0], "gshare",
                                            trace_id=f"client-{i}")
                    assert reply["ok"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        handle.stop()
        spans = _by_name(_load(tmp_path))
        roots = spans["serve_request"]
        assert sorted(r.trace_id for r in roots) \
            == ["client-0", "client-1", "client-2"]
