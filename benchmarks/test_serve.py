"""Serve daemon under load (ours) — coalescing + cache as a service.

A zipfian request mix (a few hot (trace, predictor, parameters) units,
a long cold tail — the shape a shared simulation service actually
sees) is fired at one ``mbp serve`` daemon from 1, 4 and 16 concurrent
clients.  The daemon computes on its plan threads (``workers=0``) and,
for 4 and 16 clients, also on a one-worker engine that the concurrent
plans share (``workers=1``).  Each run records into
``BENCH_serve.json``:

* ``requests_per_second`` and client-observed ``p50_ms`` / ``p99_ms``
  latency,
* ``cache_hit_ratio`` and ``coalesce_ratio`` from the server's own
  telemetry counters,

and asserts the ISSUE-7 acceptance gate: the combined
cache-plus-coalesce hit ratio stays above 0.5 on the zipfian mix —
the daemon simulates each distinct unit essentially once, no matter
how many clients ask.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.sbbt.writer import write_trace
from repro.serve import MbpClient, ServeConfig, start_in_thread
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES

from conftest import emit_report

#: (concurrent clients, daemon engine workers) per run.
RUNS = ((1, 0), (4, 0), (16, 0), (4, 1), (16, 1))
TOTAL_REQUESTS = 96          # split evenly across the clients of a run
ZIPF_EXPONENT = 1.2
BRANCHES_PER_TRACE = 4_000

#: The unit catalog the zipfian mix draws from: 8 distinct
#: (trace, predictor, parameters) units over 3 traces.
UNIT_PLANS = (
    ("t0", "gshare", {}),
    ("t0", "gshare", {"history_length": 8}),
    ("t0", "bimodal", {}),
    ("t1", "gshare", {}),
    ("t1", "bimodal", {"log_table_size": 12}),
    ("t2", "gshare", {"history_length": 10}),
    ("t2", "bimodal", {}),
    ("t2", "gshare", {"history_length": 4, "log_table_size": 12}),
)

_report_rows: list[list[str]] = []


@pytest.fixture(scope="module")
def units(tmp_path_factory):
    """The catalog with trace names resolved to on-disk SBBT paths."""
    directory = tmp_path_factory.mktemp("serve-bench")
    paths = {}
    for i, category in enumerate(("short_mobile", "short_server",
                                  "spec17_like")):
        trace = generate_trace(PROFILES[category], seed=90 + i,
                               num_branches=BRANCHES_PER_TRACE)
        path = directory / f"t{i}.sbbt"
        write_trace(path, trace)
        paths[f"t{i}"] = str(path)
    return [(paths[name], predictor, parameters)
            for name, predictor, parameters in UNIT_PLANS]


def _client_worker(socket_path, requests, latencies, errors, barrier):
    try:
        with MbpClient(socket_path=socket_path) as client:
            barrier.wait(timeout=60)
            for trace, predictor, parameters in requests:
                started = time.perf_counter()
                client.simulate(trace, predictor, parameters=parameters)
                latencies.append(time.perf_counter() - started)
    except Exception as exc:  # noqa: BLE001 - surfaced by the test
        errors.append(exc)


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@pytest.mark.parametrize("clients, workers", RUNS)
def test_zipfian_load(tmp_path, units, bench_metrics, clients, workers):
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(units))]
    per_client = TOTAL_REQUESTS // clients
    handle = start_in_thread(ServeConfig(
        socket_path=str(tmp_path / "bench.sock"), workers=workers))
    latencies: list[float] = []
    errors: list[Exception] = []
    barrier = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(target=_client_worker, args=(
            handle.socket_path,
            random.Random(1000 * clients + i).choices(
                units, weights=weights, k=per_client),
            latencies, errors, barrier))
        for i in range(clients)
    ]
    try:
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)   # all connected: the clock starts now
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        assert not errors, errors
        with MbpClient(socket_path=handle.socket_path) as client:
            counters = client.stats()["counters"]
    finally:
        handle.stop()

    requests = clients * per_client
    assert counters["serve_units"] == requests
    hits = counters.get("serve_cache_hits", 0)
    coalesced = counters.get("serve_coalesced", 0)
    hit_ratio = (hits + coalesced) / requests
    # The acceptance gate: on a zipfian mix the daemon answers most
    # requests without simulating (shared cache or in-flight coalesce).
    assert hit_ratio > 0.5, counters
    assert counters["serve_cache_misses"] <= len(units)

    bench_metrics["clients"] = clients
    bench_metrics["workers"] = workers
    bench_metrics["requests"] = requests
    bench_metrics["requests_per_second"] = requests / wall
    bench_metrics["p50_ms"] = 1000 * _percentile(latencies, 0.50)
    bench_metrics["p99_ms"] = 1000 * _percentile(latencies, 0.99)
    bench_metrics["cache_hit_ratio"] = hits / requests
    bench_metrics["coalesce_ratio"] = coalesced / requests
    bench_metrics["hit_plus_coalesce_ratio"] = hit_ratio

    _report_rows.append([
        str(clients), str(workers), str(requests),
        f"{requests / wall:8.1f}",
        f"{1000 * _percentile(latencies, 0.50):7.2f}",
        f"{1000 * _percentile(latencies, 0.99):7.2f}",
        f"{hits / requests:5.2f}", f"{coalesced / requests:5.2f}",
        f"{hit_ratio:5.2f}",
    ])
    header = ["clients", "workers", "requests", "req/s", "p50 ms", "p99 ms",
              "cache", "coalesce", "combined"]
    lines = ["serve daemon under zipfian load "
             f"({len(units)} distinct units, zipf s={ZIPF_EXPONENT})",
             "  ".join(f"{name:>9}" for name in header)]
    lines += ["  ".join(f"{cell:>9}" for cell in row)
              for row in _report_rows]
    emit_report("serve_load", "\n".join(lines))
