"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper at a scale
a laptop Python run can afford.  Traces are generated once per session
into a temporary directory in the formats each experiment needs; every
benchmark writes its rendered paper-style table both to stdout and to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote it.

Alongside the human-readable tables, the harness records one
machine-readable ``benchmarks/results/BENCH_<module>.json`` per
benchmark module: an ``env`` block (cores, Python, numpy), then per
test the wall time of the ``call`` phase of every passing test, the
``setup_time_s`` of its fixtures (a report test whose work runs in a
fixture spends it there; a module- or session-scoped fixture is
charged to the first test that uses it) plus any metrics a test
registered through the ``bench_metrics`` fixture — when a test records
an ``instructions`` count, the derived ``instructions_per_second``
throughput is stamped in as well.  CI uploads these files so
throughput regressions are diffable across runs without scraping the
text tables.
"""

from __future__ import annotations

import json
import os
import platform
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.champsim import (
    instruction_trace_from_branches,
    write_instruction_trace,
)
from repro.baselines.cbp5 import write_bt9
from repro.sbbt.writer import write_trace
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES, SuiteSpec

RESULTS_DIR = Path(__file__).parent / "results"

#: Layout version of the ``BENCH_<module>.json`` artifacts.
BENCH_SCHEMA = 1

# nodeid -> wall time of the ``call`` / ``setup`` phase, extra metrics.
_bench_times: dict[str, float] = {}
_bench_setup: dict[str, float] = {}
_bench_extra: dict[str, dict[str, float]] = {}


@pytest.fixture
def bench_metrics(request):
    """A dict a benchmark fills with scalar metrics for BENCH_*.json.

    Record an ``instructions`` count and the artifact writer derives
    ``instructions_per_second`` from the test's wall time.
    """
    metrics = _bench_extra.setdefault(request.node.nodeid, {})
    return metrics


def pytest_runtest_logreport(report):
    if report.when == "setup":
        _bench_setup[report.nodeid] = report.duration
    elif report.when == "call" and report.passed:
        _bench_times[report.nodeid] = report.duration


def _bench_module(nodeid: str) -> str:
    stem = Path(nodeid.split("::", 1)[0]).stem
    return stem.removeprefix("test_")


def pytest_sessionfinish(session):
    if not _bench_times:
        return
    by_module: dict[str, list[dict]] = defaultdict(list)
    for nodeid, wall_time in sorted(_bench_times.items()):
        entry: dict = {
            "test": nodeid.split("::", 1)[1],
            "wall_time_s": wall_time,
            "setup_time_s": _bench_setup.get(nodeid, 0.0),
        }
        extra = _bench_extra.get(nodeid)
        if extra:
            entry["metrics"] = dict(extra)
            instructions = extra.get("instructions")
            if instructions and wall_time > 0:
                entry["instructions_per_second"] = instructions / wall_time
        by_module[_bench_module(nodeid)].append(entry)
    env = {"cores": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__}
    RESULTS_DIR.mkdir(exist_ok=True)
    for module, tests in by_module.items():
        document = {
            "schema": BENCH_SCHEMA,
            "kind": "repro-bench",
            "module": module,
            "env": env,
            "tests": tests,
        }
        path = RESULTS_DIR / f"BENCH_{module}.json"
        path.write_text(json.dumps(document, indent=2) + "\n")

#: The scaled-down CBP5 training suite used by Tables III and IV:
#: 2 traces per category with a 6x length spread, 6k-36k branches.
BENCH_CBP5_SUITE = SuiteSpec(
    name="bench-cbp5",
    categories=("short_mobile", "long_mobile", "short_server",
                "long_server"),
    traces_per_category=2,
    branches_per_trace=15_000,
    length_spread=2.5,
    seed=81,
)

#: The scaled-down DPC3 suite used by Table III (bottom) and Table I.
BENCH_DPC3_SUITE = SuiteSpec(
    name="bench-dpc3",
    categories=("spec17_like",),
    traces_per_category=3,
    branches_per_trace=12_000,
    length_spread=2.0,
    seed=82,
)


@pytest.fixture
def report_only(benchmark):
    """Attach a no-op measurement so report/shape tests still execute
    under ``--benchmark-only`` (which skips fixture-less tests)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    return benchmark


def emit_report(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench-traces")


@pytest.fixture(scope="session")
def cbp5_suite(bench_dir):
    """The CBP5-like suite in memory, keyed by trace name."""
    return {
        name: generate_trace(PROFILES[category], seed, branches)
        for name, category, seed, branches in BENCH_CBP5_SUITE.trace_plans()
    }


@pytest.fixture(scope="session")
def cbp5_sbbt_paths(bench_dir, cbp5_suite):
    """The suite written as SBBT + best codec (the MBPlib distribution)."""
    paths = {}
    for name, trace in cbp5_suite.items():
        path = bench_dir / f"{name}.sbbt.xz"
        write_trace(path, trace)
        paths[name] = path
    return paths


@pytest.fixture(scope="session")
def cbp5_bt9_gz_paths(bench_dir, cbp5_suite):
    """The suite as BT9 + gzip (the original CBP5 distribution)."""
    paths = {}
    for name, trace in cbp5_suite.items():
        path = bench_dir / f"{name}.bt9.gz"
        write_bt9(path, trace)
        paths[name] = path
    return paths


@pytest.fixture(scope="session")
def cbp5_bt9_xz_paths(bench_dir, cbp5_suite):
    """The suite as BT9 + xz (the paper's modified-codec experiment)."""
    paths = {}
    for name, trace in cbp5_suite.items():
        path = bench_dir / f"{name}.bt9.xz"
        write_bt9(path, trace)
        paths[name] = path
    return paths


@pytest.fixture(scope="session")
def dpc3_suite(bench_dir):
    """The DPC3-like suite in memory."""
    return {
        name: generate_trace(PROFILES[category], seed, branches)
        for name, category, seed, branches in BENCH_DPC3_SUITE.trace_plans()
    }


@pytest.fixture(scope="session")
def dpc3_instruction_traces(dpc3_suite):
    """Per-instruction expansions of the DPC3-like suite."""
    return {
        name: instruction_trace_from_branches(trace)
        for name, trace in dpc3_suite.items()
    }


@pytest.fixture(scope="session")
def dpc3_champsim_paths(bench_dir, dpc3_instruction_traces):
    """The DPC3-like suite written in the champsimtrace format + xz."""
    paths = {}
    for name, trace in dpc3_instruction_traces.items():
        path = bench_dir / f"{name}.champsim.xz"
        write_instruction_trace(path, trace)
        paths[name] = path
    return paths
