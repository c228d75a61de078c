"""Smoke test of the layer-ledger benchmark; not part of the tier-1 suite.

Run it explicitly.  ``--confcutdir`` keeps ``benchmarks/conftest.py``,
which writes ``BENCH_*.json`` artifacts, out of the session::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py \\
        --confcutdir=benchmarks/e2e -p no:cacheprovider

It runs every workload at ``--scale smoke`` twice, untraced and
traced, and checks the benchmark's own contract on the output.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[int, tuple[list[str], dict, float]]:
    out = {}
    for trace in (0, 1):
        path = tmp_path_factory.mktemp("e2e") / f"trace{trace}.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
             "--seconds", "1", "--trace", str(trace), "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        out[trace] = (proc.stdout.splitlines(), json.loads(path.read_text()),
                      elapsed)
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_quick(runs, trace):
    assert runs[trace][2] < 30.0


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(runs, trace, kind):
    lines, _, _ = runs[trace]
    printed = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        float(value)
        printed[workload, metric] = unit
    declared = {(workload, m["name"]): m["unit"]
                for workload in WORKLOADS for m in SPEC[kind]}
    assert printed == declared
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed"}


def test_metric_names_are_plain():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_traced_answers_equal_untraced(runs):
    untraced, traced = runs[0][1]["workloads"], runs[1][1]["workloads"]
    for workload in WORKLOADS:
        assert untraced[workload]["correct"] and traced[workload]["correct"]
        assert (untraced[workload]["results_sha256"]
                == traced[workload]["results_sha256"])


def test_ledger_accounts_for_every_workload(runs):
    # Every workload calls the wrapped layers from one thread, so their
    # self times add up to (almost) all of the traced wall time.
    traced = runs[1][1]["workloads"]
    for workload in WORKLOADS:
        value = traced[workload]["metrics"]["ledger.unattributed_frac"]
        assert 0.0 <= value["value"] < 0.10
