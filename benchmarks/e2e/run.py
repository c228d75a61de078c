#!/usr/bin/env python3
"""Layer-ledger end-to-end benchmark: the entry point.

One workload, as the benchmark contract drives it::

    python3 benchmarks/e2e/run.py --workload sweep-cold --seed 1 \\
        --seconds 20 --trace 0

Every workload, with a run file for ``compare.py``::

    PYTHONPATH=src python -m benchmarks.e2e --seed 1 --out run.json

Reference digests for ``reference.json`` (seeds 1 and 2; every item run
inline on the scalar engine, ``batch="off"``, no cache)::

    python3 benchmarks/e2e/run.py --reference

For each workload the parent generates the traces from ``--seed`` into a
fresh work directory, times ``setup_s`` over fresh setup processes
(half before the measurement, half after), runs ``child.py`` to
measure, then checks the answers: every repeat against the untimed
warm-up pass (in the child), three seeded items against the reference
path, and ``results_sha256`` against ``reference.json`` when the seed
is recorded there.  It prints one ``workload metric value unit`` line
per metric and, last, one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.

A metric's value is the median of its samples, except ``wall_s`` and
``minstr_per_s``.  Every repeat of a workload does the same work, in
the same short slices, and a shared host can slow everything by half
or more for minutes at a time; so ``wall_s`` is the sum over slices of
each slice's fastest time, what the code costs on an unloaded host,
and ``minstr_per_s`` is a repeat's instructions over that time.  The
repeats' median is still in the run file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored): work directories
#: while a workload runs, and the span logs of traced runs.
WORK = ROOT / ".e2e-work"
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = (1, 2)
SPOT_CHECKS = 3
CHILD_TIMEOUT = 150.0
PROBE_TIMEOUT = 60.0


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def _probe(workdir: Path) -> float:
    """Seconds from starting a fresh process to its workload's "ready"."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "probe"],
                            cwd=workdir, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def _measure(workdir: Path, seconds: float, trace: int,
             spans: Path) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "measure", str(seconds),
         str(trace), str(spans)],
        cwd=workdir, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement failed (exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def _reference_hashes(workload, indices, workdir: Path) -> list[str]:
    """The answers of ``workload``'s items at ``indices``, each computed
    on the reference path over the traces in ``workdir``."""
    import workloads

    universe = workload.items()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [workloads.reference_hash(universe[i]) for i in indices]
    finally:
        os.chdir(cwd)


def summarize(samples: list[float], unit: str,
              best: float | None = None) -> dict[str, Any]:
    """The reported value (``best`` when given, else the median), with
    the median, quartiles and sample count."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    median = statistics.median(samples)
    return {"value": median if best is None else best, "unit": unit,
            "median": median, "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def _recorded(scale: str, seed: int, workload: str) -> str | None:
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text())
    return table.get(scale, {}).get(str(seed), {}).get(workload)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale: str) -> dict[str, Any]:
    """One workload end to end: inputs, setup probes, measurement, checks."""
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    spans = WORK / f"{name}.spans.jsonl"
    spans.unlink(missing_ok=True)
    try:
        inputs = workloads.make_inputs(name, seed, scale, workdir)
        # Probes on both sides of the measurement, so that the median
        # does not hang on one moment of the host.
        probes = workloads.SETUP_SAMPLES[scale]
        setup = [_probe(workdir) for _ in range(probes // 2)]
        report = _measure(workdir, seconds, trace, spans)
        setup += [_probe(workdir) for _ in range(probes - probes // 2)]
        workload = workloads.WORKLOADS[name](inputs)
        picks = random.Random(seed).sample(
            range(len(report["items"])),
            min(SPOT_CHECKS, len(report["items"])))
        expected = _reference_hashes(workload, picks, workdir)
        failed = report["failed"] + sum(
            report["items"][i] != h for i, h in zip(picks, expected))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recorded = _recorded(scale, seed, name)
    if recorded is not None and recorded != report["results_sha256"]:
        failed += 1
    metrics = report["metrics"]
    if not trace:
        metrics["setup_s"] = {"unit": "s", "samples": setup}
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "results_sha256": report["results_sha256"],
        "metrics": {metric: summarize(m["samples"], m["unit"],
                                      m.get("best"))
                    for metric, m in sorted(metrics.items())},
    }


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # Never walk above the checkout into someone else's repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args: argparse.Namespace) -> dict[str, Any]:
    """The ``env`` block of every run file."""
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_sha": _git_sha(), "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace}


def make_reference() -> int:
    """Record ``results_sha256`` of every workload for the reference
    seeds at full scale, each item computed on the reference path."""
    import workloads

    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    WORK.mkdir(exist_ok=True)
    for seed in REFERENCE_SEEDS:
        for name, cls in workloads.WORKLOADS.items():
            workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=WORK))
            try:
                workload = cls(workloads.make_inputs(name, seed, "full",
                                                     workdir))
                sha = workloads.digest(_reference_hashes(
                    workload, range(len(workload.items())), workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table.setdefault("full", {}).setdefault(str(seed), {})[name] = sha
            print(f"seed {seed} {name} {sha}", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write a run file for compare.py")
    parser.add_argument("--reference", action="store_true",
                        help="recompute reference.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.reference:
        return make_reference()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              args.scale)
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": environment(args), "workloads": results}, indent=2) + "\n")
    line: dict[str, Any] = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(results) == 1:
        (result,) = results.values()
        line["metrics"] = {metric: {"value": m["value"], "unit": m["unit"]}
                           for metric, m in result["metrics"].items()}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
