#!/usr/bin/env python3
"""Compare two sets of layer-ledger runs.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are run files written by ``run.py --out``, or
directories of them (one file per run, as the comparison protocol in
README.md produces).  From a file, a metric's samples are that run's
repeats; from a directory, they are the runs' reported values.

One row per workload and end-to-end metric of ``BENCHMARK.json``: both
medians with quartiles, the relative change and a verdict under the
metric's bound:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than either side's spread;
* ``unresolved``: a side's spread (quartile distance over median) is
  wider than the bound, unless every B sample beats every A sample
  (``better``) or loses to it by more than the bound (``worse``);
* ``unchanged``: otherwise.

Per-layer metrics follow as medians and relative deltas.  Exits 1 when
any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import summarize

ROOT = Path(__file__).resolve().parent.parent.parent

Samples = dict[tuple[str, str], list[float]]


def load(path: Path) -> Samples:
    """(workload, metric) -> samples, from a run file or a directory."""
    samples: Samples = {}
    if path.is_dir():
        for run in sorted(path.glob("*.json")):
            for workload, entry in json.loads(run.read_text())[
                    "workloads"].items():
                for metric, m in entry["metrics"].items():
                    samples.setdefault((workload, metric), []).append(
                        m["value"])
        return samples
    for workload, entry in json.loads(path.read_text())["workloads"].items():
        for metric, m in entry["metrics"].items():
            samples[(workload, metric)] = list(m["samples"])
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    stats = summarize(values, "")
    return stats["q1"], stats["value"], stats["q3"]


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """(relative change, positive = worse; verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    change = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return change, "better"
        if change > bound and all(sign * (y - x) > 0 for x in a for y in b):
            return change, "worse"
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if -change > spread:
        return change, "better"
    return change, "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline run file or directory")
    parser.add_argument("b", type=Path, help="candidate run file or directory")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load(args.a), load(args.b)
    shared = sorted(set(a) & set(b))

    worse = 0
    print(f"{'workload':14} {'metric':14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    for workload, metric in shared:
        if metric not in bounds:
            continue
        qa, qb = quartiles(a[workload, metric]), quartiles(b[workload, metric])
        change, word = verdict(a[workload, metric], b[workload, metric],
                               bounds[metric]["better"],
                               bounds[metric]["bound"])
        worse += word == "worse"
        print(f"{workload:14} {metric:14} {_cell(qa):>34} {_cell(qb):>34} "
              f"{change:>+8.1%}  {word}")

    layer_rows = [(w, m) for w, m in shared if m not in bounds]
    if layer_rows:
        print(f"\n{'workload':14} {'layer metric':30} {'A':>12} {'B':>12} "
              f"{'delta':>8}")
    for workload, metric in layer_rows:
        va = statistics.median(a[workload, metric])
        vb = statistics.median(b[workload, metric])
        delta = f"{(vb - va) / abs(va):+8.1%}" if va else f"{'-':>8}"
        print(f"{workload:14} {metric:30} {va:>12.6g} {vb:>12.6g} {delta}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
