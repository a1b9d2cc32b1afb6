#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per (workload, metric).

    python3 bench/e2e/compare.py A.jsonl B.jsonl

A and B are files written by `run.py --out`, one JSON line per run; A is the
baseline. Each row shows both sets' median and quartiles and, for end-to-end
metrics, a verdict against the metric's bound in BENCHMARK.json:

  unresolved  a set's interquartile range exceeds the bound, so a change
              of that size cannot be resolved (unless every B run beats
              every A run: better)
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  same        the medians differ by less than the bound

For `setup_s` the bound is never less than 50 ms: set-ups of a millisecond
or less move by a quarter between runs on a shared host, and a change below
50 ms is not one a user waits for. Per-layer metrics (from traced runs) have
no bound and get no verdict. Exit status 1 when any end-to-end row is worse
or unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Smallest resolvable change, in the metric's unit.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def load(path):
    """{(trace, workload, metric): [values]} from a run.py --out file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        for name, value in r["metrics"].items():
            runs.setdefault((r["trace"], r["workload"], name), []).append(
                float(value))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, bound, floor, lower_is_better):
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    if med_a == 0 or med_b == 0:
        return "unresolved"
    bound = max(bound, floor / abs(med_a))
    change = (med_b - med_a) / med_a
    gain = -change if lower_is_better else change
    spread = max((qa[2] - qa[0]) / abs(med_a), (qb[2] - qb[0]) / abs(med_b))
    if lower_is_better:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if -gain > bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads(args.benchmark.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    a, b = load(args.baseline), load(args.candidate)

    print(f"{'workload':18s} {'metric':38s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict")
    bad = 0
    for trace, names in ((0, e2e), (1, layer)):
        for workload in [w["name"] for w in spec["workloads"]]:
            for name, m in names.items():
                key = (trace, workload, name)
                if key not in a or key not in b:
                    continue
                qa, qb = quartiles(a[key]), quartiles(b[key])
                change = ((qb[1] - qa[1]) / qa[1] * 100) if qa[1] else 0.0
                if trace == 0:
                    v = verdict(a[key], b[key], m["bound"],
                                ABSOLUTE_FLOOR.get(name, 0.0),
                                m["better"] == "lower")
                    bad += v in ("worse", "unresolved")
                else:
                    v = "-"
                cell_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                cell_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
                print(f"{workload:18s} {name:38s} {cell_a:>34s} "
                      f"{cell_b:>34s} {change:7.1f}%  {v}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
