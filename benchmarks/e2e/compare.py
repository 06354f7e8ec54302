#!/usr/bin/env python3
"""Compare two suite documents written by ``run.py --out``: one verdict
per end-to-end metric and workload.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the parent (for example ``benchmarks/e2e/baseline.json``), B the
change. For every workload and every end-to-end metric in
``BENCHMARK.json`` or ``run.SUITE_METRICS`` that the workload has, over
each side's measured rounds:

* ``unresolved`` - either side's spread (interquartile distance over the
  median) exceeds the metric's bound, unless every B round reads better
  than every A round, which is ``better``;
* ``worse`` - B's median is worse than A's by more than the bound;
* ``better`` - B's median is better than A's by more than the bound;
* ``same`` - otherwise.

``error_rate`` is judged apart (:func:`error_verdict`): any failed job,
request or check in any of B's runs is ``worse``, and so is a workload
that B lacks. A metric one side lacks (too few samples for a tail
percentile) is ``unresolved``.

It also lists every count that should repeat exactly on one input
(``run.EXACT_COUNTS``, compared seed by seed) but differs. The exit
status is 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

import stats
from run import EXACT_COUNTS, ROOT, SUITE_METRICS, _ratio

__all__ = ["count_differences", "error_verdict", "verdict"]


def error_verdict(entry_b: dict) -> str:
    """``worse`` when any of B's runs of one workload (warm-up and traced
    rounds included) failed a job, a request or a check, else ``same``.
    The spread rule of :func:`verdict` does not apply: one failure in
    five rounds has a median error rate of 0."""
    runs = entry_b.get("runs", [])
    failed = any(r["failed"] or not r["correct"] for r in runs)
    rates = entry_b["end_to_end"].get("error_rate", {}).get("values", [])
    return "worse" if failed or any(rates) or not runs else "same"


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """Verdict for change B against parent A (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0

    def b_better(x: float, y: float) -> bool:
        return (y - x) * sign < 0

    if max(stats.spread(a), stats.spread(b)) > bound:
        if all(b_better(x, y) for x in a for y in b):
            return "better"
        return "unresolved"
    base = stats.median(a)
    diff = (stats.median(b) - base) * sign
    if diff == 0:
        return "same"
    change = diff / abs(base) if base else math.copysign(math.inf, diff)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def count_differences(doc_a: dict, doc_b: dict) -> Iterator[Tuple]:
    """``(workload, seed, count, a, b)`` for every exact count that
    differs between the two documents on the same seed."""
    for name, entry in doc_a["workloads"].items():
        other = doc_b["workloads"].get(name)
        if other is None:
            continue
        for seed, counts in entry.get("counts", {}).items():
            theirs = other.get("counts", {}).get(seed)
            if counts is None or theirs is None:
                continue
            for key in EXACT_COUNTS:
                if counts.get(key) != theirs.get(key):
                    yield name, seed, key, counts.get(key), theirs.get(key)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="parent suite document")
    parser.add_argument("b", help="change suite document")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    with open(Path(ROOT) / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    worse = 0
    print(f"{'workload':20s} {'metric':16s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'A sprd':>7s} {'B sprd':>7s} "
          f"verdict (bound)")
    for name, entry in doc_a["workloads"].items():
        other = doc_b["workloads"].get(name)
        if other is None:
            print(f"{name:20s} missing from {args.b}: worse")
            worse += 1
            continue
        for m in (*bench["end_to_end"], *SUITE_METRICS):
            sa = entry["end_to_end"].get(m["name"])
            sb = other["end_to_end"].get(m["name"])
            if sa is None and sb is None:
                continue  # a metric this workload does not have
            if sa is None or sb is None:
                # Too few samples on one side (a tail percentile); jobs
                # that failed are error_rate's to judge.
                print(f"{name:20s} {m['name']:16s} missing on one side: "
                      "unresolved")
                continue
            if m["name"] == "error_rate":
                v = error_verdict(other)
            else:
                v = verdict(sa["values"], sb["values"], m["bound"],
                            m["better"])
            worse += v == "worse"
            change = _ratio(sb["median"] - sa["median"], sa["median"])
            print(f"{name:20s} {m['name']:16s} {sa['median']:>12.5g} "
                  f"{sb['median']:>12.5g} {change:>+8.2%} "
                  f"{stats.spread(sa['values']):>7.2%} "
                  f"{stats.spread(sb['values']):>7.2%} "
                  f"{v} ({m['bound']:.0%}, {m['better']} is better)")
    diffs = list(count_differences(doc_a, doc_b))
    for name, seed, key, a, b in diffs:
        print(f"count differs: {name} seed {seed} {key}: {a} -> {b}")
    if not diffs:
        print("exact counts repeat on every shared seed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
