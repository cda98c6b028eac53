"""Apply the bounds in BENCHMARK.json to two sets of result files.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py a1.json,a2.json b1.json,b2.json,b3.json

``A`` is the base (the parent commit, or the first set of runs of the same
code), ``B`` what is judged against it.  Each side is one or more files
written by ``run.py --out``; with several, the side's value is the median
and its spread the interquartile range over that median.

One row per (workload, metric): both medians, the ratio B/A with its base,
and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but a side's spread is wider than the bound,
  so "no regression" cannot be claimed — unless every B run reads better
  than every A run;
* ``ok``         — neither.

Per-layer metrics have no bound and are listed with their ratio only.
Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_side(argument: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per result file of the side."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in argument.split(","):
        with open(path) as handle:
            result = json.load(handle)
        for workload, outcome in result["workloads"].items():
            for metric, measured in outcome["metrics"].items():
                values.setdefault((workload, metric), []).append(
                    measured["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two runs."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def judge(base: list[float], other: list[float], better: str,
          bound: float) -> tuple[float, str]:
    """(ratio B/A, verdict) for one bounded metric."""
    a, b = statistics.median(base), statistics.median(other)
    ratio = b / a if a else float("inf") if b else 1.0
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return ratio, "worse"
    if max(spread(base), spread(other)) > bound:
        all_better = (max(other) < min(base) if better == "lower"
                      else min(other) > max(base))
        if not all_better:
            return ratio, "unresolved"
    return ratio, "ok"


def compare(side_a: str, side_b: str, benchmark: dict) -> tuple[list, bool]:
    a, b = load_side(side_a), load_side(side_b)
    bounded = {m["name"]: m for m in benchmark["end_to_end"]}
    rows, any_worse = [], False
    for key in sorted(a.keys() & b.keys()):
        workload, metric = key
        spec = bounded.get(metric)
        if spec is None:
            base = statistics.median(a[key])
            ratio = statistics.median(b[key]) / base if base else 1.0
            verdict = "-"
        else:
            ratio, verdict = judge(a[key], b[key], spec["better"],
                                   spec["bound"])
            any_worse = any_worse or verdict == "worse"
        rows.append((workload, metric, statistics.median(a[key]),
                     statistics.median(b[key]), ratio, verdict,
                     spec["bound"] if spec else None))
    return rows, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    rows, any_worse = compare(argv[0], argv[1], benchmark)
    print(f"{'workload':14s} {'metric':34s} {'A (base)':>12s} "
          f"{'B':>12s} {'B/A':>7s} {'bound':>6s} verdict")
    for workload, metric, a, b, ratio, verdict, bound in rows:
        limit = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:14s} {metric:34s} {a:12.6g} {b:12.6g} "
              f"{ratio:7.3f} {limit:>6s} {verdict}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
