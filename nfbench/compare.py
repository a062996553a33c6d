#!/usr/bin/env python3
"""Summarise or compare nfbench run logs.

A run log has one line per run: the workload name, a space, and the JSON
result line nfbench printed last. `nfbench/README.md` shows the loop that
writes one.

    python3 nfbench/compare.py BASE.log             # spread of each metric
    python3 nfbench/compare.py BASE.log CHANGE.log  # change against base

Spread is the distance between the first and third quartile as a share
of the median (`statistics.quantiles(values, n=4)`). A comparison reports
each metric as a regression when the change's median is worse than the
base's by more than the metric's bound in BENCHMARK.json, and as
unresolved when either side's spread is wider than that bound.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def load(path):
    """{workload: {metric: [values]}} and the count of incorrect runs."""
    runs = defaultdict(lambda: defaultdict(list))
    incorrect = 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        workload, result = line.split(" ", 1)
        result = json.loads(result)
        incorrect += not result["correct"]
        for name, m in result["metrics"].items():
            runs[workload][name].append(m["value"])
    return runs, incorrect


def summary(values):
    """Median, and the quartile distance as a share of it."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    base, bad = load(argv[1])
    change, bad2 = (load(argv[2]) if len(argv) == 3 else (None, 0))
    print(f"incorrect runs: base {bad}" + (f", change {bad2}" if change else ""))
    worst = 0
    for workload, metrics in base.items():
        for name, values in metrics.items():
            meta = METRICS.get(name, {})
            bound = meta.get("bound")
            med, spread = summary(values)
            row = f"{workload:<9} {name:<28} n={len(values):<3} median {med:<14.6g} spread {spread:6.3f}"
            if bound is not None:
                row += f" bound {bound}"
            if change is None:
                flag = bound is not None and spread > bound
                print(row + ("  SPREAD OVER BOUND" if flag else ""))
                worst |= flag
                continue
            cvalues = change.get(workload, {}).get(name)
            if not cvalues:
                print(row + "  missing in change")
                continue
            cmed, cspread = summary(cvalues)
            sign = 1 if meta.get("better") == "higher" else -1
            rel = sign * (cmed - med) / med if med else 0.0
            verdict = "better" if rel > 0 else "worse" if rel < 0 else "same"
            if bound is not None:
                if max(spread, cspread) > bound:
                    verdict = "unresolved"
                elif -rel > bound:
                    verdict = "REGRESSION"
                    worst = 1
            print(f"{row} -> change {cmed:<14.6g} ({rel:+.3f}) {verdict}")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
