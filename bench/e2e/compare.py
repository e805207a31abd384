#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    bench/e2e/compare.py A.json B.json [--bench BENCHMARK.json]

A and B are files written by `bench/e2e/run.sh --record FILE`, one JSON
record per line (run the same workloads several times with different seeds
into each file). A is the baseline. For every (metric, workload) pair
present in both sets the script prints each side's median and quartiles
(statistics.quantiles, n=4), B's change against A, and a verdict against
the metric's bound in BENCHMARK.json:

  better      B's median beats A's by more than the bound, or every B run
              beats every A run
  same        the medians differ by no more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  either side's spread (quartile distance over median) is
              wider than the bound, so the runs cannot tell

setup_s is allowed the larger of its bound and 0.05 s. Per-layer metrics
(no bound) are listed with their medians and no verdict. The exit status is
1 when any pair is worse or unresolved.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

SETUP_FLOOR_S = 0.05


def load(path):
    """{(workload, metric): [values]} and {metric: unit} from a record file."""
    values = defaultdict(list)
    units = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            for name, m in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(float(m["value"]))
                units[name] = m["unit"]
    return values, units


def summary(v):
    if len(v) >= 2:
        q1, q2, q3 = statistics.quantiles(v, n=4)
    else:
        q1 = q2 = q3 = v[0]
    return q1, q2, q3


def spread(q1, q2, q3):
    return (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else float("inf"))


def verdict(metric, a, b):
    """Verdict for one pair of run sets."""
    a1, a2, a3 = summary(a)
    b1, b2, b3 = summary(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worsening = sign * (b2 - a2) / abs(a2) if a2 else 0.0
    allowed = metric["bound"]
    if metric["name"] == "setup_s" and a2:
        allowed = max(allowed, SETUP_FLOOR_S / abs(a2))
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better"
    if max(spread(a1, a2, a3), spread(b1, b2, b3)) > allowed:
        return "unresolved"
    if worsening > allowed:
        return "worse"
    if worsening < -allowed:
        return "better"
    return "same"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline record file")
    parser.add_argument("b", help="candidate record file")
    parser.add_argument("--bench", default=os.path.join(here, "..", "..", "BENCHMARK.json"),
                        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    a, units = load(args.a)
    b, _ = load(args.b)
    workloads = [w["name"] for w in bench["workloads"]]

    bad = 0
    header = "%-16s %-30s %-6s %26s %26s %9s  %s"
    print(header % ("workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
                    "change", "verdict"))
    for workload in workloads:
        names = sorted({m for (w, m) in a if w == workload} & {m for (w, m) in b if w == workload},
                       key=lambda m: (m not in end_to_end, m))
        for name in names:
            va, vb = a[(workload, name)], b[(workload, name)]
            sa, sb = summary(va), summary(vb)
            cell = lambda s, n: "%.4g [%.4g, %.4g] n=%d" % (s[1], s[0], s[2], n)
            change_text = "%+.1f%%" % (100 * (sb[1] - sa[1]) / abs(sa[1])) if sa[1] else ""
            if name in end_to_end:
                word = verdict(end_to_end[name], va, vb)
                bad += word in ("worse", "unresolved")
            else:
                word = "-"
            print(header % (workload, name, units.get(name, ""), cell(sa, len(va)),
                            cell(sb, len(vb)), change_text, word))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
