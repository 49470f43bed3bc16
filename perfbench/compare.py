#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per workload.

    python3 perfbench/compare.py old.jsonl new.jsonl [--spec BENCHMARK.json]

Both files hold one run per line as perfbench/sweep.py writes them. For each
workload and end-to-end metric, the medians of the two sides are compared
against that metric's bound from BENCHMARK.json:

  worse       the new median is worse by more than the bound
  improved    the new median is better by more than the bound
  unchanged   the medians are within the bound of each other
  unresolved  a side's own spread (IQR / median) is wider than the bound,
              so the runs cannot tell, unless every new run beats every
              old run (improved) or loses to it (worse)

Exits 1 if any metric of any workload is worse, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace", 0):
                continue
            runs.setdefault(r["workload"], []).append(r["metrics"])
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / med if med else float("inf")


def verdict(old, new, better, bound):
    """One metric's verdict, and the relative change of the medians."""
    om, nm = statistics.median(old), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - om) / om if om else 0.0
    if max(spread(old), spread(new)) > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "improved", worse_by
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(spec, old_runs, new_runs):
    """Rows of (workload, [(metric, verdict, change)]); and any worse."""
    rows, regressed = [], False
    for workload in [w["name"] for w in spec["workloads"]]:
        old, new = old_runs.get(workload), new_runs.get(workload)
        if not old or not new:
            rows.append((workload, None))
            continue
        cells = []
        for m in spec["end_to_end"]:
            v, change = verdict([r[m["name"]]["value"] for r in old],
                                [r[m["name"]]["value"] for r in new],
                                m["better"], m["bound"])
            regressed = regressed or v == "worse"
            cells.append((m["name"], v, change))
        rows.append((workload, cells))
    return rows, regressed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    rows, regressed = compare(spec, load_runs(args.old), load_runs(args.new))
    for workload, cells in rows:
        if cells is None:
            print("%-14s missing runs on one side" % workload)
            continue
        print("%-14s %s" % (workload, "  ".join(
            "%s %s (%+.1f%%)" % (name, v, 100 * change) for name, v, change in cells)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
