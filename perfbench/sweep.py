#!/usr/bin/env python3
"""Runs workloads over several seeds and appends one JSON line per run.

    python3 perfbench/sweep.py --out results.jsonl [--runs 10] [--first-seed 1]
                               [--trace 0] [--workloads write_durable read_mostly]

Each line is the run's result object plus "workload", "seed" and "trace".
Two such files are what perfbench/compare.py compares. At the end it
prints, per workload and end-to-end metric, the median and the quartile
spread (IQR / median) of the runs it made.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    results = {}
    with open(args.out, "a") as out:
        for workload in args.workloads:
            for k in range(args.runs):
                seed = args.first_seed + k
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
                p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
                lines = p.stdout.decode().strip().splitlines()
                if p.returncode != 0 or not lines:
                    err = "%s.%s-%d.err" % (args.out, workload, seed)
                    with open(err, "wb") as f:
                        f.write(p.stderr)
                    print("%s seed %d: FAILED (exit %d), stderr in %s" %
                          (workload, seed, p.returncode, err))
                    continue
                r = json.loads(lines[-1])
                r.update(workload=workload, seed=seed, trace=args.trace)
                out.write(json.dumps(r) + "\n")
                out.flush()
                results.setdefault(workload, []).append(r)
                print("%s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.6g" % (m, v["value"]) for m, v in r["metrics"].items())))
    if args.trace:
        return 0
    for workload, runs in results.items():
        if len(runs) < 2:
            continue
        for m in spec["end_to_end"]:
            med, sp = spread([r["metrics"][m["name"]]["value"] for r in runs])
            flag = "" if sp < m["bound"] / 3 else ("  (above bound/3)" if sp < m["bound"]
                                                    else "  (ABOVE BOUND)")
            print("%-14s %-14s median %14.6g  spread %6.3f  bound %.2f%s" %
                  (workload, m["name"], med, sp, m["bound"], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
