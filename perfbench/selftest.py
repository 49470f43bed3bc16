#!/usr/bin/env python3
"""Self-tests of the benchmark itself: builds it, runs the C++ checks
(seeded inputs, due-time latency against a stalling stub server, the
percentile helper, the /proc parser) and checks compare.py's verdicts on
canned result files.

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "canned"}],
    "end_to_end": [
        {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def runs(lat, rate):
    return [{"workload": "w", "seed": i, "trace": 0,
             "metrics": {"lat": {"value": a, "unit": "us"},
                         "rate": {"value": b, "unit": "1/s"}}}
            for i, (a, b) in enumerate(zip(lat, rate))]


def verdicts(old, new, tmp):
    paths = []
    for name, rows in (("old", old), ("new", new)):
        path = os.path.join(tmp, name + ".jsonl")
        with open(path, "w") as f:
            f.write("".join(json.dumps(r) + "\n" for r in rows))
        paths.append(path)
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(SPEC, f)
    rows, _ = compare.compare(SPEC, compare.load_runs(paths[0]), compare.load_runs(paths[1]))
    code = subprocess.call([sys.executable, os.path.join(HERE, "compare.py"), paths[0],
                            paths[1], "--spec", spec_path], stdout=subprocess.DEVNULL)
    return {name: v for name, v, _ in rows[0][1]}, code


def compare_cases():
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cases = [
        ("same runs are unchanged", steady, steady, [1000] * 10, [1000] * 10,
         {"lat": "unchanged", "rate": "unchanged"}, 0),
        ("slower beyond the bound is worse", steady, [x * 1.3 for x in steady],
         [1000] * 10, [1000] * 10, {"lat": "worse", "rate": "unchanged"}, 1),
        ("higher rate beyond the bound is improved", steady, steady, [1000] * 10,
         [1300] * 10, {"lat": "unchanged", "rate": "improved"}, 0),
        ("lower rate beyond the bound is worse", steady, steady, [1000] * 10,
         [800] * 10, {"lat": "unchanged", "rate": "worse"}, 1),
        ("a spread wider than the bound is unresolved", steady,
         [60, 140, 70, 150, 80, 130, 65, 145, 75, 135], [1000] * 10, [1000] * 10,
         {"lat": "unresolved", "rate": "unchanged"}, 0),
    ]
    ok = True
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        for name, lat0, lat1, rate0, rate1, want, want_code in cases:
            got, code = verdicts(runs(lat0, rate0), runs(lat1, rate1), tmp)
            passed = got == want and code == want_code
            ok = ok and passed
            print("%s  compare: %s%s" % ("ok  " if passed else "FAIL", name,
                                         "" if passed else " (got %s, exit %d)" % (got, code)))
    return ok


def main():
    out = run.build()
    if out is None:
        return 2
    native = subprocess.call([os.path.join(out, "perfbench_selftest")]) == 0
    ok = compare_cases() and native
    print("PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
