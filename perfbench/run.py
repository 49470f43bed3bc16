#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload write_durable --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. The build (CMake, optimized) goes to
$CARGO_TARGET_DIR if set, else .bench_build/, and is reused by later runs.
Progress goes to stderr; the last line on stdout is the result object.
Exits non-zero, printing no result, when the build fails or the run aborts.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds perfbench; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = [
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", str(os.cpu_count() or 2)],
            ]
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                    return None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build()
    if out is None:
        return 2
    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", work]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.tsv" % (args.workload, args.seed))]
    env = dict(os.environ, OMEGA_TRACE_DIR=os.path.join(work, "trace"))
    # Its own process group, so a timeout takes the forked nodes down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        t = time.monotonic()
        shutil.rmtree(work, ignore_errors=True)
        sys.stderr.write("perfbench: work directory removed in %.1f s\n" % (time.monotonic() - t))
    lines = stdout.decode().strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write("perfbench: run aborted without a result\n")
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
