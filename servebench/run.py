#!/usr/bin/env python3
"""Build servebench from source and run one workload.

    python3 servebench/run.py --workload chat --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --selftest

Run from the root of the repository. The build goes to
.bench_build/servebench (configured once, then rebuilt incrementally);
build output goes to stderr so that the last line on stdout is the
benchmark's JSON result. A traced run (--trace 1) also writes a Chrome
trace-event file to .bench_build/, which Perfetto opens offline.

Exits non-zero, without printing a result, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "servebench")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("servebench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        sys.exit(subprocess.run([build("servebench_selftest")]).returncode)
    if not a.workload:
        p.error("--workload is required")

    cmd = [build("servebench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-file", os.path.relpath(os.path.join(
            OUT, "servebench-trace-%s-seed%d.json" % (a.workload, a.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("servebench: run failed with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("servebench: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
