#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library under src/ plus the benchmark program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset; later runs rebuild only what changed. The last line of stdout is
the program's JSON result. A failed build or run exits non-zero and prints
no result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wan-adapt", "snap-migrate")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "cluster.h")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries the result only.
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no " + binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    binary = build(os.path.join(out_root, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-dir", os.path.join(out_root, "traces")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        fail("%s exited %d without a result" % (args.workload, proc.returncode))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
