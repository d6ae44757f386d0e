#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 servebench/run.py --workload dense-llc --seed 1 --seconds 12 \
        --trace 0

Workloads: dense-llc and topk-snapshot (see BENCHMARK.json for why each
exists), and dense-dram, which BENCHMARK.json leaves out for time.  The
benchmark and a private copy of the library are built with CMake into
.bench_build/servebench; results and traces go to .bench_out/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 1 reports the per-layer metrics
instead of the end-to-end ones and writes the spans to
.bench_out/trace-<workload>-seed<n>.jsonl.

    python3 servebench/run.py --selftest    # the harness's own unit tests

Exit codes: 0 success, 1 an answer check failed, 2 bad arguments or a
missing source tree or a failed set-up, 3 a build failure or timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("dense-llc", "dense-dram", "topk-snapshot")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tpa.h")):
        log(f"library sources not found under {ROOT}/src")
        return 2
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return 3
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return 3
    return 0


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def selftest():
    status = build("harness_test")
    if status:
        return status
    binary = os.path.join(BUILD, "harness_test")
    if not os.path.isfile(binary):
        log("GoogleTest not found; harness tests not built")
        return 3
    return subprocess.run([binary]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None or args.seconds <= 0 or args.seed < 0:
        parser.print_usage(sys.stderr)
        return 2

    status = build("servebench")
    if status:
        return status
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--commit", commit()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.rstrip("\n").splitlines()
    # Everything but the verdict passes through; the verdict is re-checked
    # so a malformed last line never reaches the caller as a result.
    for line in lines[:-1]:
        print(line)
    try:
        verdict = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        verdict = None
    if (not isinstance(verdict, dict) or
            set(verdict) != {"correct", "attempted", "failed", "metrics"}):
        log(f"no result line (exit code {run.returncode})")
        return run.returncode or 3
    print(json.dumps(verdict), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
