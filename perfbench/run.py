#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload locate --seed 1 --seconds 10 --trace 0

The first run configures and builds libscalocate and the perfbench program in
.bench_build/perfbench (Release); later runs reuse that build. Build output
goes to stderr, so the last line of stdout is perfbench's JSON result.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's self-tests, then checks that a deliberately
wrong reference is counted as a failure and exits nonzero.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench_tmp")


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("run from the root of a scalocate checkout (no CMakeLists.txt/src here)")
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def perfbench(args):
    return [os.path.join(BUILD, "perfbench"), "--models",
            os.path.join(BENCH, "models"), "--work-dir", WORK] + args


def selftest():
    test = os.path.join(BUILD, "perfbench_selftest")
    if not os.path.isfile(test):
        fail("perfbench_selftest was not built (GTest not found)")
    if subprocess.run([test]).returncode != 0:
        fail("self-tests failed")
    # A wrong reference must be counted and must exit nonzero.
    proc = subprocess.run(
        perfbench(["--workload", "locate", "--seed", "3", "--seconds", "1",
                   "--trace", "0", "--wrong-reference"]),
        stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode == 0 or result["failed"] != result["attempted"] or result["correct"]:
        fail(f"wrong reference not caught: exit {proc.returncode}, {result}")
    print(f"wrong reference caught: exit {proc.returncode}, "
          f"{result['failed']}/{result['attempted']} failed")
    print("selftest ok")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["locate", "stream"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    build()
    if args.selftest:
        selftest()
        return
    proc = subprocess.run(perfbench(["--workload", args.workload, "--seed",
                                     str(args.seed), "--seconds", str(args.seconds),
                                     "--trace", args.trace]))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
