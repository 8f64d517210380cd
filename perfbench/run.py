#!/usr/bin/env python3
"""Builds the hetero-chiplet benchmark and runs one of its workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dnn64 --seed 1 --seconds 10 --trace 0

The Rust package beside this script is built offline in release mode into
$CARGO_TARGET_DIR (default: `.bench_build` at the repository root). Its
binary runs the workload on one thread, checks every output, and prints
one JSON result line, which this script prints again as the last line of
its standard output. Build output and diagnostics go to standard error.
Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "hetero-perfbench"
# The first build of a fresh checkout compiles the whole simulator.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    parser = argparse.ArgumentParser(description="Run one hetero-chiplet benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    # Every workload is single-threaded: pin the simulator's process-wide
    # defaults rather than inherit them from the caller's environment.
    env["HETERO_SIM_THREADS"] = "1"
    env.pop("HETERO_SIM_SKIP", None)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [
        os.path.join(target, "release", BINARY),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans-out", spans]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: run failed: {e}")
    lines = ran.stdout.strip().splitlines()
    if ran.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} exited with code {ran.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        sys.exit(f"perfbench: unreadable result line: {e}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.exit("perfbench: result line lacks the expected keys")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
