#!/usr/bin/env python3
"""Fleet-audit benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload contention-fleet --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the library sources under src/) into
.bench_build/perfbench on first use, runs the benchmark binary, and
re-prints its result: the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Any failure to build
or run exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fleet_bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fleet_bench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")


def validate(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the fleet (the benchmark's own tests)")
    parser.add_argument("--corrupt-expected-hash", action="store_true",
                        help="flip a bit of every expected output hash")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_expected_hash:
        command.append("--corrupt-expected-hash")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark run failed: {err}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited {done.returncode}")
    result = validate(lines[-1]) if lines else None
    if result is None:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no valid result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
