#!/usr/bin/env python3
"""CourseRank session benchmark: builds the driver, then runs one workload.

    python3 perfbench/run.py --workload browse|recommend|write_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The driver and the CourseRank sources it links
are compiled (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; the first run builds,
later runs reuse the build. Build output goes to stderr, the driver's report
to stdout, whose last line is the result JSON. The WAL of write_mix and the
span file of a traced run are written under the build directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs,
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "recommend", "write_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        driver = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: driver failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
