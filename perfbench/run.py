#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library,
tr_opt and the harness (CMake, Release) under .bench_build/; later runs
only re-check the build. Build output goes to stderr, so the
last stdout line is the harness's JSON result. Exits non-zero without a
result when the build fails, e.g. outside a full source checkout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_scaled", "budgeted_table3", "serve_mixed", "paper_pipeline"]


def build(build_dir):
    """Configures and builds the harness; returns the binary path."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.join(ROOT, ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", os.path.join(build_root, "perfbench-work"),
        "--trace-out", os.path.join(build_root, "perfbench-trace",
                                    f"{args.workload}-seed{args.seed}.json"),
    ], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
