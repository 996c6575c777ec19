#!/usr/bin/env python3
"""Build and run the UniDrive end-to-end benchmark.

    python3 perfbench/run.py --workload small_edits --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the libraries under src/) into .bench_build/perfbench, then runs one
workload. Build output goes to standard error; the benchmark's report goes to
standard output and ends with one JSON line. Result files and traced-run spans
are written to .bench_out/. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("small_edits", "bulk_sync", "skewed_links")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no UniDrive sources under src/; run from the root of a checkout")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "unidrive_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "unidrive_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    binary = build(root)
    sys.stdout.flush()
    done = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(root, ".bench_out"),
    ])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
