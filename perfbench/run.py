#!/usr/bin/env python3
"""Builds the gpufi benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--tiny]

Run from the repository root. The build (CMake, Release) goes to
.bench_build/perfbench and is incremental; its output goes to stderr so the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every output check passed, 1 on a failed check, 2 on a
usage or build error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rtl-transient", "rtl-permanent", "sw-apps", "served")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("gpufi sources (src/) not found next to perfbench/")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gpufi_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "gpufi_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale: minimal campaigns, one round")
    args = ap.parse_args()

    out_dir = os.path.join(".bench_build", "perfbench")
    binary = build(os.path.join(ROOT, out_dir, "build"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--data-dir", os.path.join(ROOT, "gpufi_data"),
           "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
