#!/usr/bin/env python3
"""Self-test of the gpufi benchmark: every workload at tiny scale.

    python3 perfbench/selftest.py

Run from the repository root. For each workload the benchmark program
supports (the ones BENCHMARK.json lists, and served) it makes an untraced
and a traced run at --tiny scale and requires that every output check passes
with 0 failed operations, that the result line carries exactly the metrics
BENCHMARK.json declares (end-to-end untraced, per-layer traced) with their
units, and that a second untraced run of the same seed prints the same
simulated statistics (sim_digest). Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 + proc.stderr[-3000:])
    digest = next((l for l in lines if l.startswith("sim_digest ")), None)
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in WORKLOADS:
        digests = []
        for trace in (0, 1, 0):
            result, digest = run(name, 7, trace)
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                sys.exit(f"FAIL {name} trace={trace}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                sys.exit(f"FAIL {name} trace={trace}: metrics differ from "
                         f"BENCHMARK.json (missing {missing}, extra {extra}, "
                         f"or a unit changed)")
            if trace == 0:
                digests.append(digest)
        if digests[0] is None or digests[0] != digests[1]:
            sys.exit(f"FAIL {name}: simulated statistics differ between two "
                     f"runs of one seed: {digests}")
        print(f"ok {name} ({result['attempted']} operations, {digests[0]})",
              flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
