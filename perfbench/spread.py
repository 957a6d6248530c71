#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload W [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

For every metric it prints the median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json. Each
run's line also shows host.fma_ns, so drift in host speed can be told
apart from the benchmark's own noise.
Run from the repository root. Exits 1 if any run fails its output checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, ok = {}, True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode or not result.get("correct"):
            ok = False
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n"
                  + proc.stderr[-2000:], file=sys.stderr)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        host = next((l.split()[1] for l in lines
                     if l.startswith("host.fma_ns ")), "?")
        shown = sorted(result["metrics"].items())
        print(f"seed {seed}: host.fma_ns={host} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in shown
            if k in bounds or args.trace == "1"), flush=True)

    print(f"\n{'metric':36s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print(f"{name:36s} {med:12.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
