#!/usr/bin/env python3
"""Runs one workload N times, each with another seed, and prints the
median and quartiles of every metric and the spread (Q3 - Q1) / median.

Usage, from the repository root:

    python3 perfbench/repeat.py --workload serve-hot [--runs 10]
        [--seconds 10] [--trace 0] [--same-seed]

Seeds run 1, 2, ..., N; `--same-seed` runs seed 1 every time.

Quartiles are `statistics.quantiles(values, n=4)`. The spread of each
end-to-end metric is printed beside its bound from BENCHMARK.json, and
beside a third of the bound, the margin the benchmark is tuned to keep.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", default="0")
    p.add_argument("--same-seed", action="store_true",
                   help="run every time with seed 1, to see machine noise alone")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(a.runs):
        seed = 1 if a.same_seed else 1 + i
        cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", a.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        for line in lines[:-1]:
            if line.startswith("info") or line.startswith("violation"):
                print(f"seed {seed}: {line}")
        result = json.loads(lines[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values}")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
