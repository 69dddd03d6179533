#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_hot_rw --seeds 1-10 --seconds 20

For every metric of the JSON result line it prints the median over the
runs and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. Compare the spread
with the metric's bound in BENCHMARK.json; a steady benchmark keeps it
well below a third of the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (0, 0, 0)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        limit = f"{bound / 3:8.3f}" if bound else f"{'-':>8s}"
        print(f"{name:40s} {median:14.6g} {spread:8.3f} {limit}")


if __name__ == "__main__":
    main()
