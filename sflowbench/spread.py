#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 sflowbench/spread.py [--workload NAME ...] [--seeds 10]
                                 [--first-seed 1] [--verbose]
                                 [-- EXTRA...]

Run from the repository root.  For every workload (default: all in
BENCHMARK.json) and every end-to-end metric, prints the median over the
seeds and the spread: (third quartile - first quartile) / median, from
statistics.quantiles(values, n=4), next to the metric's bound.  A steady
benchmark keeps every spread but setup_s's below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    parser.add_argument("extra", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    status = 0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                ["python3", os.path.join(ROOT, "sflowbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", "0", *args.extra],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n"
                      f"{out.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for name, series in sorted(values.items()):
            median = statistics.median(series)
            spread = float("nan")
            if len(series) >= 2 and median:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(median)
            bound = bounds.get(name)
            print(f"  {name:36s} median {median:14.6g}  spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "")
                  + ("  [" + " ".join(f"{v:.4g}" for v in series) + "]"
                     if args.verbose else ""))
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
