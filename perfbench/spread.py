#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10 [--trace 0]

For every metric: the median of its per-seed values and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
A spread above its bound, or above a third of it, is flagged. Each run's full result
is also kept under .bench_out/ by the benchmark itself.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':36s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  <-- above its bound"
        elif bound is not None and spread > bound / 3:
            flag = "  <-- above a third of its bound"
        print(f"{name:36s} {med:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
