#!/usr/bin/env python3
"""Compare two benchmark records (the .bench_out/*.json files).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's relative change, oriented so that positive is
better when BENCHMARK.json says which way is better. Results taken with
different kernel tiers, core counts, workloads, seeds, run lengths,
trace modes or offered loads are not comparable: the script names the
mismatch and prints no deltas (exit 2).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUST_MATCH = ["kernel_tier", "nproc", "workload", "seed", "seconds", "trace", "corpus_bytes",
              "offered_rps"]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    base, new = (json.load(open(p)) for p in sys.argv[1:])
    mismatches = [k for k in MUST_MATCH
                  if base["context"].get(k) != new["context"].get(k)]
    if mismatches:
        for k in mismatches:
            print(f"not comparable: {k} is {base['context'].get(k)!r} vs "
                  f"{new['context'].get(k)!r}")
        return 2
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:40s} missing in {sys.argv[2]}")
            continue
        bv, nv = b["value"], n["value"]
        delta = (nv - bv) / abs(bv) if bv else float("nan")
        if better.get(name) == "lower":
            delta = -delta
        print(f"{name:40s} {bv:14.6g} -> {nv:14.6g} {b['unit']:6s} {delta:+8.2%} better")
    return 0


if __name__ == "__main__":
    sys.exit(main())
