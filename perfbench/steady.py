#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are across seeds.

Runs perfbench/run.py once per (workload, seed) with tracing off, then
prints, per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json. A spread above a third of the
bound is marked "!". Run from anywhere:

    python3 perfbench/steady.py --seeds 10 [--workloads serve-warm,serve-cold]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()

    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in range(1, args.seeds + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: checks failed", file=sys.stderr)
                return 1
            runs[w].append({"seed": seed, "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(runs[w][-1]["metrics"].items())),
                  file=sys.stderr)

    print(f"{'workload':<13} {'metric':<17} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w, rs in runs.items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "!" if spread > m["bound"] / 3 else ""
            print(f"{w:<13} {m['name']:<17} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {m['bound']:>6} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
