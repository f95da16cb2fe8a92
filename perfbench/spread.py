#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                                [workload ...]

Runs perfbench/run.py once per seed for each workload (all of
BENCHMARK.json's workloads when none is named) and prints, per metric,
the median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound. A spread of a third of the bound or less
leaves room for the run-to-run noise of a second set of runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for name in names:
        values = {}
        failed = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, check=True)
            r = json.loads(p.stdout.splitlines()[-1])
            failed.append("%d/%d%s" % (r["failed"], r["attempted"],
                                       "" if r["correct"] else " INCORRECT"))
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print("%s: failed/attempted per run: %s" % (name, " ".join(failed)))
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            share = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(k)
            print("  %-36s median %-12.6g spread %6.3f%s\n      %s" % (
                k, med, share,
                "  bound %.2f%s" % (bound, "  OVER A THIRD" if share > bound / 3
                                    else "") if bound else "",
                " ".join("%.4g" % v for v in vs)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
