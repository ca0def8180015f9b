#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs perfbench/run.py once per seed on each named workload and prints,
for every metric, the median of the per-run values, the distance between
the first and third quartile as a share of that median (the steadiness
measure BENCHMARK.json's bounds are held to) and the per-run values in
seed order:

    python3 perfbench/spread.py --workloads construct churn --seeds 1-10 --trace 0
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}

    status = 0
    for workload in args.workloads:
        values = {}
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", args.trace],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed" % (workload, seed))
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s (%d runs)" % (workload, len(seed_list(args.seeds))))
        for name, series in values.items():
            mid = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  above a third of bound %.2f" % bound
            print("  %-34s median %-14.6g spread %.4f%s"
                  % (name, mid, spread, flag))
            print("    runs: " + " ".join("%.4g" % v for v in series))
    sys.exit(status)


if __name__ == "__main__":
    main()
