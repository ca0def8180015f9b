#!/usr/bin/env python3
"""Tiny-size self-test of the LagOver benchmark.

    python3 perfbench/selftest.py

Checks, on scaled-down populations (--tiny):
  * every workload's timed run emits exactly BENCHMARK.json's end_to_end
    metrics, and its traced run exactly the per_layer metrics, each with
    the declared unit, and passes every correctness check;
  * a forced failure (a one-round budget on construct) is counted in
    failed and ok_fraction and makes the command exit nonzero;
  * in a directory holding only BENCHMARK.json and perfbench/ the
    command exits nonzero without printing a result.
Exits nonzero on the first failed assertion.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["construct", "churn", "async-faults", "feed-lossy"]


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            label = "%s --trace %s" % (workload, trace)
            code, result = run(["--workload", workload, "--seed", "7",
                                "--seconds", "0.5", "--trace", trace,
                                "--tiny"])
            check(code == 0 and result is not None, label + ": exit %d" % code)
            check(result["correct"] and result["failed"] == 0,
                  label + ": correctness checks failed")
            check(result["attempted"] >= 1, label + ": nothing attempted")
            metrics = result["metrics"]
            check(set(metrics) == set(declared[trace]),
                  label + ": metric names differ from BENCHMARK.json: %s"
                  % sorted(set(metrics) ^ set(declared[trace])))
            for name, metric in metrics.items():
                check(metric["unit"] == declared[trace][name],
                      label + ": %s has unit %s" % (name, metric["unit"]))
                check(math.isfinite(metric["value"]),
                      label + ": %s is not finite" % name)
                if trace == "0":
                    check(metric["value"] != 0, label + ": %s is 0" % name)
        print("ok   %s: timed and traced metrics complete" % workload)

    code, result = run(["--workload", "construct", "--seed", "7",
                        "--seconds", "0.5", "--trace", "0", "--tiny",
                        "--round-budget", "1"])
    check(code != 0, "forced failure: exit code 0")
    check(result is not None and not result["correct"],
          "forced failure: result not marked incorrect")
    check(result["failed"] == result["attempted"] and result["failed"] > 0,
          "forced failure: failed %d of %d"
          % (result["failed"], result["attempted"]))
    check(result["metrics"]["ok_fraction"]["value"] < 1.0,
          "forced failure: ok_fraction not below 1")
    print("ok   forced failure: exit %d, failed %d/%d"
          % (code, result["failed"], result["attempted"]))

    stripped = os.path.join(ROOT, ".bench_build", "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(["--workload", "construct", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=stripped)
    shutil.rmtree(stripped)
    check(code != 0 and result is None,
          "without sources: exit %d, result %r" % (code, result))
    print("ok   without sources: exit %d, no result" % code)


if __name__ == "__main__":
    main()
