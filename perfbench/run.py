#!/usr/bin/env python3
"""LagOver benchmark entry point.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/ at the repository root, then runs
it:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Workloads: construct, churn, async-faults, feed-lossy, or "all" (every
workload, timed and traced, in one process). --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics and the self-time
table. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero when the sources
are missing, the build fails, or any correctness check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lagover_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        fail("LagOver sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="scale every population down (self-test)")
    parser.add_argument("--round-budget", type=int, default=0,
                        help="rounds allowed per construction (0 = default)")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.tiny:
        command.append("--tiny")
    if args.round_budget:
        command += ["--round-budget", str(args.round_budget)]
    # One workload must finish well inside the 180 s a run may take;
    # "all" runs eight of them back to back and is not capped.
    timeout = None if args.workload == "all" else RUN_TIMEOUT_S
    try:
        done = subprocess.run(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
