#!/usr/bin/env python3
"""Build and run the recdb benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload ml_itemcf --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn.

The harness (perfbench/harness, built with perfbench/CMakeLists.txt from the
engine sources in src/) lands in .bench_build/perfbench; databases and the
span dump of a traced run go to .bench_build/perfbench-work. The harness's
report is passed through, and its last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, whose metric names must be
the end_to_end (--trace 0) or per_layer (--trace 1) names of
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "api", "recdb.h")):
        fail("engine sources (src/) not found; run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build output goes to stderr so stdout ends with the result line.
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "recdb_perfbench")


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(binary, workload, args):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("harness exited with code %d" % done.returncode)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys %s" % sorted(result))
    kind = "per_layer" if args.trace else "end_to_end"
    want = {m["name"] for m in load_spec()[kind]}
    if set(result["metrics"]) != want:
        fail("result metrics %s differ from BENCHMARK.json %s" %
             (sorted(result["metrics"]), sorted(want)))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.workload == "all":
        for workload in load_spec()["workloads"]:
            run(binary, workload["name"], args)
    else:
        run(binary, args.workload, args)


if __name__ == "__main__":
    main()
