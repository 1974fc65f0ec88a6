#!/usr/bin/env python3
"""Builds and runs the perfbench harness from the root of a source tree.

    python3 perfbench/run.py --workload refresh|maintain|serve \
        --seed N --seconds S --trace 0|1

The harness is compiled from the tree's own sources into .bench_build/
(an optimized build; the harness refuses to time anything else).  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  A per-layer metric of a layer the
workload never enters is reported as 0.  The line before it records the
host, the build and the sizes the run used.  The traced run also leaves
its spans in .bench_build/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

# The seed to use by default, and one kept out of development: a claimed
# gain must also hold on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20221015
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "kgm_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "base", "status.h")):
        fail("run from the root of a source tree: src/ is missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "kgm_perfbench", "-j3"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_sha():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found in the working directory")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"harness exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("harness printed no result")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = set(metrics) - {m["name"] for m in expected}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for m in expected:
        if m["name"] not in metrics:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in expected}

    record["git_sha"] = git_sha()
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
