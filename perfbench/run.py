#!/usr/bin/env python3
"""Builds and runs the verification benchmark (see perfbench/DESIGN.md).

Run from the repository root:

    python3 perfbench/run.py --workload figure4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a C++ program (perfbench/src) linked against the toolkit,
which is built from source into .bench_build/perfbench on first use. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; its metrics are the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1).
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("figure4", "paths_parallel", "daemon_mix")


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "ovbench", "ovbench_selftest"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def declared_metrics(trace):
    """The metric names and units BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "ovbench_selftest")], cwd=ROOT).returncode

    command = [os.path.join(BUILD, "ovbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print("perfbench: ovbench exited with %d" % done.returncode, file=sys.stderr)
        return done.returncode or 1

    result = json.loads(lines[-1])
    if args.workload != "all":
        promised = declared_metrics(args.trace)
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        if reported != promised:
            sys.stderr.write(done.stdout)
            print("perfbench: reported metrics differ from BENCHMARK.json: %s" %
                  sorted(set(reported.items()) ^ set(promised.items())), file=sys.stderr)
            return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
