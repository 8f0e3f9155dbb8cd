#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload campus --seed 1 --trace 0

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, library sources from src/) into
.bench_build/perfbench; later runs only re-check the build. The benchmark's
report goes to stdout and its last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the per-layer metrics
replace the end-to-end ones and the chrome://tracing span file is written to
.bench_out/trace_<workload>_seed<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("campus", "campus_par", "fleet_tcp")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "streaming.cpp")):
        fail("library sources (src/) not found next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail("build step failed: %s" % exc, 2)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    spec = load_spec()
    # The run length the benchmark's steadiness was measured at.
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else None,
                        required=spec is None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail("benchmark printed no result line")
    expected = spec and {m["name"] for m in spec[
        "per_layer" if args.trace else "end_to_end"]}
    if expected and set(result["metrics"]) != expected:
        sys.stdout.write(done.stdout)
        fail("metric names differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ expected))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
