#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly, one seed per run, and prints
per end-to-end metric the median, quartiles and spread against its bound.

    python3 perfbench/steadiness.py                      # all workloads, 10 runs
    python3 perfbench/steadiness.py --workloads campus --runs 5 --first-seed 101
    python3 perfbench/steadiness.py --out a.json         # a first set ...
    python3 perfbench/steadiness.py --out b.json         # ... a second set
    python3 perfbench/steadiness.py --compare a.json b.json

Spread is (Q3 - Q1) / median over the runs, with the quartiles of Python's
statistics.quantiles(values, n=4). A metric is steady when its spread is
within its BENCHMARK.json bound; the target is a third of the bound. Also
printed: hardware_threads and, per run, the number of lag samples behind
the p99 and how many lie beyond it, and the share of CPU time the host
stole during the run. Results are written to --out
(default .bench_out/steadiness.json).

--compare reads two such files and prints, per workload and metric, how
much worse the second set's median is than the first's, as a share of the
first: (B - A) / A for lower-is-better metrics, (A - B) / A for
higher-is-better ones. A metric passes when that is within its bound.
Exits non-zero when a run is incorrect, a spread exceeds its bound, or a
compared median moved past its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAG_RE = re.compile(r"lag_p99_ms.*\((\d+) samples, (\d+) beyond\)")
STEAL_RE = re.compile(r"host steal\s+([0-9.]+)")


def measure(spec, args):
    print("hardware_threads %d" % (os.cpu_count() or 0))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"hardware_threads": os.cpu_count(), "seconds": args.seconds,
              "workloads": {}}
    all_ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        lag_samples = []
        steal = []
        for i in range(args.runs):
            seed = args.first_seed + i
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 repr(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            if done.returncode != 0:
                print(done.stdout)
                sys.exit("run failed: %s seed %d" % (workload, seed))
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                all_ok = False
                print("%s seed %d: INCORRECT" % (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            m = LAG_RE.search(done.stdout)
            if m:
                lag_samples.append((int(m.group(1)), int(m.group(2))))
            m = STEAL_RE.search(done.stdout)
            steal.append(float(m.group(1)) if m else 0.0)
            print("%s seed %d: %s host_steal=%.4f" % (workload, seed, " ".join(
                "%s=%.6g" % (n, result["metrics"][n]["value"])
                for n in bounds), steal[-1]), flush=True)
        print("\n%s (%d runs, seeds %d..%d, %g s each)" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1, args.seconds))
        print("  lag samples per run (total, beyond p99): %s" % lag_samples)
        print("  %-14s %12s %12s %12s %9s %7s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                all_ok = False
            print("  %-14s %12.6g %12.6g %12.6g %9.4f %7.3f  %s" % (
                name, med, q1, q3, spread, bound, verdict))
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
        report["workloads"][workload] = {"metrics": rows,
                                         "lag_samples": lag_samples,
                                         "host_steal": steal}
    out = args.out or os.path.join(ROOT, ".bench_out", "steadiness.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
    return all_ok


def compare(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    print("%-11s %-14s %12s %12s %9s %7s  %s" % (
        "workload", "metric", "median A", "median B", "worse by", "bound",
        "verdict"))
    for workload, rows_a in a["workloads"].items():
        rows_b = b["workloads"].get(workload)
        if rows_b is None:
            print("%-11s missing from %s" % (workload, path_b))
            all_ok = False
            continue
        for name, m in metrics.items():
            med_a = rows_a["metrics"][name]["median"]
            med_b = rows_b["metrics"][name]["median"]
            change = (med_b - med_a) / med_a
            worse = change if m["better"] == "lower" else -change
            ok = worse <= m["bound"]
            all_ok = all_ok and ok
            print("%-11s %-14s %12.6g %12.6g %+9.4f %7.3f  %s" % (
                workload, name, med_a, med_b, worse, m["bound"],
                "ok" if ok else "TOO FAR"))
    return all_ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="where to write the results")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files instead of running")
    args = parser.parse_args()
    if args.compare:
        ok = compare(spec, *args.compare)
    else:
        ok = measure(spec, args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
