#!/usr/bin/env python3
"""Repeatability report: run servebench on several seeds per workload.

    python3 servebench/repeat.py [--runs 10] [--first-seed 1]
                                 [--workloads fleet,wide] [--trace 0]

For every workload and metric, prints the median, the quartiles and the
spread (interquartile distance as a share of the median) over the runs,
next to the metric's bound from BENCHMARK.json. A spread above a third of
the bound is flagged: the benchmark should be made steadier before its
numbers are trusted. Runs use the `run_seconds` of BENCHMARK.json; each
run's report is kept in `.bench_work/repeat/`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, log_dir):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    log = os.path.join(log_dir, "%s-seed%d-trace%d.log" % (workload, seed, trace))
    with open(log, "w") as err:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d), see %s" % (" ".join(cmd), out.returncode,
                                                               log))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    log_dir = os.path.join(ROOT, ".bench_work", "repeat")
    os.makedirs(log_dir, exist_ok=True)
    flagged = 0
    for workload in workloads:
        values = {}
        incorrect = 0
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, seconds, args.trace, log_dir)
            incorrect += not result["correct"] or result["failed"] > 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print("%s seed %d: %s" % (workload, args.first_seed + i, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                file=sys.stderr)
        print("%s: %d runs, %d incorrect" % (workload, args.runs, incorrect))
        print("  %-30s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread",
                                                  "bound"))
        for name, (unit, vals) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                flagged += 1
            print("  %-30s %12.4f %12.4f %12.4f %7.1f%% %6s %s%s" % (
                name, q1, med, q3, 100 * spread, "" if bound is None else bound, unit, flag))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
