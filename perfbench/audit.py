#!/usr/bin/env python3
"""Noise audit: run-to-run spread of every end-to-end metric.

    python3 perfbench/audit.py [--runs 10] [--sets 2] [--workload NAME ...]
                               [--out perfbench/noise_audit.json]

Runs each workload --runs times per set through run.py (the benchmark's own
command), each run with its own seed, and repeats the set --sets times on the
same seeds. Per metric and set it reports the median and the spread: the
distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of the median. For every set
after the first it also reports how much worse its median is than the first
set's, as a share of the first. A metric is flagged when any set's spread
exceeds its bound from BENCHMARK.json, or when any later median is worse
than the first by more than the bound. Every set, with all its values, is
written as JSON for the README's audit table. Exits 1 if anything is
flagged.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("audit: %s seed %d failed:\n%s"
                         % (workload, seed, proc.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=os.path.join(HERE, "noise_audit.json"))
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    decls = {d["name"]: d for d in bench["end_to_end"]}

    report = {"host": {"nproc": os.cpu_count(), "machine": platform.machine()},
              "runs": args.runs, "sets": args.sets, "seconds": args.seconds,
              "seeds": [1000 + i for i in range(args.runs)],
              "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    flagged = []
    for workload in workloads:
        sets = [[one_run(workload, seed, args.seconds)
                 for seed in report["seeds"]] for _ in range(args.sets)]
        rows = {}
        for name, decl in decls.items():
            bound = decl["bound"]
            row = {"bound": bound, "sets": []}
            first = None
            for index, runs in enumerate(sets):
                values = [r[name] for r in runs]
                med, sp = spread(values)
                entry = {"median": med, "spread": round(sp, 4),
                         "values": values}
                if sp > bound:
                    flagged.append("%s/%s set %d spread %.3f > %.2f"
                                   % (workload, name, index + 1, sp, bound))
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if first else 0.0
                    if decl["better"] == "higher":
                        worse = -worse
                    entry["worse_than_set1"] = round(worse, 4)
                    if worse > bound:
                        flagged.append("%s/%s set %d median worse by %.3f"
                                       % (workload, name, index + 1, worse))
                row["sets"].append(entry)
            rows[name] = row
            print("%-14s %-22s bound %.2f  %s" % (
                workload, name, bound, "  ".join(
                    "median %.6g spread %.3f%s" % (
                        e["median"], e["spread"],
                        " worse %+.3f" % e["worse_than_set1"]
                        if "worse_than_set1" in e else "")
                    for e in row["sets"])), flush=True)
        report["workloads"][workload] = rows
    report["flagged"] = flagged
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for line in flagged:
        print("FLAGGED: " + line)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
