#!/usr/bin/env python3
"""Run one benchmark workload end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the runner binary from the repository's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, prints every metric
with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set, with --trace 1 the
per-layer set (the traced run also prints the Amdahl table and the tracing
overhead). A failed output check prints "correct": false and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BINARY = "ripple_perfbench"
RUN_TIMEOUT_S = 170


def load_benchmark():
    """BENCHMARK.json: the workloads, metrics, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cached_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configure (once) and build the runner binary; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no ripple sources next to perfbench/ (expected src/)")
        sys.exit(2)
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache) and cached_source(cache) != HERE:
        shutil.rmtree(out)
    os.makedirs(out, exist_ok=True)
    build_log = os.path.join(out, "perfbench-build.log")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", BINARY])
    with open(build_log, "a") as logf:
        for step in steps:
            if subprocess.call(step, stdout=logf, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log("build failed; see " + build_log)
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit(1)
    return os.path.join(out, BINARY)


def declared(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def shape_metrics(bench, raw, trace):
    """Check the runner's metrics against BENCHMARK.json and return the
    contract's metric map (value + unit), plus any problems found."""
    problems = []
    metrics = {}
    for decl in declared(bench, trace):
        name = decl["name"]
        got = raw.get(name)
        if got is None:
            if trace:
                # Layers off this workload's path read 0 (no self time).
                got = {"value": 0.0, "unit": decl["unit"], "samples": 0}
            else:
                problems.append("metric %s not printed" % name)
                continue
        if got["unit"] != decl["unit"]:
            problems.append("metric %s unit %s != declared %s"
                            % (name, got["unit"], decl["unit"]))
        metrics[name] = {"value": got["value"], "unit": decl["unit"]}
    names = {d["name"] for d in declared(bench, trace)}
    for extra in sorted(set(raw) - names):
        problems.append("metric %s printed but not declared" % extra)
    return metrics, problems


def print_table(title, metrics, raw):
    print(title)
    for name, m in metrics.items():
        samples = raw.get(name, {}).get("samples", 0)
        print("  %-36s %18.6g %-6s n=%d" % (name, m["value"], m["unit"],
                                            samples))


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    scratch = os.path.join(build_dir(), "scratch-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("workload %s timed out" % args.workload)
        sys.exit(1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log("runner exited %d without a result" % proc.returncode)
        sys.exit(1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    raw = report["layers"] if args.trace else report["end_to_end"]
    metrics, problems = shape_metrics(bench, raw, args.trace == 1)
    print_table("per-layer metrics" if args.trace else "end-to-end metrics",
                metrics, raw)
    for p in problems:
        print("CHECK FAILED: " + p)
    correct = bool(report["correct"]) and not problems and proc.returncode == 0
    failed = int(report["failed"]) + len(problems)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(report["attempted"])),
                      "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
