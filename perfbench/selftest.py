#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # all tests, smoke runs included
    python3 perfbench/selftest.py -k Declarations

Checks that BENCHMARK.json's metric names and units are well formed and
cover every layer, that every declared metric is printed with its unit, that
a different seed changes the inputs but not the metric set, and smoke-runs
each workload traced and untraced.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The mini-BLAST stages and the branching DAG's nodes, as the per-layer
# metric names spell them.
BLAST_STAGES = ["seed_filter", "seed_expand", "ungapped", "gapped"]
DAG_NODES = ["seed_probe", "branch", "ext_fast", "ext_thorough", "rescore",
             "output"]
# Long enough that a traced run's halves still hold 1000 jobs of the
# slowest batch workload (p99 needs ten samples beyond it).
SMOKE_SECONDS = "10"

BENCH = run.load_benchmark()


def run_workload(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    return proc.returncode, json.loads(last), proc.stdout


class DeclarationsTest(unittest.TestCase):
    def test_names_and_units(self):
        seen = set()
        for decl in (BENCH["workloads"] + BENCH["end_to_end"]
                     + BENCH["per_layer"]):
            name = decl["name"]
            self.assertRegex(name, NAME_RE)
            self.assertNotIn(name, seen)
            seen.add(name)
            if "unit" in decl:
                self.assertRegex(decl["unit"], UNIT_RE)
                self.assertIn(decl["better"], ("higher", "lower"))
        for decl in BENCH["end_to_end"]:
            self.assertLessEqual(decl["bound"], 0.25)
            self.assertGreater(decl["bound"], 0.0)
        for w in BENCH["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_setup_metric(self):
        setup = [d for d in BENCH["end_to_end"] if d["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(d["bound"] for d in BENCH["end_to_end"]))

    def test_every_stage_and_node_has_a_metric(self):
        names = {d["name"] for d in BENCH["per_layer"]}
        for stage in BLAST_STAGES:
            self.assertIn("blast.%s_ns_per_item" % stage, names)
            self.assertIn("blast.gain.%s" % stage, names)
        for node in DAG_NODES:
            self.assertIn("graph.node_ns_per_item.%s" % node, names)


class SmokeTest(unittest.TestCase):
    """Short runs of every workload, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check_run(self, workload, trace):
        code, result, out = run_workload(workload, 1, trace)
        self.assertEqual(code, 0, out)
        self.assertEqual(set(result), CONTRACT_KEYS)
        self.assertTrue(result["correct"], out)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = run.declared(BENCH, trace == 1)
        self.assertEqual(set(result["metrics"]), {d["name"] for d in declared})
        for decl in declared:
            metric = result["metrics"][decl["name"]]
            self.assertEqual(metric["unit"], decl["unit"])
            self.assertIsInstance(metric["value"], (int, float))
            if not trace:
                self.assertGreater(metric["value"], 0, decl["name"])
        if trace:
            self.assertIn("Amdahl table", out)
            self.assertIn("tracing overhead", out)
        return result

    def test_workloads(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_seed_changes_inputs_not_metric_set(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                digests = []
                for seed in (1, 2, 1):
                    digests.append(subprocess.check_output(
                        [self.binary, "--input-digest", "--workload",
                         w["name"], "--seed", str(seed)], text=True).strip())
                self.assertNotEqual(digests[0], digests[1])
                self.assertEqual(digests[0], digests[2])
        a = self.check_run("dag-batch", 0)
        _, b, _ = run_workload("dag-batch", 2, 0)
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))


if __name__ == "__main__":
    unittest.main()
