#!/usr/bin/env python3
"""The benchmark's own tests: metric names, metric tables against
BENCHMARK.json, and a tiny-budget smoke of every workload, timed and
traced, through its output checks and replay guard.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def bench(workload, seed, trace, *extra, cwd=ROOT):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py")] + args + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1])


class Names(unittest.TestCase):
    def test_metric_names(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER) + run.WORKLOADS:
            self.assertRegex(name, NAME)

    def test_tables_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class Smoke(unittest.TestCase):
    def test_every_workload_timed(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                p = bench(w, 7, 0, "--smoke")
                self.assertEqual(p.returncode, 0, p.stderr)
                r = result_of(p)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(set(r["metrics"]), set(run.END_TO_END))
                for name, m in r["metrics"].items():
                    self.assertEqual(m["unit"], run.END_TO_END[name])
                    self.assertGreater(m["value"], 0, name)
                meta = json.loads(p.stdout.strip().splitlines()[-2][len("# meta "):])
                self.assertTrue(all(s > 0 for s in meta["chunk_slowness"]))
                self.assertGreater(meta["raw_wall_s"], 0)

    def test_every_workload_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                p = bench(w, 7, 1, "--smoke")
                self.assertEqual(p.returncode, 0, p.stderr)
                r = result_of(p)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertEqual(set(r["metrics"]), set(run.PER_LAYER))
                for name, m in r["metrics"].items():
                    self.assertEqual(m["unit"], run.PER_LAYER[name])

    def test_refuses_outside_a_checkout(self):
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as d:
            p = bench("pfuzzer-machine", 1, 0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
