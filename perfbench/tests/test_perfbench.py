#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark (like run.py, into $CARGO_TARGET_DIR or
.bench_build), then:
  * runs every workload at tiny size, untraced and traced, and checks
    that every metric BENCHMARK.json names is printed with its unit and
    that the output checks pass;
  * corrupts one output per workload and checks that its check fails;
  * runs the benchmark from a directory holding only BENCHMARK.json and
    perfbench/, where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# One output per workload whose check the corruption test breaks.
CORRUPT = {
    "sim-routed": "link_load",
    "sim-scale": "scan_packets",
    "serve-ndjson": "digest",
    "serve-live": "detected",
}

# Workload-specific names the human section prints, with their units.
SHOWN = {
    "sim-routed": [("scan_packets_per_s", "1/s")],
    "sim-scale": [("scan_packets_per_s", "1/s")],
    "serve-ndjson": [("flows_per_s", "1/s")],
    "serve-live": [("flows_per_s", "1/s"), ("decision_latency_p50_ms", "ms"),
                   ("decision_latency_p99_ms", "ms")],
}


def bench(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.3",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        r = bench(workload, trace)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], r.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))
        # The human-readable section names every end-to-end metric and
        # the workload's own names with their units, and failed_frac.
        shown = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        for name, unit in shown + SHOWN[workload]:
            self.assertTrue(any(l.split()[:1] == [name] and
                                l.split()[-1] == unit for l in lines), name)
        self.assertTrue(any(l.startswith("failed_frac") for l in lines))
        meta = json.loads(lines[-2])["meta"]
        for key in ("commit", "compiler", "build_type", "nproc", "seed",
                    "command"):
            self.assertIn(key, meta)
        if trace:
            self.assertTrue(any(l.startswith("spans: ") for l in lines))
        else:
            for m in SPEC["end_to_end"]:
                self.assertGreater(got[m["name"]]["value"], 0, m["name"])

    def test_workloads_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_workloads_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1)


class Corruption(unittest.TestCase):
    def test_corrupted_output_fails_its_check(self):
        for workload, output in CORRUPT.items():
            with self.subTest(workload=workload, output=output):
                r = bench(workload, 0, "--corrupt", output)
                self.assertNotEqual(r.returncode, 0, r.stdout)
                self.assertIn("CHECK FAILED", r.stdout)
                result = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class Isolated(unittest.TestCase):
    def test_fails_without_the_repository(self):
        # The build root is ignored by git, so nothing is left behind.
        top = os.path.join(run.build_root(), "isolated")
        shutil.rmtree(top, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(top, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), top)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            r = bench("sim-routed", 0, cwd=top, env=env)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(top, ignore_errors=True)


if __name__ == "__main__":
    run.build()
    unittest.main()
