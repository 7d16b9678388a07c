"""Tests of starbench itself, on the small sizes of --smoke.

    python3 -m unittest discover -s starbench -p 'test_*.py'

Each test runs the benchmark as a subprocess, so the first one also builds
the repository (about a minute on 4 cores).  Do not run them while a
benchmark run is in progress: both use .bench_build/work.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, *args):
    out = subprocess.run([sys.executable, str(root / "starbench" / "run.py"), "--seed", "7",
                          "--seconds", "1", *args], cwd=root, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return out.returncode, result, out.stderr


class SmokeTest(unittest.TestCase):
    def check_schema(self, result, kind):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["correct"], bool)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertEqual(metric["unit"], units[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result, err = run(ROOT, "--workload", w["name"], "--trace", "0", "--smoke")
                self.check_schema(result, "end_to_end")
                self.assertEqual((rc, result["correct"], result["failed"]), (0, True, 0), err)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result, err = run(ROOT, "--workload", w["name"], "--trace", "1", "--smoke")
                self.check_schema(result, "per_layer")
                self.assertEqual((rc, result["correct"], result["failed"]), (0, True, 0), err)

    def test_wrong_expected_output_is_a_failure(self):
        cases = [("certify-n9", "0", "fingerprint=1"), ("optimize-n9", "0", "optimized_area=1"),
                 ("serve-mix", "0", "hot_area=1"), ("certify-n9", "1", "area=1")]
        for workload, trace, expect in cases:
            with self.subTest(workload=workload, trace=trace, expect=expect):
                rc, result, _ = run(ROOT, "--workload", workload, "--trace", trace, "--smoke",
                                    "--expect", expect)
                self.assertNotEqual(rc, 0)
                self.check_schema(result, "end_to_end" if trace == "0" else "per_layer")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_without_sources_no_result(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "starbench", bare / "starbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            rc, result, _ = run(bare, "--workload", "serve-mix", "--trace", "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
