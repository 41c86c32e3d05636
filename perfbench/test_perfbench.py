#!/usr/bin/env python3
"""The benchmark's own tests: tiny-scale runs of every workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark on first use (as run.py does). Checks that each
workload emits every metric of BENCHMARK.json with its unit, that a
corrupted read or query row is counted as a failed op, and that the
benchmark refuses to produce a result without the couchkv sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Small enough to set up in well under a second.
TINY = ["--docs", "3000", "--setups", "1", "--idle-ms", "100"]


def run(workload, trace=0, extra=(), root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.6",
         "--trace", str(trace), *TINY, *extra],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        # kv_durable_write is runnable but not gated in BENCHMARK.json.
        workloads = [w["name"] for w in self.spec["workloads"]]
        for workload in workloads + ["kv_durable_write"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = last_json(proc)
                    self.check_result(result, section)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    if trace == 0:
                        for name in ("setup_s", "read_p50_us",
                                     "write_p50_us", "cpu_us_per_op",
                                     "peak_rss_mb"):
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_corrupted_read_is_a_failed_op(self):
        result = last_json(run("kv_read_mostly", extra=["--corrupt-read", "5"]))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_corrupted_query_row_is_a_failed_op(self):
        result = last_json(run("query_range", extra=["--corrupt-query", "3"]))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_no_result_without_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("kv_read_mostly", root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_readme_maps_every_per_layer_metric(self):
        with open(os.path.join(HERE, "README.md")) as f:
            documented = set(re.findall(r"^\| `([a-z0-9_.]+)`", f.read(),
                                        re.MULTILINE))
        for m in self.spec["per_layer"] + self.spec["end_to_end"]:
            self.assertIn(m["name"], documented)


if __name__ == "__main__":
    unittest.main()
