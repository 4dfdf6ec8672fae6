#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload run.py knows (the ones BENCHMARK.json declares and
table3-taxi) over a short horizon (--smoke) in both modes and
checks that each metric BENCHMARK.json names is printed with its unit,
that the runs match their pins, and that a wrong pin makes a run fail.

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_build" / "smoke"


def run(workload, trace, pins=None):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupted_pins(field):
    """pins.json with every smoke pin's `field` changed."""
    pins = json.loads((HERE / "pins.json").read_text())
    for pin in pins["smoke"].values():
        pin[field] = "0" * 16
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"pins-bad-{field}.json"
    path.write_text(json.dumps(pins))
    return path


class BenchmarkSmoke(unittest.TestCase):
    def check_metrics(self, workload, trace, declared):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], proc.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, expected)
        for name, unit in expected.items():
            self.assertIn(name, proc.stdout)
            value = res["metrics"][name]["value"]
            self.assertIsInstance(value, (int, float), name)
        # The human-readable lines print each metric with its unit.
        for name, unit in expected.items():
            line = next(l for l in proc.stdout.splitlines()
                        if l.split()[:1] == [name])
            self.assertTrue(line.rstrip().endswith(unit), line)
        self.assertIn("failed_frac", proc.stdout)

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, SPEC["per_layer"])

    def test_wrong_digest_pin_fails_the_run(self):
        pins = corrupted_pins("digest")
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, pins)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result(proc)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])

    def test_wrong_fingerprint_aborts(self):
        pins = corrupted_pins("fingerprint")
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, pins)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)
                self.assertIn("fingerprint", proc.stderr)


if __name__ == "__main__":
    unittest.main()
