#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at the tiny size, traced
and untraced, through run.py, and checks that the result line carries
exactly the metrics BENCHMARK.json names, with their units, and that every
correctness check passed. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)


def tiny(workload, trace, seed=1):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr[-2000:]}"
    return proc, lines, json.loads(lines[-1])


class TinyWorkloads(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                proc, lines, result = tiny(workload, trace)
                self.assertEqual(proc.returncode, 0, "\n".join(lines))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(expected))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], expected[name], name)
                    self.assertIsInstance(metric["value"], (int, float), name)
                self.assertTrue(any(l.startswith("fingerprint: ") for l in lines))
                self.assertTrue(any(l.startswith("counters.untraced: ") for l in lines))

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")

    def test_layer_split_accounts_for_all_stepping_time(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                _, lines, result = tiny(workload, 1)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                run_until = m["runtime.run_until_s"]
                busy = sum(m[f"dataplane.{call}.busy_s"]
                           for call in ("send", "next_wakeup", "deliver", "tick"))
                self.assertAlmostEqual(m["runtime.self_s"] + busy, run_until, delta=1e-5)
                legs = json.loads(next(l for l in lines if l.startswith("legs: "))[6:])
                leg = legs["traced_median_leg"]
                self.assertAlmostEqual(leg["run_until_s"], run_until, delta=1e-6)
                # Dataplane calls happen only inside run_until: the raw busy
                # time fits in it, so runtime.self_s was not clamped at zero.
                self.assertLessEqual(leg["dataplane_busy_s"], leg["run_until_s"])
                # run_until covers the leg's stepping, bar the loop itself and
                # reading the per-flow results.
                self.assertLessEqual(run_until, leg["step_s"])
                self.assertLessEqual(leg["step_s"] - run_until, 0.02 * leg["step_s"] + 0.002)

    def test_same_seed_reproduces_counters_and_other_seeds_run(self):
        for seed in (7, 7, 8):
            _, lines, result = tiny("churn-scalefree", 0, seed)
            self.assertTrue(result["correct"], "\n".join(lines))

    def test_unknown_workload_prints_no_result(self):
        proc = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
