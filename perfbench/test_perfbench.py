"""Self-test of the benchmark: tiny runs of all three workloads.

    python3 perfbench/test_perfbench.py

Each run uses the self-test size (--tiny): the same workloads, checks and
counter invariants on a small enterprise, with one-second windows. The
tests check the result contract against BENCHMARK.json, that inputs are a
function of the seed, and that a planted wrong answer or miscounted
request makes the run fail.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "report", "update")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=180)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, lines, result, r.stderr


def digest(lines):
    for line in lines:
        m = re.match(r"inputs digest=(\w+)", line)
        if m:
            return m.group(1)
    return None


class Contract(unittest.TestCase):
    def check_result(self, workload, seed, trace):
        code, lines, result, err = run(workload, seed, trace)
        self.assertEqual(code, 0, err)
        self.assertIsNotNone(result, "last line is not JSON")
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertIn("invariants ok", lines)
        return lines

    def test_all_workloads_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed,
                                      trace=trace):
                        self.check_result(workload, seed, trace)

    def test_inputs_follow_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = digest(run(workload, 7, 0)[1])
                b = digest(run(workload, 7, 0)[1])
                c = digest(run(workload, 8, 0)[1])
                self.assertIsNotNone(a)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class Checks(unittest.TestCase):
    def test_wrong_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result, _ = run(workload, 1, 0, "--inject",
                                         "wrong-answer")
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_broken_invariant_reports_no_result(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result, err = run(workload, 1, 0, "--inject",
                                           "invariant")
                self.assertNotEqual(code, 0)
                self.assertIsNone(result)
                self.assertIn("invariant broken", err)


if __name__ == "__main__":
    unittest.main()
