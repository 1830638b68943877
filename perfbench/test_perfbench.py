#!/usr/bin/env python3
"""Tests of the benchmark's own tools.

    python3 perfbench/test_perfbench.py

Covers compare.py (order statistics against hand-computed values, the
verdict rules, a diff of two small run sets) and BENCHMARK.json's form,
and runs the perfbench binary's --self-test (its order statistics and every
correctness check on right and deliberately wrong inputs) when the
binary has been built by perfbench/run.py.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(compare.median([3, 1, 2]), 2)
        self.assertEqual(compare.median([4, 1, 3, 2]), 2.5)

    def test_quartiles(self):
        # Exclusive method: positions p * (n + 1) in 1-based order.
        self.assertEqual(compare.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))
        self.assertEqual(compare.quartiles([4, 1, 2]), (1.0, 2.0, 4.0))
        self.assertEqual(compare.quartiles([7]), (7, 7, 7))

    def test_spread(self):
        # 1..10: (8.25 - 2.75) / 5.5 = 1.0
        self.assertAlmostEqual(compare.spread(list(range(1, 11))), 1.0)
        self.assertEqual(compare.spread([5, 5, 5, 5]), 0.0)


class Verdicts(unittest.TestCase):
    PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_no_worse(self):
        change = [v - 2 for v in self.PARENT]   # 2% slower, bound 10%
        self.assertEqual(compare.verdict(self.PARENT, change, "higher",
                                         0.1)[0], "no worse")

    def test_worse(self):
        change = [v * 0.8 for v in self.PARENT]
        v, won = compare.verdict(self.PARENT, change, "higher", 0.1)
        self.assertEqual((v, won), ("worse", 0.0))

    def test_improved(self):
        change = [v + 5 for v in self.PARENT]
        v, won = compare.verdict(self.PARENT, change, "higher", 0.1)
        self.assertEqual((v, won), ("improved", 1.0))

    def test_lower_is_better(self):
        change = [v - 5 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.PARENT, change, "lower",
                                         0.1)[0], "improved")
        self.assertEqual(compare.verdict(self.PARENT, change, "higher",
                                         0.03)[0], "worse")

    def test_wins_need_nine_in_ten(self):
        change = list(self.PARENT)
        change[:8] = [v + 5 for v in change[:8]]   # wins 8 of 10
        self.assertEqual(compare.verdict(self.PARENT, change, "higher",
                                         0.1)[0], "no worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50, 150, 70, 130, 100, 60, 140, 100, 90, 110]
        self.assertEqual(compare.verdict(self.PARENT, noisy, "higher",
                                         0.1)[0], "unresolved")

    def test_every_run_better_resolves_a_wide_spread(self):
        parent = [10, 20, 30, 40]
        change = [50, 60, 70, 80]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "improved")


def write_set(directory, workload, values, digest):
    os.makedirs(os.path.join(directory, workload))
    for seed, rate in enumerate(values, 1):
        result = {"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {
                      "setup_s": {"value": 0.05, "unit": "s"},
                      "minstr_per_s": {"value": rate, "unit": "Minstr/s"},
                      "op_p50_ms": {"value": 1000 / rate, "unit": "ms"},
                      "op_tail_ms": {"value": 1200 / rate, "unit": "ms"}}}
        base = os.path.join(directory, workload, str(seed))
        with open(base + ".json", "w") as f:
            f.write("some earlier line\n" + json.dumps(result) + "\n")
        with open(base + ".digest", "w") as f:
            f.write(digest + "\n")


class Diff(unittest.TestCase):
    def run_diff(self, parent, change, pdigest="d1", cdigest="d1"):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            write_set(a, "w", parent, pdigest)
            write_set(b, "w", change, cdigest)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), "diff",
                 a, b], capture_output=True, text=True)
            return out.returncode, out.stdout

    def test_same_runs_are_no_worse(self):
        runs = [4.0 + 0.01 * i for i in range(10)]
        rc, out = self.run_diff(runs, runs)
        self.assertEqual(rc, 0, out)
        self.assertEqual(out.count("no worse"), 4, out)

    def test_slower_change_is_worse(self):
        runs = [4.0 + 0.01 * i for i in range(10)]
        slow = [r * 0.5 for r in runs]
        rc, out = self.run_diff(runs, slow)
        self.assertEqual(rc, 1)
        self.assertRegex(out, r"minstr_per_s .* worse")

    def test_digest_change_fails(self):
        runs = [4.0] * 10
        rc, out = self.run_diff(runs, runs, cdigest="d2")
        self.assertEqual(rc, 1)
        self.assertIn("digest d1 -> d2", out)


class BenchmarkFile(unittest.TestCase):
    def test_form(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        seen = set()
        for w in bench["workloads"]:
            self.assertRegex(w["name"], name)
            self.assertLessEqual(len(w["why"]), 200)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")


@unittest.skipUnless(os.path.exists(BINARY),
                     "perfbench not built; run perfbench/run.py first")
class BinarySelfTest(unittest.TestCase):
    def test_self_test(self):
        out = subprocess.run([BINARY, "--self-test"], capture_output=True,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertRegex(out.stdout, r"self-test: (\d+) of \1 passed")


if __name__ == "__main__":
    unittest.main()
