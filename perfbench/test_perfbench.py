"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Covers the spread and A/B statistics, the result-line validation in run.py,
the limits BENCHMARK.json must respect, and -- by building ge_perfbench and
running perfbench_selftest -- the C++ metric derivation and correctness gate.
"""
import json
import re
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchStatsTest(unittest.TestCase):
    def test_quartiles_are_pythons(self):
        for values in ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [3.5, 1.0],
                       [0.9, 1.3, 1.1, 1.7], [5, 1, 4, 2, 3]):
            q1, med, q3 = benchstats.quartiles(values)
            self.assertEqual([q1, q3],
                             [statistics.quantiles(values, n=4)[i] for i in (0, 2)])
            self.assertEqual(med, statistics.median(values))
        self.assertEqual(benchstats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchstats.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(benchstats.spread([3.0, 3.0, 3.0]), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchstats.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(benchstats.worse_by(100.0, 110.0, "higher"), -0.1)
        with self.assertRaises(ValueError):
            benchstats.worse_by(1.0, 1.0, "sideways")

    def test_ab_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
        faster = [p * 0.9 for p in parent]
        self.assertEqual(benchstats.ab_verdict(parent, faster, "lower", 0.05), "gain")
        slower = [p * 1.2 for p in parent]
        self.assertEqual(benchstats.ab_verdict(parent, slower, "lower", 0.05),
                         "regression")
        self.assertEqual(benchstats.ab_verdict(parent, list(parent), "lower", 0.05),
                         "unchanged")
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(benchstats.ab_verdict(noisy, list(noisy), "lower", 0.05),
                         "unresolved")
        # Higher-is-better metrics win by going up.
        self.assertEqual(benchstats.ab_verdict(parent, slower, "higher", 0.05), "gain")


class ResultLineTest(unittest.TestCase):
    def line(self, trace=0, **override):
        section = SPEC["per_layer" if trace else "end_to_end"]
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                              for m in section}}
        result.update(override)
        return json.dumps(result)

    def test_accepts_a_complete_line(self):
        self.assertEqual(run.check_result(self.line(0), 0)["attempted"], 3)
        self.assertEqual(run.check_result(self.line(1), 1)["failed"], 0)

    def test_rejects_a_bad_line(self):
        with self.assertRaises(ValueError):
            run.check_result(self.line(correct=False), 0)  # disagrees with failed
        with self.assertRaises(ValueError):
            run.check_result(self.line(attempted=0), 0)
        with self.assertRaises(ValueError):
            run.check_result(self.line(failed=4), 0)
        with self.assertRaises(ValueError):
            run.check_result(self.line(0), 1)  # end-to-end names in trace mode
        bad_unit = json.loads(self.line(0))
        bad_unit["metrics"]["setup_s"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            run.check_result(json.dumps(bad_unit), 0)
        extra = json.loads(self.line(0))
        extra["error_rate"] = 0.0
        with self.assertRaises(ValueError):
            run.check_result(json.dumps(extra), 0)


class BenchmarkSpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = set()
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.add(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.add(m["name"])
        all_names = ([w["name"] for w in SPEC["workloads"]] +
                     [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
        self.assertEqual(len(all_names), len(names), "names are used once")
        for name in all_names:
            self.assertRegex(name, NAME)
        self.assertLessEqual(len(json.dumps(SPEC)), 64 * 1024)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_fits_the_time_budget(self):
        # 4 + 22 runs per workload, each the measuring window plus at most
        # 10 s of set-up, warm-up and slice passes (6-8 s measured), and two
        # builds of at most 150 s (35-40 s measured with 4 jobs).
        runs = 4 + 22 * len(SPEC["workloads"])
        self.assertLess(runs * (SPEC["run_seconds"] + 10) + 2 * 150, 3420)


class ProgramTest(unittest.TestCase):
    def test_cpp_selftest(self):
        run.build()
        workdir = run.BUILD_DIR.parent / "selftest"
        try:
            proc = subprocess.run(
                [str(run.BUILD_DIR / "perfbench_selftest"), "--workdir", str(workdir)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("perfbench_selftest: ok", proc.stdout)

    def test_refuses_bad_arguments(self):
        binary = run.build()
        for argv in ([], ["--workload", "nope", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
                     ["--workload", "fleet_stream", "--seed", "x", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "fleet_stream", "--seed", "1", "--seconds", "1",
                      "--trace", "2"]):
            proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            self.assertNotEqual(proc.returncode, 0, argv)
            self.assertEqual(proc.stdout, "", argv)


if __name__ == "__main__":
    unittest.main()
