#!/usr/bin/env python3
"""The benchmark's own test.

Run from the repository root:

    python3 perfbench/test_bench.py

A tiny-size run of every workload must complete with no failed point and
print exactly the metric names BENCHMARK.json lists; the Baseline and
CAMEO layer replays must reproduce their organizations' results; and the
run's checks must count a wrong or missing point as failed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark script under test)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = run.SPEC
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SPEC["default_seed"]), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpecMatchesBenchmark(unittest.TestCase):
    """spec.json documents exactly what BENCHMARK.json declares."""

    def test_workloads(self):
        self.assertEqual([(w["name"], w["why"]) for w in BENCHMARK["workloads"]],
                         [(w["name"], w["why"]) for w in SPEC["workloads"]])

    def test_metrics(self):
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[kind]]
            documented = [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]]
            self.assertEqual(declared, documented, kind)


class TinyRuns(unittest.TestCase):
    """Every workload completes at tiny size and reports every metric."""

    def check(self, trace, kind):
        names = [m["name"] for m in BENCHMARK[kind]]
        units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                result = tiny_run(workload, trace)
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(list(result["metrics"]), names)
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name])
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_replays_reproduce_baseline_and_cameo(self):
        binary = run.build()
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [str(binary), "replay", "--workload", workload, "--seed", "1",
                     "--size", "tiny"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
                record = json.loads(proc.stdout.strip().splitlines()[-1])
                replayed = {r["stats"]["org"] for r in record["replays"]}
                self.assertEqual(replayed, {"Baseline", "CAMEO"})
                for replay in record["replays"]:
                    self.assertTrue(replay["ok"], replay)
                    self.assertEqual(replay["mismatches"], 0)
                    self.assertGreater(replay["accesses"], 0)


class Checks(unittest.TestCase):
    """The correctness check counts every kind of bad point as failed."""

    def point(self, key, cycles, ok=True):
        return {"key": key, "ok": ok, "error": None if ok else "panicked",
                "stats": {"execution_cycles": cycles}}

    def test_expected_record_mismatch_fails_the_point(self):
        checks = run.Checks({"a": {"execution_cycles": 1}, "b": {"execution_cycles": 2}})
        checks.points("pass 1", {"pass": {"points": [self.point("a", 1), self.point("b", 3)]}})
        self.assertEqual((checks.attempted, checks.failed), (2, 1))

    def test_repetitions_must_agree_without_a_record(self):
        checks = run.Checks(None)
        checks.points("pass 1", {"pass": {"points": [self.point("a", 1)]}})
        checks.points("pass 2", {"pass": {"points": [self.point("a", 2)]}})
        self.assertEqual((checks.attempted, checks.failed), (2, 1))

    def test_failed_and_missing_points_count(self):
        checks = run.Checks({"a": {"execution_cycles": 1}, "b": {"execution_cycles": 2}})
        checks.points("pass 1", {"pass": {"points": [self.point("a", 1, ok=False)]}})
        self.assertEqual((checks.attempted, checks.failed), (2, 2))


if __name__ == "__main__":
    unittest.main()
