#!/usr/bin/env python3
"""The fleet-audit benchmark's own tests.

Run from the repository root:

    python3 perfbench/test_bench.py

Every run uses the --tiny fleets, so the whole suite takes about a
minute once the benchmark is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer values that are timing-dependent by nature rather than
# counts of work: the hand-off queue's deepest backlog depends on
# collector scheduling, and a layer is unresolved when its timing spread
# exceeds its value.
GAUGES = {"fleet.queue_high_water", "trace.unresolved_layers"}


def bench(workload, trace, *extra, seed=1):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stdout}")
    return json.loads(done.stdout.strip().split("\n")[-1])


class TinyFleetTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])

    def test_every_named_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                e2e = bench(workload, 0)
                self.assertTrue(e2e["correct"])
                self.assertEqual(e2e["failed"], 0)
                self.assertGreaterEqual(e2e["attempted"], 1)
                self.check_metrics(e2e, SPEC["end_to_end"])
                traced = bench(workload, 1)
                self.assertTrue(traced["correct"])
                self.assertEqual(traced["failed"], 0)
                self.check_metrics(traced, SPEC["per_layer"])

    def test_per_layer_counts_repeat_exactly(self):
        counted = [m["name"] for m in SPEC["per_layer"]
                   if m["unit"] in ("count", "B") and m["name"] not in GAUGES]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = bench(workload, 1)["metrics"]
                second = bench(workload, 1)["metrics"]
                for name in counted:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)

    def test_corrupted_expected_hash_fails_the_output_check(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace, "--corrupt-expected-hash")
                    self.assertFalse(result["correct"])
                    self.assertEqual(result["failed"], result["attempted"])

    def test_other_seed_passes_the_output_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0, seed=7)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_fails_without_the_library_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "perfbench-test", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(alone, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                RUN + ["--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0"],
                cwd=alone, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180, check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
