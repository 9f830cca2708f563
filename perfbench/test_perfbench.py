#!/usr/bin/env python3
"""Tests of the benchmark itself, mostly on tiny inputs (--short).

    python3 perfbench/test_perfbench.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.end_to_end = {m["name"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"] for m in spec["per_layer"]}

    def test_workloads_match_spec(self):
        self.assertEqual(set(self.workloads), set(run.WORKLOADS))

    def test_metric_names_match_spec(self):
        for workload in self.workloads:
            for trace, names in ((False, self.end_to_end),
                                 (True, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    _, res = run.measure(workload, 1, 0, trace, short=True)
                    self.assertEqual(set(res["metrics"]), names)
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)

    def test_traced_digests_equal_untraced(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                raw = run.run_harness(workload, 3, 0, True, short=True)
                untraced = [run.job_digests(r) for r in raw["reps"]
                            if not r["traced"]]
                traced = [run.job_digests(r) for r in raw["reps"]
                          if r["traced"]]
                self.assertTrue(traced)
                for digests in untraced + traced:
                    self.assertEqual(digests, untraced[0])

    def test_seed_reaches_inputs(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                a = run.run_harness(workload, 1, 0, False, short=True)
                b = run.run_harness(workload, 2, 0, False, short=True)
                da = run.job_digests(a["reps"][0])
                db = run.job_digests(b["reps"][0])
                self.assertEqual(len(da), len(db))
                self.assertTrue(all(x != y for x, y in zip(da, db)))

    def test_pinned_digests_hold(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                raw = run.run_harness(workload, run.PINNED_SEED, 0, False)
                self.assertEqual(run.count_failures(raw)[1], 0)


if __name__ == "__main__":
    unittest.main()
