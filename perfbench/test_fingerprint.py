#!/usr/bin/env python3
"""The benchmark's own test: the exact work counters it reports (S1
branches and outputs, MQC count, DC subproblems, dirty subproblems of the
first updates) repeat exactly across two runs of one commit with one seed,
and every exactness check passes.

Run from the root of the repository (takes a few minutes):

    python3 perfbench/test_fingerprint.py [--seed N] [--seconds S]
"""

import argparse
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ARGS = argparse.Namespace(seed=3, seconds=2.0)


class FingerprintRepeats(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bins = run.build()
        run.become_subreaper()

    def check_workload(self, workload):
        first, second = (
            run.run_harness(self.bins, workload, ARGS.seed, ARGS.seconds, 0) for _ in range(2)
        )
        for report in (first, second):
            self.assertIsNotNone(report, f"{workload}: harness failed")
            self.assertTrue(report["correct"], f"{workload}: exactness check failed")
            self.assertEqual(report["failed"], 0)
        self.assertEqual(first["fingerprint"], second["fingerprint"])
        for name in ("fastqc.branches", "fastqc.outputs", "mqcs", "dc.subproblems"):
            self.assertIn(name, first["fingerprint"])

    def test_dense_communities(self):
        self.check_workload("dense-communities")

    def test_sparse_planted(self):
        self.check_workload("sparse-planted")

    def test_serve_mixed(self):
        self.check_workload("serve-mixed")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=ARGS.seed)
    parser.add_argument("--seconds", type=float, default=ARGS.seconds)
    ARGS, rest = parser.parse_known_args()
    unittest.main(argv=[sys.argv[0]] + rest)
