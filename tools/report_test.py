#!/usr/bin/env python3
"""Tests for the summary validators in tools/report.py.

Each validator must accept its committed BENCH_*.json, and reject a
one-field mutation of each invariant it gates with that invariant's
message, so a gate that can no longer fail shows up here.

    python3 tools/report_test.py
"""
import json
import os
import sys
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import report  # noqa: E402


def committed(kind):
    path = os.path.join(os.path.dirname(TOOLS), f"BENCH_{kind}.json")
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


class ValidatorTest(unittest.TestCase):
    def assertRejects(self, kind, summary, message):
        failures = list(report.CHECKS[kind](summary))
        self.assertTrue(any(message in f for f in failures),
                        f"no failure mentions {message!r}: {failures}")

    def test_committed_baselines_pass(self):
        for kind in report.CHECKS:
            with self.subTest(kind=kind):
                self.assertEqual(list(report.CHECKS[kind](committed(kind))),
                                 [])

    def test_fig4_phase_sum_off_by_one_us(self):
        s = committed("fig4")
        s["configs"][1]["prof"]["phases"]["run"] += 1
        self.assertRejects("fig4", s, "user_lfs: phases sum to")

    def test_fig4_lock_blame_must_equal_lock_wait(self):
        s = committed("fig4")
        s["configs"][2]["blame"]["blame.lock.kernel.txn_us.sum"] += 1
        self.assertRejects("fig4", s, "embedded_lfs: blame.lock.* sums to 1 "
                                      "but the lock_wait phase is 0")

    def test_tail_admitted_plus_shed_must_equal_arrivals(self):
        s = committed("tail")
        s["configs"][0]["shed"] += 1
        self.assertRejects("tail", s, "user_lfs @ 4 tps: admitted 400 + "
                                      "shed 1 != arrivals 400")

    def test_tail_percentiles_must_not_decrease(self):
        s = committed("tail")
        sojourn = s["configs"][0]["latency"]["sojourn"]
        sojourn["p99"] = sojourn["p95"] - 1
        self.assertRejects("tail", s, "sojourn percentiles are not "
                                      "non-decreasing")

    def test_tail_queued_plus_service_must_equal_sojourn(self):
        s = committed("tail")
        s["configs"][0]["exemplars"][0]["queued_us"] += 1
        self.assertRejects("tail", s, "!= sojourn")

    def test_recovery_periodic_curve_must_not_grow_with_the_log(self):
        s = committed("recovery")
        nocp = [p for p in s["curve"] if p["mode"] == "nocp"]
        periodic = [p for p in s["curve"] if p["mode"] == "periodic"]
        for f, n in zip(periodic, nocp):
            f["recovery_us"] = n["recovery_us"]
        self.assertRejects("recovery", s, "checkpoints are not bounding "
                                          "replay")

    def test_cleaning_provenance_off_by_one_block(self):
        s = committed("cleaning")
        s["points"][0]["bytes"]["user_data"] += report.BLOCK_SIZE
        self.assertRejects("cleaning", s, "partition broken")

    def test_cleaning_physical_wa_below_one(self):
        s = committed("cleaning")
        s["points"][0]["wa_physical"] = 0.99
        self.assertRejects("cleaning", s, "physical WA 0.9900 < 1.0")


if __name__ == "__main__":
    unittest.main()
