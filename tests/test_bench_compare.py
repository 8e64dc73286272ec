#!/usr/bin/env python3
"""Tests tools/bench_compare.py's handling of retired report entries.

A config or speedup key that the baseline has and the new report lacks is
a regression unless the new report lists it in info["retired"]; then it is
printed as retired and the comparison passes. Timing regressions are still
flagged next to retired entries.

Usage: python3 tests/test_bench_compare.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "tools", "bench_compare.py")


def _report(configs, derived, retired=None):
    doc = {"schema": "pt-bench-v1", "bench": "b", "info": {},
           "configs": [{"name": n, "metrics": {"step_sec": v}}
                       for n, v in configs.items()],
           "derived": derived}
    if retired is not None:
        doc["info"]["retired"] = retired
    return doc


BASE = _report({"old": 2.0, "kept": 1.0},
               {"speedup_old": 2.0, "speedup_kept": 1.5})


class BenchCompareRetired(unittest.TestCase):
    def compare(self, new):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("base.json", BASE), ("new.json", new)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            return subprocess.run([sys.executable, SCRIPT, *paths],
                                  capture_output=True, text=True, check=False)

    def test_missing_entries_fail_without_retired(self):
        res = self.compare(_report({"kept": 1.0}, {"speedup_kept": 1.5}))
        self.assertEqual(res.returncode, 1)
        self.assertIn("config 'old' missing from new report", res.stdout)
        self.assertIn("derived.speedup_old missing from new report",
                      res.stdout)

    def test_retired_entries_pass(self):
        res = self.compare(_report({"kept": 1.0}, {"speedup_kept": 1.5},
                                   retired="old, speedup_old"))
        self.assertEqual(res.returncode, 0, res.stdout)
        self.assertIn("retired  config 'old'", res.stdout)
        self.assertIn("retired  derived.speedup_old", res.stdout)
        self.assertNotIn("missing", res.stdout)

    def test_retired_covers_only_named_entries(self):
        res = self.compare(_report({"kept": 1.0}, {"speedup_kept": 1.5},
                                   retired="old"))
        self.assertEqual(res.returncode, 1)
        self.assertIn("retired  config 'old'", res.stdout)
        self.assertIn("derived.speedup_old missing from new report",
                      res.stdout)

    def test_regressions_still_flagged_next_to_retired(self):
        res = self.compare(_report({"kept": 1.5}, {"speedup_kept": 1.5},
                                   retired="old,speedup_old"))
        self.assertEqual(res.returncode, 1)
        self.assertIn("REGRESSION  kept.step_sec", res.stdout)


if __name__ == "__main__":
    unittest.main()
