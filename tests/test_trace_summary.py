#!/usr/bin/env python3
"""Tests tools/trace_summary.py's handling of otherData.droppedEvents.

A Chrome trace with droppedEvents > 0 passes with a truncation warning by
default and exits 1 (TRUNCATED) under --no-drops; a negative, fractional
or boolean count is MALFORMED either way.

Usage: python3 tests/test_trace_summary.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "tools", "trace_summary.py")


def _trace(other):
    doc = {"traceEvents": [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
         "args": {"name": "main"}},
        {"name": "span", "ph": "X", "pid": 0, "tid": 1, "ts": 0.0,
         "dur": 1.0},
    ]}
    if other is not None:
        doc["otherData"] = other
    return doc


class TraceSummaryDrops(unittest.TestCase):
    def run_on(self, doc, *flags):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "trace.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            return subprocess.run(
                [sys.executable, SCRIPT, *flags, path],
                capture_output=True, text=True, check=False)

    def test_complete_trace_passes_under_no_drops(self):
        for other in (None, {"droppedEvents": 0}):
            res = self.run_on(_trace(other), "--no-drops")
            self.assertEqual(res.returncode, 0, res.stderr)
            self.assertNotIn("truncated", res.stderr)

    def test_dropped_events_warn_by_default(self):
        res = self.run_on(_trace({"droppedEvents": 7}))
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("WARNING: trace is truncated: 7 events", res.stderr)
        self.assertIn("7 dropped events", res.stdout)
        self.assertIn("OK", res.stdout)

    def test_dropped_events_fail_under_no_drops(self):
        res = self.run_on(_trace({"droppedEvents": 7}), "--no-drops")
        self.assertEqual(res.returncode, 1)
        self.assertIn("TRUNCATED: 7 events", res.stderr)

    def test_bad_counts_are_malformed(self):
        for bad in (-1, 2.5, True, "3"):
            for flags in ((), ("--no-drops",)):
                res = self.run_on(_trace({"droppedEvents": bad}), *flags)
                self.assertEqual(res.returncode, 1, (bad, flags))
                self.assertIn("MALFORMED", res.stderr, (bad, flags))
                self.assertIn("droppedEvents", res.stderr, (bad, flags))


if __name__ == "__main__":
    unittest.main()
