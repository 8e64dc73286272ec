"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s ptbench -p 'test_*.py'
"""

import unittest

import stats


def span(name, t0, t1, parent=-1):
    return {"name": name, "t0": t0, "t1": t1, "parent": parent,
            "program": False}


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(1, 21))  # 1..20, shuffled below
        samples = samples[7:] + samples[:7]
        value, pct, n = stats.tail(samples)
        self.assertEqual(n, 20)
        self.assertEqual(value, 10)  # 11..20 are the ten beyond it
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 50.0)

    def test_percentile_rises_with_samples(self):
        value, pct, n = stats.tail([float(i) for i in range(100)])
        self.assertEqual((value, n), (89.0, 100))
        self.assertAlmostEqual(pct, 90.0)

    def test_eleven_is_the_minimum(self):
        value, pct, _ = stats.tail([5.0] + [1.0] * 10)
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 / 11)
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("step", 0.0, 10.0),         # 0
            span("ch", 1.0, 5.0, 0),         # 1
            span("ch_pc", 2.0, 4.0, 1),      # 2: nested two deep
            span("ns", 6.0, 8.0, 0),         # 3
        ]
        st = stats.self_times(spans)
        self.assertEqual(st["step"], (10.0, 4.0))  # 10 - (4 + 2)
        self.assertEqual(st["ch"], (4.0, 2.0))     # only its direct child
        self.assertEqual(st["ch_pc"], (2.0, 2.0))
        self.assertEqual(st["ns"], (2.0, 2.0))

    def test_overlapping_and_overhanging_children(self):
        spans = [
            span("step", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),    # overlaps a: covered once
            span("c", 9.0, 12.0, 0),   # clipped to the parent's end
        ]
        self.assertEqual(stats.self_times(spans)["step"], (10.0, 4.0))

    def test_totals_over_repeated_names(self):
        spans = [span("step", 0.0, 2.0), span("x", 0.5, 1.0, 0),
                 span("step", 2.0, 5.0), span("x", 3.0, 4.0, 2)]
        self.assertEqual(stats.self_times(spans)["step"], (5.0, 3.5))


class ThroughputTest(unittest.TestCase):
    def test_changing_element_count(self):
        # Three steps on 100 elements, then a remesh, two steps on 160.
        elems = [100, 100, 100, 160, 160]
        self.assertAlmostEqual(stats.elem_steps_per_s(elems, 4.0), 155.0)

    def test_rejects_empty_time(self):
        with self.assertRaises(ValueError):
            stats.elem_steps_per_s([1], 0.0)


class FailFracTest(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(stats.fail_frac(0, 20), 0.0)
        self.assertEqual(stats.fail_frac(8, 20), 0.4)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)


class EndToEndTest(unittest.TestCase):
    def test_metrics_from_record(self):
        walls = [1.0 + 0.01 * i for i in range(12)]
        rec = {
            "setup_s": [3.0, 1.0, 2.0],
            "steps": [{"wall": w, "elems": 10.0, "fail": "", "layer": {}}
                      for w in walls],
            "campaign_walls": [sum(walls[:6]), sum(walls[6:])],
            "elem_steps": [10.0] * 12,
            "scenarios": 2,
            "peak_rss_mb": 50.0,
        }
        m, notes = stats.end_to_end(rec)
        self.assertEqual(m["setup_s"], (2.0, "s"))
        self.assertAlmostEqual(m["step_s.p50"][0], 1.055)
        self.assertEqual(m["step_s.tail"][0], walls[1])
        self.assertEqual(notes["step_s.tail"]["samples"], 12)
        self.assertAlmostEqual(m["elem_steps_per_s"][0], 120.0 / sum(walls))
        self.assertAlmostEqual(m["scenarios_per_hour"][0],
                               7200.0 / sum(walls))


if __name__ == "__main__":
    unittest.main()
