#!/usr/bin/env python3
"""Self-test of the before/after pair rule in bench/ab.py.

A verdict other than noise needs both halves of the rule: the head wins
at least nine tenths of the pairs (ties count for neither side), and its
median is better than the base's by more than the base's interquartile
range.  The direction comes from the metric ("higher" or "lower").  The
base drift, the trend of the base values over the pairs, is reported
beside the verdict and never changes it.

Stdlib-only; registered in ctest next to bench_gate_selftest.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402

BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


class Quartiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(ab.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))
        self.assertEqual(ab.quartiles([5]), (5, 5, 5))


class Verdict(unittest.TestCase):
    def test_clear_gain_on_a_higher_is_better_metric(self):
        head = [b * 1.2 for b in BASE]
        self.assertEqual(ab.verdict(BASE, head, "higher"), ("faster", 10, 0))

    def test_direction_follows_the_metric(self):
        head = [b * 1.2 for b in BASE]
        self.assertEqual(ab.verdict(BASE, head, "lower"), ("slower", 0, 10))
        self.assertEqual(ab.verdict(head, BASE, "lower"), ("faster", 10, 0))

    def test_nine_wins_of_ten_suffice_eight_do_not(self):
        head = [b * 1.2 for b in BASE]
        head[0] = BASE[0] * 0.5
        self.assertEqual(ab.verdict(BASE, head, "higher"), ("faster", 9, 1))
        head[1] = BASE[1]  # a tie counts for neither side
        self.assertEqual(ab.verdict(BASE, head, "higher"), ("noise", 8, 1))

    def test_a_gap_inside_the_base_iqr_is_noise(self):
        # Every pair won, but by less than the base's own spread.
        head = [b + 0.01 for b in BASE]
        q1, _, q3 = ab.quartiles(BASE)
        self.assertGreater(q3 - q1, 0.01)
        self.assertEqual(ab.verdict(BASE, head, "higher"), ("noise", 10, 0))

    def test_identical_sides_are_noise(self):
        self.assertEqual(ab.verdict(BASE, list(BASE), "higher"),
                         ("noise", 0, 0))


class Drift(unittest.TestCase):
    def test_a_steady_base_has_no_drift(self):
        self.assertEqual(ab.drift([10.0] * 10), 0.0)
        self.assertEqual(ab.drift([10.0]), 0.0)

    def test_a_drifting_base_reads_noise_and_shows_its_drift(self):
        # The base falls from 30 to 20 over ten pairs; the head beats it
        # by 12.9% in every pair, but the drift widens the base's IQR
        # (5) past the median gap (3.2), so the verdict stays noise and
        # the row says why: the trend moved the base by -10/25.
        base = [30 - 10 * i / 9 for i in range(10)]
        head = [b * 1.129 for b in base]
        row = ab.summarise("w", "trials_per_s", "higher", base, head)
        self.assertEqual((row["wins"], row["verdict"]), (10, "noise"))
        self.assertAlmostEqual(row["base_drift"], -0.4)
        self.assertAlmostEqual(ab.drift(list(reversed(base))), 0.4)


class Row(unittest.TestCase):
    def test_row_carries_pairs_quartiles_and_ratio(self):
        head = [b * 2 for b in BASE]
        row = ab.summarise("w", "trials_per_s", "higher", BASE, head)
        self.assertEqual(row["kind"], "ab")
        self.assertEqual(row["pairs"], 10)
        self.assertEqual(row["base"], BASE)
        self.assertEqual(row["head"], head)
        self.assertAlmostEqual(row["median_ratio"], 2.0)
        self.assertLess(row["base_q1"], row["base_median"])
        self.assertLess(row["base_median"], row["base_q3"])
        self.assertEqual((row["wins"], row["losses"], row["verdict"]),
                         (10, 0, "faster"))


if __name__ == "__main__":
    unittest.main()
