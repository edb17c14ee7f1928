"""Tests for the spread arithmetic in spread.py.

Run from the repository root: python3 -m unittest perfbench/test_spread.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        # quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
        self.assertAlmostEqual(spread.spread(list(range(1, 11))), 5.5 / 5.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread.spread([3.0] * 10), 0.0)

    def test_zero_median_reports_zero(self):
        self.assertEqual(spread.spread([0.0, 0.0, 0.0]), 0.0)

    def test_order_does_not_matter(self):
        vals = [1.02, 0.98, 1.01, 0.99, 1.0]
        self.assertAlmostEqual(spread.spread(vals),
                               spread.spread(sorted(vals)))

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(spread.parse_seeds("7"), [7])


if __name__ == "__main__":
    unittest.main()
