"""Tests for stats.py. Run: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), 990)
        self.assertIsNone(stats.percentile(values[:999], 99))

    def test_p50_nearest_rank(self):
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(stats.percentile(list(range(1, 20)), 50))

    def test_order_of_input_does_not_matter(self):
        values = list(range(2000, 0, -1))
        self.assertEqual(stats.percentile(values, 99), 1980)

    def test_empty_and_bad_pct(self):
        self.assertIsNone(stats.percentile([], 50))
        with self.assertRaises(ValueError):
            stats.percentile([1, 2, 3], 100)


class RatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)

    def test_empty_base_is_zero(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)
        self.assertEqual(stats.ratio(0, 0.0), 0.0)

    def test_mean_and_median_of_nothing(self):
        self.assertEqual(stats.mean([]), 0.0)
        self.assertEqual(stats.median([]), 0.0)
        self.assertEqual(stats.mean([1, 2, 6]), 3.0)

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        # statistics.quantiles(n=4) gives 2.75 and 8.25; median 5.5.
        self.assertAlmostEqual(stats.spread(values), 1.0)
        self.assertEqual(stats.spread([4.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
