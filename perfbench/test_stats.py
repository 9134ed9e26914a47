"""Tests for the benchmark's percentile rule: python3 -m unittest discover perfbench"""

import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.min_samples(0.9), 100)
        self.assertEqual(stats.min_samples(0.5), 20)
        self.assertEqual(stats.min_samples(0.99), 1000)
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.9), 90)
        self.assertEqual(sum(v > stats.percentile(values, 0.9) for v in values), 10)
        with self.assertRaises(ValueError):
            stats.percentile(values[:99], 0.9)

    def test_nearest_rank_ignores_input_order(self):
        values = [5.0 * ((i * 37) % 120) for i in range(120)]
        p = stats.percentile(values, 0.9)
        self.assertEqual(p, sorted(values)[107])
        self.assertGreaterEqual(sum(v > p for v in values), stats.MIN_TAIL)

    def test_rejects_quantile_outside_unit_interval(self):
        for q in (0, 1, 1.5, -0.1):
            with self.assertRaises(ValueError):
                stats.percentile(list(range(1000)), q)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])


if __name__ == "__main__":
    unittest.main()
