"""Tests of run.py's compare verdicts: python3 shufflebench/run.py --selftest"""

import unittest

from run import interleaved, paired, verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_better(self):
        change = [v * 1.05 for v in PARENT]
        self.assertEqual(verdict(PARENT, change, "higher", 0.1), "better")
        self.assertEqual(verdict(PARENT, [v * 0.95 for v in PARENT], "lower", 0.1),
                         "better")

    def test_small_win_rate_is_not_better(self):
        # Wins 8 of 10 pairs: below the 9/10 rule.
        change = [v * 1.05 for v in PARENT[:8]] + [v * 0.99 for v in PARENT[8:]]
        self.assertEqual(verdict(PARENT, change, "higher", 0.1), "within-bound")

    def test_loss_beyond_bound_is_worse(self):
        change = [v * 0.85 for v in PARENT]
        self.assertEqual(verdict(PARENT, change, "higher", 0.1), "worse")

    def test_loss_within_bound(self):
        change = [v * 0.97 for v in PARENT]
        self.assertEqual(verdict(PARENT, change, "higher", 0.1), "within-bound")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 0.8 for v in noisy]
        self.assertEqual(verdict(noisy, change, "higher", 0.1), "unresolved")


def runs(starts, first_seed=1):
    return [{"seed": first_seed + i, "start": t, "metrics": {}}
            for i, t in enumerate(starts)]


class PairingTest(unittest.TestCase):
    def test_pairs_match_by_seed(self):
        parent = runs([0, 2, 4])
        change = list(reversed(runs([1, 3], first_seed=2)))
        p, c = paired(parent, change)
        self.assertEqual([r["seed"] for r in p], [2, 3])
        self.assertEqual([r["seed"] for r in c], [2, 3])

    def test_back_to_back_pairs_are_interleaved(self):
        self.assertTrue(interleaved(runs([0, 2, 4]), runs([1, 3, 5])))
        self.assertTrue(interleaved(runs([1, 3, 5]), runs([0, 2, 4])))
        # Alternating which side runs first.
        self.assertTrue(interleaved(runs([0, 3, 4]), runs([1, 2, 5])))

    def test_back_to_back_sets_are_not_interleaved(self):
        self.assertFalse(interleaved(runs([0, 1, 2]), runs([3, 4, 5])))
        self.assertFalse(interleaved(runs([0, 2, 3]), runs([1, 4, 5])))

    def test_runs_without_start_times_are_not_interleaved(self):
        self.assertFalse(interleaved([{"seed": 1}], [{"seed": 1}]))


if __name__ == "__main__":
    unittest.main()
