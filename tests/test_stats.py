import itertools
import math

import numpy as np
import pytest
import scipy.stats

from corrnet.stats import (DegenerateDataError, mann_whitney_u, pearson,
                           quartiles)


class TestPearson:
    def test_affine(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)

    def test_sign_property(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(15)
        for a in (-3.0, 0.5, 7.0):
            assert pearson(x, a * x + 2.0) == pytest.approx(math.copysign(1.0, a))

    def test_zero_variance(self):
        for x, y in (([1, 1, 1], [1, 2, 3]),
                     ([0.1] * 3, [1, 1, 2]),  # x - mean is ~1e-17, not 0
                     ([1, 1, 2], [0.7] * 3),  # y - mean is ~1e-16, not 0
                     ([0, 0, 0], [1, 2, 3])):
            with pytest.raises(DegenerateDataError):
                pearson(x, y)

    def test_small_scale_is_not_degenerate(self):
        assert pearson([1e-20, 2e-20, 3e-20], [1, 2, 3]) == pytest.approx(1.0)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            pearson([1], [2])
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal(30)
            y = x * 0.3 + rng.standard_normal(30)
            assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0], abs=1e-12)


def brute_force_u(a, b):
    wins = sum(1.0 for x in a for y in b if x > y)
    ties = sum(1.0 for x in a for y in b if x == y)
    return wins + 0.5 * ties


class TestMannWhitney:
    def test_complete_separation(self):
        res = mann_whitney_u([1, 2], [3, 4])
        assert res.u_statistic == 0.0

    def test_all_ties(self):
        res = mann_whitney_u([1, 1, 1], [1, 1, 1])
        assert res.u_statistic == 4.5
        assert res.p_value == 1.0

    def test_brute_force_small_samples(self):
        rng = np.random.default_rng(3)
        for n1, n2 in itertools.product(range(1, 6), range(1, 6)):
            for _ in range(10):
                # small integer support forces plenty of ties
                a = rng.integers(0, 4, size=n1).astype(float)
                b = rng.integers(0, 4, size=n2).astype(float)
                res = mann_whitney_u(a, b)
                assert res.u_statistic == pytest.approx(brute_force_u(a, b), abs=1e-12)
                assert 0.0 <= res.u_statistic <= n1 * n2
                assert 0.0 <= res.p_value <= 1.0

    def test_u_complement(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal(7)
            b = rng.standard_normal(9)
            u_ab = mann_whitney_u(a, b).u_statistic
            u_ba = mann_whitney_u(b, a).u_statistic
            assert u_ab + u_ba == pytest.approx(63.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal(30)
            b = rng.standard_normal(40) + 0.5
            res = mann_whitney_u(a, b)
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert res.u_statistic == pytest.approx(ref.statistic)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestQuartiles:
    def test_hand_values(self):
        assert quartiles([1, 2, 3, 4, 5]) == (2.0, 4.0)

    def test_constant(self):
        assert quartiles([7.0] * 6) == (7.0, 7.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            quartiles([0.0, 1.0])
