import re

import numpy as np
import pytest

from rpforest.stats import student_t_two_sided_pvalue, two_sample_ttest


def permutation_test(a, b, n_resamples=100_000, seed=0):
    """Independent oracle: two-sided permutation test on the mean difference."""
    rng = np.random.default_rng(seed)
    pooled = np.concatenate([a, b])
    observed = abs(np.mean(a) - np.mean(b))
    na = len(a)
    hits = 0
    for _ in range(n_resamples):
        rng.shuffle(pooled)
        if abs(pooled[:na].mean() - pooled[na:].mean()) >= observed:
            hits += 1
    return hits / n_resamples


class TestIdenticalMeans:
    def test_elementwise_equal(self):
        result = two_sample_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.identical_means
        assert result.statistic is None and result.p_value is None

    def test_permuted_samples(self):
        result = two_sample_ttest([1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 3.0, 2.0])
        assert result.identical_means

    def test_constant_equal_samples(self):
        result = two_sample_ttest([2.0, 2.0], [2.0, 2.0])
        assert result.identical_means


class TestValidation:
    def test_sample_too_small(self):
        with pytest.raises(ValueError):
            two_sample_ttest([1.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([1.0, np.nan], [2.0, 3.0], "sample a holds a non-finite value: nan"),
            ([1.0, 2.0], [np.inf, 3.0], "sample b holds a non-finite value: inf"),
            ([-np.inf, 1.0], [np.nan, 2.0], "sample a holds a non-finite value: -inf"),
        ],
    )
    def test_non_finite_sample_rejected(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            two_sample_ttest(a, b)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([10**400, 1], [1, 2], "sample a must be real numbers: int too large to convert to float"),
            ([1, 2], [1, {}], "sample b must be real numbers: float() argument must be"),
            ([1, 2], ["x", 2], "sample b must be real numbers: could not convert string to float: 'x'"),
            ([1j, 2], [1, 2], "sample a must be real, got complex values"),
            (["1", "2"], ["3", "5"], "sample a must be real numbers: could not convert string to float: '1'"),
        ],
        ids=["beyond-float64", "dict", "word", "complex", "numeric-strings"],
    )
    def test_non_numeric_sample_named(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            two_sample_ttest(a, b)

    def test_zero_variance_different_means(self):
        # both samples constant: the limit of the test, not an error
        below = two_sample_ttest([1.0, 1.0], [2.0, 2.0, 2.0])
        above = two_sample_ttest([2.0, 2.0, 2.0], [1.0, 1.0])
        assert (below.statistic, below.p_value, below.identical_means) == (-np.inf, 0.0, False)
        assert (above.statistic, above.p_value) == (np.inf, 0.0)


class TestTTest:
    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=30)
        b = rng.normal(0.0, 1.0, size=30)
        result = two_sample_ttest(a, b)
        p_perm = permutation_test(a, b)
        assert abs(result.p_value - p_perm) < 0.05

    def test_matches_scipy(self):
        from scipy import stats as sps

        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=rng.integers(5, 40))
            b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(5, 40))
            ours = two_sample_ttest(a, b)
            ref = sps.ttest_ind(a, b)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-10)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=12)
        b = rng.normal(0.3, size=12)
        ab = two_sample_ttest(a, b)
        ba = two_sample_ttest(b, a)
        assert ab.statistic == pytest.approx(-ba.statistic, abs=1e-12)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)

    def test_shift_decreases_pvalue(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=20)
        base = rng.normal(size=20)
        pvalues = [two_sample_ttest(a, base + delta).p_value for delta in (1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(pvalues, pvalues[1:]))

    def test_pvalue_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            result = two_sample_ttest(a, b)
            if not result.identical_means:
                assert 0.0 <= result.p_value <= 1.0


class TestTCdf:
    def test_published_critical_values(self):
        # two-sided p at the 97.5% critical value is 0.05 (standard t tables)
        table = {
            1: 12.7062047362,
            2: 4.30265272991,
            5: 2.57058183661,
            10: 2.22813885196,
            30: 2.04227245630,
        }
        for df, t_crit in table.items():
            assert student_t_two_sided_pvalue(t_crit, df) == pytest.approx(0.05, abs=1e-9)

    @pytest.mark.parametrize("df", [0, -1.5])
    def test_non_positive_df_rejected(self, df):
        with pytest.raises(ValueError, match="df must be positive"):
            student_t_two_sided_pvalue(1.0, df)

    def test_zero_statistic(self):
        assert student_t_two_sided_pvalue(0.0, 7) == pytest.approx(1.0, abs=1e-12)
