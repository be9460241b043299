"""Tests for the selection-threshold schemes (Section 4.1)."""

import numpy as np
import pytest
from scipy import stats

from repro.core.thresholds import (
    ChiSquareThreshold,
    VarianceRatioThreshold,
    chi_square_quantile,
    make_threshold,
)

#: ``seed_selection_p`` (0.01), the paper's 0.01-0.2 range and the extremes
#: of the open interval, down to the smallest subnormal.
ORACLE_P = (
    5e-324, 1e-300, 1e-12, 1e-6, 1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2,
    0.5, 0.9, 1 - 1e-12, float(np.nextafter(1.0, 0.0)),
)
#: Every degree of freedom up to 3000, then every 7th up to 60,000.
ORACLE_DOF = np.concatenate([np.arange(1, 3001), np.arange(3001, 60001, 7)])


@pytest.fixture()
def data(rng):
    return rng.uniform(0, 100, size=(200, 10))


class TestVarianceRatioThreshold:
    def test_values_are_m_times_global_variance(self, data):
        threshold = VarianceRatioThreshold(m=0.4).fit(data)
        expected = 0.4 * data.var(axis=0, ddof=1)
        np.testing.assert_allclose(threshold.values(cluster_size=30), expected)

    def test_independent_of_cluster_size(self, data):
        threshold = VarianceRatioThreshold(m=0.5).fit(data)
        np.testing.assert_allclose(threshold.values(5), threshold.values(500))

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            VarianceRatioThreshold(m=0.0)
        with pytest.raises(ValueError):
            VarianceRatioThreshold(m=1.5)

    def test_m_of_one_equals_global_variance(self, data):
        threshold = VarianceRatioThreshold(m=1.0).fit(data)
        np.testing.assert_allclose(threshold.values(10), data.var(axis=0, ddof=1))

    def test_describe(self):
        assert VarianceRatioThreshold(m=0.3).describe() == {"scheme": "m", "m": 0.3}


class TestChiSquareThreshold:
    def test_matches_chi_square_quantile(self, data):
        p = 0.05
        cluster_size = 25
        threshold = ChiSquareThreshold(p=p).fit(data)
        factor = stats.chi2.ppf(p, cluster_size - 1) / (cluster_size - 1)
        expected = factor * data.var(axis=0, ddof=1)
        np.testing.assert_allclose(threshold.values(cluster_size), expected)

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_values_are_bit_identical_to_scipy_stats(self, data, p):
        """The ``scipy.special`` quantile changes no bit of any threshold."""
        variance = data.var(axis=0, ddof=1)
        threshold = ChiSquareThreshold(p=p).fit(data)
        sizes = ORACLE_DOF + 1
        ours = np.stack([threshold.values(int(size)) for size in sizes])
        factors = stats.chi2.ppf(p, sizes - 1) / (sizes - 1)
        expected = factors[:, None] * variance[None, :]
        assert np.array_equal(ours, expected)
        # The scalar reference at a few sizes, as the threshold computes it.
        for size in (2, 3, 26, 3001, 59998):
            assert np.array_equal(
                threshold.values(size), stats.chi2.ppf(p, size - 1) / (size - 1) * variance
            )

    @pytest.mark.parametrize("p", ORACLE_P)
    def test_quantile_is_bit_identical_to_scipy_stats(self, p):
        ours = np.array([chi_square_quantile(p, int(dof)) for dof in ORACLE_DOF])
        assert np.array_equal(ours, stats.chi2.ppf(p, ORACLE_DOF))

    def test_false_selection_rate_close_to_p_for_gaussian_globals(self, rng):
        # Monte-Carlo check of the defining property: an irrelevant dimension
        # (a random Gaussian sample) passes the criterion with probability ~p.
        p = 0.05
        n_population = 5000
        cluster_size = 30
        population = rng.normal(0, 3.0, size=(n_population, 1))
        threshold = ChiSquareThreshold(p=p).fit(population)
        passes = 0
        trials = 2000
        cutoff = threshold.values(cluster_size)[0]
        for _ in range(trials):
            sample = rng.choice(population[:, 0], size=cluster_size, replace=False)
            if sample.var(ddof=1) < cutoff:
                passes += 1
        rate = passes / trials
        assert abs(rate - p) < 0.03

    def test_threshold_grows_with_cluster_size(self, data):
        threshold = ChiSquareThreshold(p=0.01).fit(data)
        small = threshold.values(5)[0]
        large = threshold.values(100)[0]
        # chi2.ppf(p, dof)/dof increases towards 1 as dof grows (for p < 0.5).
        assert small < large

    def test_degenerate_cluster_size_uses_min_dof(self, data):
        threshold = ChiSquareThreshold(p=0.05, min_degrees_of_freedom=2).fit(data)
        np.testing.assert_allclose(threshold.values(0), threshold.values(3))

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            ChiSquareThreshold(p=0.0)
        with pytest.raises(ValueError):
            ChiSquareThreshold(p=1.0)


class TestSharedBehaviour:
    def test_unfitted_threshold_raises(self):
        with pytest.raises(RuntimeError):
            VarianceRatioThreshold(m=0.5).values(10)

    def test_fit_requires_two_rows(self):
        with pytest.raises(ValueError):
            VarianceRatioThreshold(m=0.5).fit([[1.0, 2.0]])

    def test_fit_from_variance(self):
        threshold = VarianceRatioThreshold(m=0.5).fit_from_variance([4.0, 16.0])
        np.testing.assert_allclose(threshold.values(10), [2.0, 8.0])

    def test_constant_column_does_not_produce_zero_threshold(self):
        data = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        threshold = VarianceRatioThreshold(m=0.5).fit(data)
        assert np.all(threshold.values(10) > 0)

    def test_value_scalar_accessor(self, data):
        threshold = VarianceRatioThreshold(m=0.5).fit(data)
        assert threshold.value(10, 3) == pytest.approx(threshold.values(10)[3])

    def test_make_threshold_dispatch(self):
        assert isinstance(make_threshold(m=0.5), VarianceRatioThreshold)
        assert isinstance(make_threshold(p=0.01), ChiSquareThreshold)

    def test_make_threshold_requires_exactly_one(self):
        with pytest.raises(ValueError):
            make_threshold()
        with pytest.raises(ValueError):
            make_threshold(m=0.5, p=0.01)
