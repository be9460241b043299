"""Tests for the SSPC objective function (Eq. 1-4)."""

import numpy as np
import pytest

from repro.core.objective import ObjectiveFunction, grouped_assignment_gains
from repro.core.thresholds import VarianceRatioThreshold


@pytest.fixture()
def simple_objective():
    """A hand-constructed dataset where expected scores are easy to reason about."""
    rng = np.random.default_rng(5)
    # 60 objects, 6 dimensions; objects 0-19 form a tight cluster on dims 0-1.
    data = rng.uniform(0, 100, size=(60, 6))
    data[:20, 0] = rng.normal(30, 1.0, size=20)
    data[:20, 1] = rng.normal(70, 1.0, size=20)
    return ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))


class TestClusterStatistics:
    def test_statistics_match_numpy(self, simple_objective):
        members = np.arange(20)
        stats = simple_objective.cluster_statistics(members)
        block = simple_objective.data[members]
        np.testing.assert_allclose(stats.mean, block.mean(axis=0))
        np.testing.assert_allclose(stats.median, np.median(block, axis=0))
        np.testing.assert_allclose(stats.variance, block.var(axis=0, ddof=1))
        assert stats.size == 20

    def test_empty_members(self, simple_objective):
        stats = simple_objective.cluster_statistics([])
        assert stats.size == 0
        assert np.all(stats.variance == 0)

    def test_singleton_has_zero_variance(self, simple_objective):
        stats = simple_objective.cluster_statistics([3])
        assert stats.size == 1
        assert np.all(stats.variance == 0)

    def test_dispersion_definition(self, simple_objective):
        members = np.arange(10)
        stats = simple_objective.cluster_statistics(members)
        expected = stats.variance + (stats.mean - stats.median) ** 2
        np.testing.assert_allclose(stats.dispersion(), expected)


class TestPhiScores:
    def test_relevant_dimensions_score_positive(self, simple_objective):
        scores = simple_objective.phi_ij_all(np.arange(20))
        assert scores[0] > 0
        assert scores[1] > 0

    def test_irrelevant_dimensions_score_negative(self, simple_objective):
        scores = simple_objective.phi_ij_all(np.arange(20))
        # Dimensions 2-5 carry no signal for this cluster; with m=0.5 their
        # dispersion is around the global variance, i.e. twice the threshold.
        assert np.mean(scores[2:] < 0) >= 0.75

    def test_better_dimension_contributes_more(self, simple_objective):
        # Shrinking the spread of a dimension increases its phi score
        # (design goal #2 of the objective).
        data = simple_objective.data.copy()
        data[:20, 2] = np.random.default_rng(0).normal(50, 0.1, size=20)
        tighter = ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))
        looser_scores = simple_objective.phi_ij_all(np.arange(20))
        tighter_scores = tighter.phi_ij_all(np.arange(20))
        assert tighter_scores[2] > looser_scores[2]

    def test_phi_ij_matches_eq4_formula(self, simple_objective):
        members = np.arange(20)
        stats = simple_objective.cluster_statistics(members)
        thresholds = simple_objective.threshold.values(stats.size)
        expected = (stats.size - 1) * (1.0 - stats.dispersion() / thresholds)
        np.testing.assert_allclose(simple_objective.phi_ij_all(members), expected)

    def test_eq3_with_median_close_to_eq4(self, simple_objective):
        # Eq. 3 and Eq. 4 differ only in how the mean-median offset is
        # weighted (n_i vs n_i - 1); with 20 members they nearly coincide.
        members = np.arange(20)
        eq3 = simple_objective.phi_ij_all_eq3(members)
        eq4 = simple_objective.phi_ij_all(members)
        np.testing.assert_allclose(eq3, eq4, rtol=0.15, atol=0.5)

    def test_eq3_with_custom_center(self, simple_objective):
        members = np.arange(20)
        center = simple_objective.data[0]
        scores = simple_objective.phi_ij_all_eq3(members, center=center)
        assert scores.shape == (simple_objective.n_dimensions,)

    def test_phi_i_sums_selected_dimensions(self, simple_objective):
        members = np.arange(20)
        scores = simple_objective.phi_ij_all(members)
        assert simple_objective.phi_i(members, [0, 1]) == pytest.approx(scores[0] + scores[1])

    def test_phi_i_empty_dimensions_is_zero(self, simple_objective):
        assert simple_objective.phi_i(np.arange(20), []) == 0.0

    def test_phi_normalised_by_n_times_d(self, simple_objective):
        members = np.arange(20)
        phi_i = simple_objective.phi_i(members, [0, 1])
        phi = simple_objective.phi([members], [[0, 1]])
        n, d = simple_objective.n_objects, simple_objective.n_dimensions
        assert phi == pytest.approx(phi_i / (n * d))

    def test_phi_requires_aligned_inputs(self, simple_objective):
        with pytest.raises(ValueError):
            simple_objective.phi([np.arange(5)], [[0], [1]])


def _one_cluster_gains(objective, representative, dims, cluster_size):
    """One column of the reference kernel, scored around ``representative``."""
    dims = np.asarray(dims, dtype=int)
    thresholds = objective.threshold.values(cluster_size)[dims]
    return grouped_assignment_gains(
        objective.data, [dims], [representative[dims]], [thresholds]
    )[:, 0]


class TestAssignmentGains:
    def test_cluster_members_gain_more_than_strangers(self, simple_objective):
        representative = np.median(simple_objective.data[:20], axis=0)
        gains = _one_cluster_gains(simple_objective, representative, [0, 1], 20)
        members_gain = gains[:20].mean()
        strangers_gain = gains[20:].mean()
        assert members_gain > strangers_gain
        assert members_gain > 0

    def test_empty_dimensions_never_win(self, simple_objective):
        representative = simple_objective.data[0]
        gains = _one_cluster_gains(simple_objective, representative, [], 10)
        assert np.all(np.isneginf(gains))

    def test_gain_formula(self, simple_objective):
        representative = simple_objective.data[0]
        dims = np.asarray([0, 3])
        gains = _one_cluster_gains(simple_objective, representative, dims, 10)
        thresholds = simple_objective.threshold.values(10)[dims]
        deltas = simple_objective.data[:, dims] - representative[dims]
        expected = (1.0 - deltas**2 / thresholds).sum(axis=1)
        np.testing.assert_allclose(gains, expected)

    def test_wrong_representative_length_rejected(self, simple_objective):
        with pytest.raises(ValueError):
            grouped_assignment_gains(
                simple_objective.data, [np.asarray([0])], [np.zeros(3)], [np.ones(1)]
            )


class TestConstruction:
    def test_unfitted_threshold_is_fitted_on_data(self):
        data = np.random.default_rng(1).normal(size=(30, 4))
        objective = ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))
        assert objective.threshold.is_fitted

    def test_mismatched_prefitted_threshold_rejected(self):
        rng = np.random.default_rng(2)
        threshold = VarianceRatioThreshold(m=0.5).fit(rng.normal(size=(30, 3)))
        with pytest.raises(ValueError):
            ObjectiveFunction(rng.normal(size=(30, 5)), threshold)
