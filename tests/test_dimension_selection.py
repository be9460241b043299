"""Tests for SelectDim (Lemma 1) including a property-based check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dimension_selection import select_dimensions, selection_margin
from repro.core.objective import ObjectiveFunction
from repro.core.thresholds import ChiSquareThreshold, VarianceRatioThreshold


@pytest.fixture()
def structured_objective():
    rng = np.random.default_rng(11)
    data = rng.uniform(0, 100, size=(120, 12))
    # cluster: objects 0-39 tight on dimensions 0, 1, 2
    for dim, center in zip((0, 1, 2), (20, 50, 80)):
        data[:40, dim] = rng.normal(center, 1.5, size=40)
    return ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))


class TestSelectDim:
    def test_recovers_relevant_dimensions(self, structured_objective):
        selected = select_dimensions(structured_objective, np.arange(40))
        assert {0, 1, 2}.issubset(set(selected.tolist()))

    def test_does_not_select_everything(self, structured_objective):
        selected = select_dimensions(structured_objective, np.arange(40))
        assert selected.size < structured_objective.n_dimensions

    def test_matches_lemma1_criterion_exactly(self, structured_objective):
        members = np.arange(40)
        selected = set(select_dimensions(structured_objective, members).tolist())
        dispersion, thresholds = selection_margin(structured_objective, members)
        expected = set(np.flatnonzero(dispersion < thresholds).tolist())
        assert selected == expected

    def test_selecting_lemma1_set_maximises_phi(self, structured_objective):
        # Lemma 1: the SelectDim output maximises phi_i over all dimension
        # subsets.  Compare against random subsets.
        members = np.arange(40)
        best = structured_objective.phi_i(members, select_dimensions(structured_objective, members))
        rng = np.random.default_rng(0)
        for _ in range(25):
            size = int(rng.integers(1, structured_objective.n_dimensions + 1))
            subset = rng.choice(structured_objective.n_dimensions, size=size, replace=False)
            assert structured_objective.phi_i(members, subset) <= best + 1e-9

    def test_forced_dimensions_always_included(self, structured_objective):
        selected = select_dimensions(structured_objective, np.arange(40), forced_dimensions=[7])
        assert 7 in selected

    def test_small_member_set_returns_forced_only(self, structured_objective):
        selected = select_dimensions(structured_objective, [3], forced_dimensions=[1, 2])
        np.testing.assert_array_equal(selected, [1, 2])

    def test_empty_member_set(self, structured_objective):
        assert select_dimensions(structured_objective, []).size == 0

    def test_threshold_override_is_stricter(self, structured_objective):
        members = np.arange(40)
        default = select_dimensions(structured_objective, members)
        strict = select_dimensions(
            structured_objective, members, threshold=ChiSquareThreshold(p=0.001)
        )
        assert set(strict.tolist()).issubset(set(default.tolist()))

    def test_whole_dataset_selects_nothing(self, structured_objective):
        # The full dataset has (close to) the global variance along every
        # dimension, so no dimension should pass an m < 1 criterion.
        selected = select_dimensions(structured_objective, np.arange(structured_objective.n_objects))
        assert selected.size <= 1


class TestSelectDimProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.floats(0.2, 0.9))
    def test_lemma1_consistency_random_clusters(self, seed, m):
        """For random member sets, SelectDim equals the Lemma-1 rule."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(60, 8)) * rng.uniform(0.5, 3.0, size=8)
        objective = ObjectiveFunction(data, VarianceRatioThreshold(m=m))
        members = rng.choice(60, size=int(rng.integers(2, 30)), replace=False)
        selected = set(select_dimensions(objective, members).tolist())
        stats = objective.cluster_statistics(members)
        thresholds = objective.threshold.values(stats.size)
        expected = set(np.flatnonzero(stats.dispersion() < thresholds).tolist())
        assert selected == expected


class TestSelectionMarginAgreesWithSelectDim:
    @pytest.mark.parametrize(
        "threshold", [VarianceRatioThreshold(m=0.5), ChiSquareThreshold(p=0.01)], ids=["m", "p"]
    )
    @pytest.mark.parametrize("size", [0, 1, 2, 50])
    def test_margin_passes_exactly_the_selected_dimensions(self, threshold, size):
        data = np.random.default_rng(13).normal(size=(50, 6))
        objective = ObjectiveFunction(data, threshold)
        members = np.arange(size)
        dispersion, thresholds = selection_margin(objective, members)
        np.testing.assert_array_equal(
            np.flatnonzero(dispersion < thresholds), select_dimensions(objective, members)
        )

    @pytest.mark.parametrize("members", [[], [4]])
    def test_below_two_members_no_dimension_passes(self, structured_objective, members):
        dispersion, thresholds = selection_margin(structured_objective, members)
        assert np.all(np.isposinf(dispersion))
        assert thresholds.shape == dispersion.shape == (structured_objective.n_dimensions,)
