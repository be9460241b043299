"""Tests for the knowledge-requirement analysis (Figures 1-2 closed forms)."""

import numpy as np
import pytest

from repro.core.analysis import (
    grid_success_probability_labeled_dimensions,
    grid_success_probability_labeled_objects,
    relevant_dimension_retention_probability,
)
from repro.experiments.knowledge_analysis import run_figure1, run_figure2


class TestRetentionProbability:
    def test_bounds(self):
        value = relevant_dimension_retention_probability(5, p=0.01, variance_ratio=0.15)
        assert 0.0 <= value <= 1.0

    def test_zero_below_two_objects(self):
        assert relevant_dimension_retention_probability(1, p=0.01, variance_ratio=0.15) == 0.0

    def test_monotone_in_input_size(self):
        values = [
            relevant_dimension_retention_probability(n, p=0.01, variance_ratio=0.15)
            for n in (2, 3, 5, 10, 20)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_smaller_variance_ratio_retains_more(self):
        tight = relevant_dimension_retention_probability(5, p=0.01, variance_ratio=0.05)
        loose = relevant_dimension_retention_probability(5, p=0.01, variance_ratio=0.5)
        assert tight > loose


class TestLabeledObjectsProbability:
    def test_probability_bounds(self):
        for size in (0, 1, 2, 5, 10, 50):
            value = grid_success_probability_labeled_objects(size, relevant_fraction=0.05)
            assert 0.0 <= value <= 1.0

    def test_monotone_in_input_size(self):
        values = [
            grid_success_probability_labeled_objects(size, relevant_fraction=0.05)
            for size in range(0, 21)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_monotone_in_relevant_fraction(self):
        low = grid_success_probability_labeled_objects(5, relevant_fraction=0.01)
        high = grid_success_probability_labeled_objects(5, relevant_fraction=0.10)
        assert high >= low

    def test_paper_headline_five_inputs_at_five_percent(self):
        """The paper: at di/d = 5%, five labeled objects give ~100% success."""
        value = grid_success_probability_labeled_objects(5, relevant_fraction=0.05)
        assert value > 0.9

    def test_sharp_rise_then_plateau(self):
        """Each curve rises sharply then flattens (Section 4.5)."""
        values = np.asarray(
            [
                grid_success_probability_labeled_objects(size, relevant_fraction=0.05)
                for size in range(0, 21)
            ]
        )
        increments = np.diff(values)
        # The largest increment happens early and the tail is nearly flat.
        assert int(np.argmax(increments)) <= 6
        assert np.all(increments[-5:] < 0.02)

    def test_more_grids_help(self):
        few = grid_success_probability_labeled_objects(4, relevant_fraction=0.02, n_grids=5)
        many = grid_success_probability_labeled_objects(4, relevant_fraction=0.02, n_grids=50)
        assert many >= few

    def test_agrees_with_monte_carlo(self):
        result = run_figure1(
            input_sizes=[5, 10],
            relevant_fractions=[0.05],
            monte_carlo_trials=400,
            random_state=0,
        )
        simulated = result.monte_carlo[0.05]
        closed_form = result.probabilities[0]
        np.testing.assert_allclose(closed_form, simulated, atol=0.12)


class TestLabeledDimensionsProbability:
    def test_zero_when_not_enough_labeled_dimensions(self):
        assert grid_success_probability_labeled_dimensions(2, grid_dimensions=3) == 0.0

    def test_monotone_in_input_size(self):
        values = [
            grid_success_probability_labeled_dimensions(size, relevant_fraction=0.05)
            for size in range(3, 21)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_labeled_dimensions_better_at_low_dimensionality(self):
        """Figure 2's phenomenon: labeled dimensions work best when di/d is small."""
        low = grid_success_probability_labeled_dimensions(5, relevant_fraction=0.01)
        high = grid_success_probability_labeled_dimensions(5, relevant_fraction=0.10)
        assert low >= high

    def test_complementarity_of_input_kinds_at_one_percent(self):
        """At di/d = 1% labeled dimensions beat labeled objects for small inputs."""
        objects = grid_success_probability_labeled_objects(3, relevant_fraction=0.01)
        dimensions = grid_success_probability_labeled_dimensions(3, relevant_fraction=0.01)
        assert dimensions > objects

    def test_more_clusters_reduce_exclusivity(self):
        few = grid_success_probability_labeled_dimensions(5, relevant_fraction=0.05, n_clusters=2)
        many = grid_success_probability_labeled_dimensions(5, relevant_fraction=0.05, n_clusters=20)
        assert few >= many


class TestCurveHelpers:
    """The Figure 1 and 2 runners: rows follow the fractions, columns the sizes."""

    def test_objects_curve_shape(self):
        matrix = run_figure1([0, 5, 10], [0.01, 0.05]).probabilities
        assert matrix.shape == (2, 3)
        assert np.all((matrix >= 0) & (matrix <= 1))
        assert matrix[1, 2] == grid_success_probability_labeled_objects(10, relevant_fraction=0.05)

    def test_dimensions_curve_shape(self):
        matrix = run_figure2([3, 5], [0.01, 0.05, 0.10]).probabilities
        assert matrix.shape == (3, 2)
        assert np.all((matrix >= 0) & (matrix <= 1))
        assert matrix[2, 0] == grid_success_probability_labeled_dimensions(
            3, relevant_fraction=0.10
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            grid_success_probability_labeled_objects(5, relevant_fraction=0.0)
        with pytest.raises(ValueError):
            grid_success_probability_labeled_objects(5, p=0.0)
