"""Tests for the auxiliary evaluation metrics."""

import numpy as np
import pytest

from repro.evaluation.ari import adjusted_rand_index, hubert_arabie_ari
from repro.evaluation.metrics import (
    clustering_report,
    dimension_selection_scores,
    normalized_mutual_information,
    outlier_detection_scores,
    purity,
)


@pytest.mark.parametrize(
    "metric",
    [
        adjusted_rand_index,
        hubert_arabie_ari,
        purity,
        normalized_mutual_information,
        outlier_detection_scores,
    ],
)
@pytest.mark.parametrize("true, predicted", [([0, 0, 1, 1], [0, 0]), ([0, 0], [0, 0, 1, 1])])
def test_label_vectors_of_different_lengths_rejected(metric, true, predicted):
    with pytest.raises(ValueError, match="different lengths"):
        metric(true, predicted)


class TestPurityAndNmi:
    def test_perfect_purity(self):
        assert purity([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_mixed_cluster_purity(self):
        assert purity([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.5)

    def test_purity_outliers_are_singletons(self):
        assert purity([0, 1], [-1, -1]) == pytest.approx(1.0)

    def test_nmi_identical_partitions(self):
        assert normalized_mutual_information([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_nmi_independent_partitions_low(self):
        rng = np.random.default_rng(3)
        true = np.repeat(np.arange(4), 100)
        pred = rng.integers(0, 4, size=400)
        assert normalized_mutual_information(true, pred) < 0.1

    def test_nmi_bounds(self):
        rng = np.random.default_rng(5)
        true = rng.integers(0, 3, size=60)
        pred = rng.integers(-1, 3, size=60)
        value = normalized_mutual_information(true, pred)
        assert -1e-9 <= value <= 1.0 + 1e-9


class TestDimensionSelectionScores:
    def test_perfect_recovery(self):
        truth = [[0, 1, 2], [3, 4]]
        scores = dimension_selection_scores(truth, truth)
        assert scores.precision == pytest.approx(1.0)
        assert scores.recall == pytest.approx(1.0)
        assert scores.f1 == pytest.approx(1.0)

    def test_partial_recovery(self):
        truth = [[0, 1, 2, 3]]
        predicted = [[0, 1, 9]]
        scores = dimension_selection_scores(truth, predicted)
        assert scores.precision == pytest.approx(2 / 3)
        assert scores.recall == pytest.approx(0.5)

    def test_matching_by_jaccard_handles_permuted_clusters(self):
        truth = [[0, 1], [5, 6]]
        predicted = [[5, 6], [0, 1]]  # clusters reported in the other order
        scores = dimension_selection_scores(truth, predicted)
        assert scores.f1 == pytest.approx(1.0)

    def test_explicit_matching(self):
        truth = [[0, 1], [5, 6]]
        predicted = [[0, 1], [5, 6]]
        scores = dimension_selection_scores(truth, predicted, matching=[1, 0])
        assert scores.recall < 1.0

    def test_empty_prediction(self):
        scores = dimension_selection_scores([[0, 1]], [[]])
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_wrong_matching_length_rejected(self):
        with pytest.raises(ValueError):
            dimension_selection_scores([[0]], [[0]], matching=[0, 1])


class TestOutlierScores:
    def test_perfect_detection(self):
        true = [0, 0, -1, 1, -1]
        scores = outlier_detection_scores(true, true)
        assert scores.precision == pytest.approx(1.0)
        assert scores.recall == pytest.approx(1.0)
        assert scores.n_true_outliers == 2

    def test_no_outliers_anywhere(self):
        scores = outlier_detection_scores([0, 1], [1, 0])
        assert scores.precision == pytest.approx(1.0)
        assert scores.recall == pytest.approx(1.0)

    def test_false_positives_lower_precision(self):
        scores = outlier_detection_scores([0, 0, 0, 0], [0, 0, -1, -1])
        assert scores.precision == pytest.approx(0.0)

    def test_missed_outliers_lower_recall(self):
        scores = outlier_detection_scores([-1, -1, 0, 0], [-1, 0, 0, 0])
        assert scores.recall == pytest.approx(0.5)


class TestClusteringReport:
    def test_contains_expected_keys(self):
        report = clustering_report(
            [0, 0, 1, 1],
            [0, 0, 1, -1],
            true_dimensions=[[0], [1]],
            predicted_dimensions=[[0], [1, 2]],
        )
        for key in ("ari", "purity", "nmi", "outlier_precision", "dimension_f1"):
            assert key in report

    def test_dimension_scores_omitted_without_inputs(self):
        report = clustering_report([0, 1], [0, 1])
        assert "dimension_f1" not in report
