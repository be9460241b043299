"""Integration tests for the SSPC estimator (Listing 2)."""

import numpy as np
import pytest

from repro.core.model import ClusteringResult
from repro.core.sspc import SSPC
from repro.evaluation import adjusted_rand_index, dimension_selection_scores
from repro.semisupervision.knowledge import Knowledge
from repro.semisupervision.sampling import sample_knowledge


class TestUnsupervisedClustering:
    def test_recovers_easy_clusters(self, small_dataset):
        model = SSPC(n_clusters=3, m=0.5, random_state=0).fit(small_dataset.data)
        assert adjusted_rand_index(small_dataset.labels, model.labels_) > 0.8

    def test_recovers_relevant_dimensions(self, small_dataset):
        model = SSPC(n_clusters=3, m=0.5, random_state=0).fit(small_dataset.data)
        scores = dimension_selection_scores(
            small_dataset.relevant_dimensions, model.selected_dimensions_
        )
        assert scores.recall > 0.6
        assert scores.precision > 0.6

    def test_p_scheme_also_works(self, small_dataset):
        model = SSPC(n_clusters=3, p=0.01, random_state=0).fit(small_dataset.data)
        assert adjusted_rand_index(small_dataset.labels, model.labels_) > 0.7

    def test_result_object_consistency(self, small_dataset):
        model = SSPC(n_clusters=3, m=0.5, random_state=1).fit(small_dataset.data)
        result = model.result_
        assert isinstance(result, ClusteringResult)
        assert result.n_clusters == 3
        assert result.n_objects == small_dataset.n_objects
        np.testing.assert_array_equal(result.labels(), model.labels_)
        assert result.algorithm == "SSPC"
        assert np.isfinite(result.objective)
        assert result.objective == pytest.approx(model.objective_)

    def test_fit_predict_matches_labels(self, tiny_dataset):
        model = SSPC(n_clusters=3, m=0.5, random_state=5)
        labels = model.fit_predict(tiny_dataset.data)
        np.testing.assert_array_equal(labels, model.labels_)

    def test_reproducible_with_seed(self, tiny_dataset):
        first = SSPC(n_clusters=3, m=0.5, random_state=7).fit_predict(tiny_dataset.data)
        second = SSPC(n_clusters=3, m=0.5, random_state=7).fit_predict(tiny_dataset.data)
        np.testing.assert_array_equal(first, second)

    def test_outliers_detected_on_contaminated_data(self, outlier_dataset):
        model = SSPC(n_clusters=3, m=0.5, random_state=3).fit(outlier_dataset.data)
        detected = int(np.count_nonzero(model.labels_ == -1))
        true = outlier_dataset.n_outliers
        # The detected amount should resemble the actual amount (Section 5.2).
        assert detected > 0
        assert detected < 3 * true


class TestSemiSupervisedClustering:
    def test_knowledge_improves_low_dimensional_case(self, low_dim_dataset):
        raw = SSPC(n_clusters=5, m=0.5, random_state=4).fit(low_dim_dataset.data)
        raw_ari = adjusted_rand_index(low_dim_dataset.labels, raw.labels_)

        knowledge = sample_knowledge(
            low_dim_dataset.labels,
            low_dim_dataset.relevant_dimensions,
            category="both",
            input_size=5,
            coverage=1.0,
            random_state=4,
        )
        guided = SSPC(n_clusters=5, m=0.5, random_state=4).fit(low_dim_dataset.data, knowledge)
        stripped = guided.result_.without_objects(knowledge.labeled_object_indices())
        guided_ari = adjusted_rand_index(low_dim_dataset.labels, stripped.labels())
        assert guided_ari > raw_ari
        assert guided_ari > 0.6

    def test_labeled_dimensions_only(self, low_dim_dataset):
        knowledge = sample_knowledge(
            low_dim_dataset.labels,
            low_dim_dataset.relevant_dimensions,
            category="dimensions",
            input_size=5,
            coverage=1.0,
            random_state=8,
        )
        model = SSPC(n_clusters=5, m=0.5, random_state=8).fit(low_dim_dataset.data, knowledge)
        assert adjusted_rand_index(low_dim_dataset.labels, model.labels_) > 0.6

    def test_partial_coverage_accepted(self, low_dim_dataset):
        knowledge = sample_knowledge(
            low_dim_dataset.labels,
            low_dim_dataset.relevant_dimensions,
            category="both",
            input_size=4,
            coverage=0.6,
            random_state=9,
        )
        model = SSPC(n_clusters=5, m=0.5, random_state=9).fit(low_dim_dataset.data, knowledge)
        assert model.result_.n_clusters == 5

    def test_labeled_objects_stay_in_their_cluster(self, small_dataset):
        members = np.flatnonzero(small_dataset.labels == 2)[:3]
        knowledge = Knowledge.from_pairs(object_pairs=[(int(o), 2) for o in members])
        model = SSPC(n_clusters=3, m=0.5, random_state=1).fit(small_dataset.data, knowledge)
        assert np.all(model.labels_[members] == 2)

    def test_knowledge_validated_against_shape(self, tiny_dataset):
        bad = Knowledge.from_pairs(object_pairs=[(10_000, 0)])
        with pytest.raises(ValueError):
            SSPC(n_clusters=3, random_state=0).fit(tiny_dataset.data, bad)

    def test_knowledge_class_outside_k_rejected(self, tiny_dataset):
        bad = Knowledge.from_pairs(object_pairs=[(0, 7)])
        with pytest.raises(ValueError):
            SSPC(n_clusters=3, random_state=0).fit(tiny_dataset.data, bad)


class TestParameters:
    def test_m_and_p_mutually_exclusive(self):
        with pytest.raises(ValueError):
            SSPC(n_clusters=3, m=0.5, p=0.01)

    def test_default_threshold_is_m_half(self):
        assert SSPC(n_clusters=3).get_params()["m"] == 0.5

    def test_invalid_parameters_fail_at_construction(self):
        with pytest.raises(ValueError):
            SSPC(n_clusters=0)
        with pytest.raises(ValueError):
            SSPC(n_clusters=3, m=2.0)
        with pytest.raises(ValueError):
            SSPC(n_clusters=3, p=1.5)

    def test_k_larger_than_n_rejected(self):
        data = np.random.default_rng(0).normal(size=(5, 4))
        with pytest.raises(ValueError):
            SSPC(n_clusters=10, random_state=0).fit(data)

    def test_get_params_round_trip(self):
        model = SSPC(n_clusters=4, p=0.05, max_iterations=10)
        params = model.get_params()
        assert params == {"n_clusters": 4, "p": 0.05, "max_iterations": 10}
        assert SSPC(**params).get_params() == params

    def test_max_iterations_bounds_work(self, tiny_dataset):
        model = SSPC(n_clusters=3, m=0.5, max_iterations=2, random_state=0)
        model.fit(tiny_dataset.data)
        assert model.n_iterations_ <= 2

    def test_robust_across_m_values(self, small_dataset):
        """Figure 4's claim: accuracy stays high across a wide m range."""
        for m in (0.3, 0.5, 0.7):
            model = SSPC(n_clusters=3, m=m, random_state=0).fit(small_dataset.data)
            assert adjusted_rand_index(small_dataset.labels, model.labels_) > 0.7
