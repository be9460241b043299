"""Tests of the ProjectedClusterIndex inference engine."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.model import OUTLIER_LABEL
from repro.serving.artifact import ClusterModel, ModelArtifact, load_artifact
from repro.serving.index import ProjectedClusterIndex


@pytest.fixture()
def artifact(fitted_sspc):
    return fitted_sspc.to_artifact()


@pytest.fixture()
def index(artifact):
    return ProjectedClusterIndex(artifact)


@pytest.fixture()
def query_points(small_dataset, rng):
    """A mixed batch: on-cluster points (jittered members) plus noise."""
    data = small_dataset.data
    near = data[rng.choice(data.shape[0], size=60, replace=False)]
    near = near + rng.normal(scale=0.01, size=near.shape)
    noise = rng.normal(
        loc=data.mean(axis=0), scale=3 * data.std(axis=0), size=(40, data.shape[1])
    )
    return np.vstack([near, noise])


class TestBatchSingleEquivalence:
    def test_gains_bit_identical(self, index, query_points):
        batch = index.gains_matrix(query_points)
        single = np.stack([index.gains_single(point) for point in query_points])
        assert np.array_equal(batch, single)

    def test_all_center_modes_agree_between_paths(self, artifact, query_points):
        # The median is the only center; batch and single paths agree on
        # it before and after a fold moves it.
        idx = ProjectedClusterIndex(artifact)
        for _ in range(2):
            batch = idx.gains_matrix(query_points)
            single = np.stack([idx.gains_single(p) for p in query_points])
            assert np.array_equal(batch, single)
            idx.partial_update(query_points)

    def test_labels_bit_identical(self, index, query_points):
        batch = index.predict(query_points)
        single = np.asarray([index.predict_one(point) for point in query_points])
        np.testing.assert_array_equal(batch, single)

    def test_predict_is_deterministic(self, index, query_points):
        first = index.predict(query_points)
        second = index.predict(query_points.copy())
        np.testing.assert_array_equal(first, second)


class TestOutlierGating:
    def test_far_points_are_outliers(self, small_dataset, index, rng):
        far = small_dataset.data.max() + 1e3 + rng.uniform(
            0, 10, size=(25, small_dataset.n_dimensions)
        )
        labels = index.predict(far)
        assert np.all(labels == OUTLIER_LABEL)
        np.testing.assert_array_equal(index.outliers(far), np.arange(25))

    def test_near_member_points_are_assigned(self, small_dataset, index, rng):
        members = rng.choice(small_dataset.data.shape[0], size=30, replace=False)
        jittered = small_dataset.data[members] + rng.normal(
            scale=1e-3, size=(30, small_dataset.n_dimensions)
        )
        labels = index.predict(jittered)
        assert np.count_nonzero(labels != OUTLIER_LABEL) > 0

    def test_gate_matches_gain_sign(self, index, query_points):
        gains = index.gains_matrix(query_points)
        labels = index.predict(query_points)
        best = gains.max(axis=1)
        np.testing.assert_array_equal(labels == OUTLIER_LABEL, ~(best > 0.0))


class TestTopAssignments:
    def test_ordering_and_consistency(self, index, query_points):
        labels, clusters, gains = index.top_assignments(query_points, 2)
        assert clusters.shape == gains.shape == (query_points.shape[0], 2)
        assert np.all(gains[:, 0] >= gains[:, 1])
        full = index.gains_matrix(query_points)
        np.testing.assert_array_equal(gains[:, 0], full.max(axis=1))
        np.testing.assert_array_equal(labels, index.predict(query_points))

    def test_padding_beyond_n_clusters(self, index, query_points):
        _, clusters, gains = index.top_assignments(query_points, index.n_clusters + 2)
        assert clusters.shape[1] == index.n_clusters + 2
        assert np.all(clusters[:, -2:] == OUTLIER_LABEL)
        assert np.all(np.isneginf(gains[:, -2:]))

    def test_top_m_must_be_positive(self, index, query_points):
        with pytest.raises(ValueError, match="top_m"):
            index.top_assignments(query_points, 0)


class TestPartialUpdate:
    def test_matches_from_scratch_rebuild(self, small_dataset, fitted_sspc, index, query_points):
        labels = index.partial_update(query_points)
        for i, cluster in enumerate(fitted_sspc.result_.clusters):
            accepted = query_points[labels == i]
            block = np.vstack([small_dataset.data[cluster.members], accepted])
            stats = index.cluster_statistics(i)
            assert stats.size == block.shape[0]
            np.testing.assert_allclose(stats.mean, block.mean(axis=0), rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                stats.variance, block.var(axis=0, ddof=1), rtol=1e-9, atol=1e-12
            )
            # The median over the selected dimensions is maintained exactly
            # (same multiset of values as the from-scratch pass).
            np.testing.assert_array_equal(
                stats.median_selected, np.median(block[:, stats.dimensions], axis=0)
            )

    def test_outliers_are_not_absorbed(self, small_dataset, index, rng):
        sizes_before = index.cluster_sizes()
        far = small_dataset.data.max() + 1e3 + rng.uniform(
            0, 1, size=(10, small_dataset.n_dimensions)
        )
        labels = index.partial_update(far)
        assert np.all(labels == OUTLIER_LABEL)
        np.testing.assert_array_equal(index.cluster_sizes(), sizes_before)
        assert index.n_points_absorbed == 0

    def test_median_center_follows_update(self, artifact, query_points):
        idx = ProjectedClusterIndex(artifact)
        labels = idx.partial_update(query_points)
        updated = 0
        for i in range(idx.n_clusters):
            if np.count_nonzero(labels == i) == 0:
                continue
            updated += 1
            # The scoring plan was patched with the refreshed median.
            _, planned_center, _ = idx._engine.cluster_plan(i)
            np.testing.assert_array_equal(
                planned_center, idx.cluster_statistics(i).median_selected
            )
        assert updated > 0

    def test_without_projections_median_is_frozen(self, artifact, query_points, tmp_path):
        # An artifact an older library wrote without member projections.
        bare = replace(
            artifact,
            clusters=[replace(c, member_projections=None) for c in artifact.clusters],
        )
        idx = ProjectedClusterIndex(load_artifact(bare.save(tmp_path / "bare")))
        before = [idx.cluster_statistics(i).median_selected for i in range(idx.n_clusters)]
        sizes_before = idx.cluster_sizes()
        labels = idx.partial_update(query_points)
        assert np.count_nonzero(labels >= 0) > 0
        for i in range(idx.n_clusters):
            np.testing.assert_array_equal(idx.cluster_statistics(i).median_selected, before[i])
        # Sizes (and hence size-dependent thresholds) still advance.
        assert np.any(idx.cluster_sizes() > sizes_before)

    def test_explicit_labels_validated(self, index, query_points):
        with pytest.raises(ValueError, match="length"):
            index.partial_update(query_points, labels=np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="outside"):
            index.partial_update(
                query_points,
                labels=np.full(query_points.shape[0], index.n_clusters, dtype=int),
            )
        with pytest.raises(ValueError, match="sentinel"):
            index.partial_update(
                query_points, labels=np.full(query_points.shape[0], -7, dtype=int)
            )

    def test_update_counters(self, index, query_points):
        labels = index.partial_update(query_points)
        assert index.n_updates == 1
        assert index.n_points_absorbed == int(np.count_nonzero(labels >= 0))


class TestArtifactAliasing:
    """The index aliases its artifact's projection buffers and never writes into one."""

    @staticmethod
    def _arrays(artifact):
        arrays = {"labels": artifact.labels, "global_variance": artifact.global_variance}
        for position, cluster in enumerate(artifact.clusters):
            for name in ("dimensions", "members", "representative", "mean", "median",
                         "variance", "member_projections"):
                arrays["%s_%d" % (name, position)] = getattr(cluster, name)
        return arrays

    def test_no_operation_writes_through_to_the_artifact(self, artifact, query_points):
        before = {name: array.copy() for name, array in self._arrays(artifact).items()}
        rows = query_points[:30]
        operations = {
            "partial_update": lambda index: index.partial_update(query_points),
            "trim_projections": lambda index: index.trim_projections(1, 5),
            "reanchor_cluster": lambda index: index.reanchor_cluster(2, np.array([0, 1]), rows),
            "add_cluster": lambda index: index.add_cluster(np.array([2, 3]), rows),
            "remove_cluster": lambda index: index.remove_cluster(0),
            "refresh_threshold": lambda index: index.refresh_threshold(
                artifact.global_variance * 2.0
            ),
        }
        for name, operation in operations.items():
            # Each operation meets projection buffers the index still aliases.
            index = ProjectedClusterIndex(artifact, projection_window=64)
            assert all(
                np.shares_memory(state.projections, cluster.member_projections)
                for state, cluster in zip(index._clusters, artifact.clusters)
            )
            operation(index)
            index.partial_update(query_points)
            after = self._arrays(artifact)
            assert after.keys() == before.keys()
            for key, array in before.items():
                assert after[key].tobytes() == array.tobytes(), (name, key)

    def test_a_mapped_artifact_is_shared_until_the_first_fold(
        self, artifact_on_disk, small_dataset
    ):
        from repro.serving.artifact import load_artifact

        mapped = load_artifact(artifact_on_disk, mmap_mode="r")
        index = ProjectedClusterIndex(mapped)

        def shared():
            return [
                np.shares_memory(state.projections, cluster.member_projections)
                for state, cluster in zip(index._clusters, mapped.clusters)
            ]

        assert shared() == [True] * index.n_clusters
        labels = index.partial_update(small_dataset.data[:60])
        folded = set(labels[labels >= 0].tolist())
        assert folded
        assert shared() == [position not in folded for position in range(index.n_clusters)]


class TestFoldInto:
    def test_fold_into_round_trips_through_disk(
        self, fitted_sspc, artifact, query_points, tmp_path
    ):
        idx = ProjectedClusterIndex(artifact)
        labels = idx.partial_update(query_points)
        assert np.count_nonzero(labels >= 0) > 0
        path = idx.fold_into(artifact).save(tmp_path / "updated")

        from repro.serving.artifact import load_artifact

        resumed = ProjectedClusterIndex(load_artifact(path))
        np.testing.assert_array_equal(resumed.cluster_sizes(), idx.cluster_sizes())
        assert np.array_equal(
            resumed.gains_matrix(query_points), idx.gains_matrix(query_points)
        )
        for i in range(idx.n_clusters):
            a, b = resumed.cluster_statistics(i), idx.cluster_statistics(i)
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.variance, b.variance)
            np.testing.assert_array_equal(a.median_selected, b.median_selected)

    def test_fold_into_rejects_mismatched_artifact(self, artifact, fitted_sspc):
        idx = ProjectedClusterIndex(artifact)
        other = fitted_sspc.to_artifact()
        other.clusters = other.clusters[:-1]
        with pytest.raises(ValueError, match="clusters"):
            idx.fold_into(other)

    def test_fold_into_rejects_different_model_same_shape(self, artifact, fitted_sspc):
        idx = ProjectedClusterIndex(artifact)
        other = fitted_sspc.to_artifact()
        dims = other.clusters[0].dimensions
        other.clusters[0].dimensions = (dims + 1) % other.n_dimensions
        with pytest.raises(ValueError, match="different dimensions"):
            idx.fold_into(other)

    def test_serving_sizes_surface_in_describe(self, artifact, query_points):
        idx = ProjectedClusterIndex(artifact)
        labels = idx.partial_update(query_points)
        assert np.count_nonzero(labels >= 0) > 0
        idx.fold_into(artifact)
        description = artifact.describe()
        assert description["cluster_sizes"] == idx.cluster_sizes().tolist()
        assert description["training_sizes"] == [c.size for c in artifact.clusters]
        assert description["cluster_sizes"] != description["training_sizes"]


class TestDegenerateClusters:
    def _artifact_with_degenerate_clusters(self):
        d = 4
        good = ClusterModel(
            dimensions=np.asarray([0, 1]),
            members=np.asarray([0, 1, 2]),
            representative=np.zeros(d),
            mean=np.zeros(d),
            median=np.zeros(d),
            variance=np.full(d, 0.1),
        )
        empty_members = ClusterModel(
            dimensions=np.asarray([2]),
            members=np.asarray([], dtype=int),
            representative=np.zeros(d),
            mean=np.zeros(d),
            median=np.zeros(d),
            variance=np.zeros(d),
        )
        empty_dims = ClusterModel(
            dimensions=np.asarray([], dtype=int),
            members=np.asarray([3]),
            representative=np.zeros(d),
            mean=np.zeros(d),
            median=np.zeros(d),
            variance=np.zeros(d),
        )
        labels = np.asarray([0, 0, 0, 2, -1])
        return ModelArtifact(
            clusters=[good, empty_members, empty_dims],
            labels=labels,
            n_objects=5,
            n_dimensions=d,
            threshold_description={"scheme": "m", "m": 0.5},
            global_variance=np.ones(d),
        )

    def test_unservable_clusters_never_win(self, rng):
        idx = ProjectedClusterIndex(self._artifact_with_degenerate_clusters())
        points = rng.normal(scale=0.05, size=(20, 4))
        gains = idx.gains_matrix(points)
        assert np.all(np.isneginf(gains[:, 1]))
        assert np.all(np.isneginf(gains[:, 2]))
        labels = idx.predict(points)
        assert set(np.unique(labels)).issubset({0, OUTLIER_LABEL})


class TestInputValidation:
    def test_dimension_mismatch_rejected(self, index, rng):
        with pytest.raises(ValueError, match="dimensions"):
            index.predict(rng.normal(size=(5, index.n_dimensions + 1)))
        with pytest.raises(ValueError, match="dimensions"):
            index.gains_single(np.zeros(index.n_dimensions + 1))

    def test_bad_center_mode_rejected(self, artifact):
        # The median is the only center; the keyword itself is gone.
        for center in ("median", "mean", "medoid"):
            with pytest.raises(TypeError, match="center"):
                ProjectedClusterIndex(artifact, center=center)

    def test_retired_allow_outliers_false_artifact_rejected(self, artifact, query_points):
        # A missing key (what fits write now) or ``true`` serves as before;
        # ``false`` marks a model fitted with the retired force-assignment
        # option, which must not be served behind an outlier gate.
        assert "allow_outliers" not in artifact.parameters
        expected = ProjectedClusterIndex(artifact).predict(query_points)
        gated = replace(artifact, parameters={**artifact.parameters, "allow_outliers": True})
        np.testing.assert_array_equal(
            ProjectedClusterIndex(gated).predict(query_points), expected
        )
        forced = replace(artifact, parameters={**artifact.parameters, "allow_outliers": False})
        with pytest.raises(ValueError, match="allow_outliers"):
            ProjectedClusterIndex(forced)


class TestEstimatorIntegration:
    def test_sspc_predict_matches_index(self, fitted_sspc, artifact, query_points):
        expected = ProjectedClusterIndex(artifact).predict(query_points)
        np.testing.assert_array_equal(fitted_sspc.predict(query_points), expected)

    def test_sspc_predict_top_m(self, fitted_sspc, query_points):
        labels, clusters, gains = fitted_sspc.predict(query_points, top_m=2)
        assert clusters.shape == (query_points.shape[0], 2)
        np.testing.assert_array_equal(labels, fitted_sspc.predict(query_points))

    def test_save_load_predict_identical(self, fitted_sspc, query_points, tmp_path):
        in_memory = fitted_sspc.predict(query_points)
        path = fitted_sspc.save(tmp_path / "model")
        loaded = ProjectedClusterIndex.from_path(path)
        np.testing.assert_array_equal(loaded.predict(query_points), in_memory)
        assert np.array_equal(
            loaded.gains_matrix(query_points),
            ProjectedClusterIndex(fitted_sspc.to_artifact()).gains_matrix(query_points),
        )

    def test_unfitted_estimator_raises(self):
        from repro.core.sspc import SSPC

        model = SSPC(n_clusters=2)
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict(np.zeros((2, 2)))
        with pytest.raises(RuntimeError, match="not fitted"):
            model.save("/tmp/never-written")
