"""Tests of the serving index's streaming-maintenance API.

``add_cluster`` / ``remove_cluster`` / ``reanchor_cluster`` /
``trim_projections`` / ``refresh_threshold`` / ``export_artifact`` are
the serving-layer primitives the streaming engine is built on; they must
compose with the existing scoring and persistence contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.artifact import load_artifact
from repro.serving.index import ProjectedClusterIndex


@pytest.fixture()
def artifact(fitted_sspc):
    return fitted_sspc.to_artifact()


@pytest.fixture()
def index(artifact):
    return ProjectedClusterIndex(artifact)


def make_new_cluster_rows(rng, n_dimensions, dims, center, spread=0.5, n_rows=40):
    rows = rng.uniform(0.0, 100.0, size=(n_rows, n_dimensions))
    rows[:, dims] = center + rng.normal(scale=spread, size=(n_rows, len(dims)))
    return rows


class TestAddCluster:
    def test_statistics_come_from_the_rows(self, index, rng):
        dims = np.asarray([1, 4, 7])
        rows = make_new_cluster_rows(rng, index.n_dimensions, dims, center=-40.0)
        position = index.add_cluster(dims, rows)
        assert position == index.n_clusters - 1
        stats = index.cluster_statistics(position)
        assert stats.size == rows.shape[0]
        np.testing.assert_array_equal(stats.dimensions, dims)
        np.testing.assert_allclose(stats.mean, rows.mean(axis=0))
        np.testing.assert_allclose(stats.variance, rows.var(axis=0, ddof=1))
        np.testing.assert_allclose(stats.median_selected, np.median(rows[:, dims], axis=0))

    def test_new_cluster_wins_its_own_traffic(self, index, rng):
        dims = np.asarray([1, 4, 7])
        rows = make_new_cluster_rows(rng, index.n_dimensions, dims, center=-40.0)
        before = index.predict(rows)
        assert np.all(before == -1)  # far from every fitted cluster
        position = index.add_cluster(dims, rows)
        after = index.predict(rows + 0.01)
        assert np.count_nonzero(after == position) > 0.9 * rows.shape[0]

    def test_batch_single_equivalence_still_holds(self, index, rng):
        dims = np.asarray([0, 2])
        rows = make_new_cluster_rows(rng, index.n_dimensions, dims, center=-25.0)
        index.add_cluster(dims, rows)
        queries = rng.uniform(-50, 150, size=(30, index.n_dimensions))
        batch = index.gains_matrix(queries)
        single = np.stack([index.gains_single(query) for query in queries])
        assert np.array_equal(batch, single)

    def test_rejects_bad_dimensions(self, index, rng):
        rows = rng.uniform(size=(5, index.n_dimensions))
        with pytest.raises(ValueError):
            index.add_cluster(np.asarray([index.n_dimensions]), rows)


class TestRemoveCluster:
    def test_removal_shifts_positions(self, index, rng):
        k = index.n_clusters
        index.remove_cluster(0)
        assert index.n_clusters == k - 1
        queries = rng.uniform(0, 100, size=(20, index.n_dimensions))
        assert index.gains_matrix(queries).shape == (20, k - 1)

    def test_out_of_range_rejected(self, index):
        with pytest.raises(IndexError):
            index.remove_cluster(index.n_clusters)


class TestReanchorCluster:
    def test_reanchor_replaces_subspace_and_statistics(self, index, rng):
        dims = np.asarray([3, 9, 12])
        rows = make_new_cluster_rows(rng, index.n_dimensions, dims, center=70.0)
        old_score = index._clusters[1].score
        index.reanchor_cluster(1, dims, rows)
        stats = index.cluster_statistics(1)
        np.testing.assert_array_equal(stats.dimensions, dims)
        assert stats.size == rows.shape[0]
        np.testing.assert_allclose(stats.median_selected, np.median(rows[:, dims], axis=0))
        assert index._clusters[1].score == old_score  # score survives the re-anchor


class TestTrimProjections:
    def test_trim_bounds_the_buffer_and_windows_the_median(self, index, rng):
        position = 0
        dims = index.cluster_statistics(position).dimensions
        rows = make_new_cluster_rows(
            rng, index.n_dimensions, dims,
            center=index._clusters[position].median_selected, spread=0.2, n_rows=50,
        )
        index.partial_update(rows, labels=np.full(rows.shape[0], position))
        index.trim_projections(position, keep_last=30)
        cluster = index._clusters[position]
        assert cluster.projections.shape[0] == 30
        np.testing.assert_allclose(
            cluster.median_selected, np.median(cluster.projections, axis=0)
        )

    def test_trim_requires_positive_window(self, index):
        with pytest.raises(ValueError):
            index.trim_projections(0, keep_last=0)

    def test_projection_window_bounds_folds_with_one_median_pass(self, artifact, rng):
        windowed = ProjectedClusterIndex(artifact, projection_window=20)
        position = 0
        dims = windowed.cluster_statistics(position).dimensions
        rows = make_new_cluster_rows(
            rng, windowed.n_dimensions, dims,
            center=windowed._clusters[position].median_selected, spread=0.2, n_rows=35,
        )
        windowed.partial_update(rows, labels=np.full(rows.shape[0], position))
        cluster = windowed._clusters[position]
        assert cluster.projections.shape[0] == 20
        np.testing.assert_array_equal(
            cluster.median_selected, np.median(cluster.projections, axis=0)
        )
        # The window also bounds clusters built from rows directly.
        added = windowed.add_cluster(np.asarray([1, 2]), rng.uniform(size=(40, windowed.n_dimensions)))
        assert windowed._clusters[added].projections.shape[0] == 20


class TestRefreshThreshold:
    def test_refresh_changes_gains_consistently(self, index, rng):
        queries = rng.uniform(0, 100, size=(15, index.n_dimensions))
        before = index.gains_matrix(queries)
        index.refresh_threshold(np.full(index.n_dimensions, 1e6))
        after = index.gains_matrix(queries)
        # Huge global variances -> huge thresholds -> every deviation
        # penalised less -> gains cannot decrease.
        finite = np.isfinite(before)
        assert np.all(after[finite] >= before[finite])
        assert index.threshold_description == {"scheme": "m", "m": 0.5}


class TestExportArtifact:
    def test_export_round_trips_bit_identically(self, index, rng, tmp_path):
        dims = np.asarray([1, 4, 7])
        rows = make_new_cluster_rows(rng, index.n_dimensions, dims, center=-40.0)
        index.add_cluster(dims, rows)
        index.remove_cluster(0)
        exported = index.export_artifact(metadata={"origin": "test"})
        exported.save(tmp_path / "exported")
        rebuilt = ProjectedClusterIndex(load_artifact(tmp_path / "exported"))
        queries = rng.uniform(-60, 160, size=(40, index.n_dimensions))
        assert np.array_equal(index.gains_matrix(queries), rebuilt.gains_matrix(queries))
        np.testing.assert_array_equal(index.predict(queries), rebuilt.predict(queries))
        assert rebuilt.cluster_sizes().tolist() == index.cluster_sizes().tolist()

    def test_fold_into_refuses_structural_change_but_export_works(self, artifact, rng):
        index = ProjectedClusterIndex(artifact)
        dims = np.asarray([2, 5])
        rows = make_new_cluster_rows(rng, index.n_dimensions, dims, center=-30.0)
        index.add_cluster(dims, rows)
        with pytest.raises(ValueError):
            index.fold_into(artifact)
        exported = index.export_artifact()
        assert exported.n_clusters == index.n_clusters

    def test_export_keeps_threshold_refresh(self, index, rng, tmp_path):
        new_variance = np.full(index.n_dimensions, 123.0)
        index.refresh_threshold(new_variance)
        exported = index.export_artifact()
        exported.save(tmp_path / "refreshed")
        rebuilt = ProjectedClusterIndex(load_artifact(tmp_path / "refreshed"))
        np.testing.assert_allclose(rebuilt.global_variance, new_variance)
