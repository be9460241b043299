"""Long-run ``partial_update`` chains stay exact.

The streaming subsystem folds micro-batches into the serving statistics
thousands of times; these tests drive *hundreds* of sequential folds and
compare the final cached statistics against a single from-scratch pass
over the union of training members and every accepted row — means and
variances must agree to float rounding, medians bit for bit.  A second
group pins the outlier-gating boundary: rows whose best gain is exactly
zero are rejected, rows an epsilon inside are absorbed, and the chain
bookkeeping never drifts across the boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.artifact import ClusterModel, ModelArtifact
from repro.serving.index import ProjectedClusterIndex


class TestLongChains:
    N_FOLDS = 300

    @pytest.fixture()
    def chained(self, fitted_sspc, small_dataset, rng):
        """Run a 300-fold chain; returns (index, accepted rows per cluster)."""
        index = ProjectedClusterIndex(fitted_sspc.to_artifact())
        data = small_dataset.data
        accepted = {position: [] for position in range(index.n_clusters)}
        for _ in range(self.N_FOLDS):
            base = data[rng.integers(0, data.shape[0], size=3)]
            batch = base + rng.normal(scale=0.05, size=base.shape)
            labels = index.partial_update(batch)
            for position in range(index.n_clusters):
                rows = batch[labels == position]
                if rows.shape[0]:
                    accepted[position].append(rows)
        return index, accepted

    def _union(self, fitted_sspc, small_dataset, accepted, position):
        members = fitted_sspc.result_.clusters[position].members
        blocks = [small_dataset.data[members]]
        blocks.extend(accepted[position])
        return np.concatenate(blocks, axis=0)

    def test_sizes_advance_exactly(self, chained, fitted_sspc, small_dataset):
        index, accepted = chained
        for position in range(index.n_clusters):
            union = self._union(fitted_sspc, small_dataset, accepted, position)
            assert index.cluster_statistics(position).size == union.shape[0]

    def test_means_and_variances_match_from_scratch(self, chained, fitted_sspc, small_dataset):
        index, accepted = chained
        for position in range(index.n_clusters):
            union = self._union(fitted_sspc, small_dataset, accepted, position)
            stats = index.cluster_statistics(position)
            np.testing.assert_allclose(stats.mean, union.mean(axis=0), rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(
                stats.variance, union.var(axis=0, ddof=1), rtol=1e-8, atol=1e-9
            )

    def test_medians_match_from_scratch_bit_for_bit(self, chained, fitted_sspc, small_dataset):
        index, accepted = chained
        for position in range(index.n_clusters):
            union = self._union(fitted_sspc, small_dataset, accepted, position)
            stats = index.cluster_statistics(position)
            expected = np.median(union[:, stats.dimensions], axis=0)
            assert np.array_equal(stats.median_selected, expected)

    def test_chain_is_deterministic(self, fitted_sspc, rng):
        """Folding the same batches through two indexes agrees bit for bit."""
        first = ProjectedClusterIndex(fitted_sspc.to_artifact())
        second = ProjectedClusterIndex(fitted_sspc.to_artifact())
        batches = [
            rng.uniform(0, 100, size=(4, first.n_dimensions)) for _ in range(200)
        ]
        for batch in batches:
            first.partial_update(batch)
        for batch in batches:
            second.partial_update(batch)
        for position in range(first.n_clusters):
            ours, theirs = first.cluster_statistics(position), second.cluster_statistics(position)
            assert np.array_equal(ours.mean, theirs.mean)
            assert np.array_equal(ours.variance, theirs.variance)
            assert np.array_equal(ours.median_selected, theirs.median_selected)


def boundary_artifact():
    """A hand-built one-cluster model with an exactly known gate.

    One selected dimension (0), ``m = 0.5`` thresholds over global
    variances ``[4, 1]``: the threshold is ``2.0``, so the gain of a
    point at distance ``delta`` from the center along dimension 0 is
    ``1 - delta**2 / 2`` — zero exactly at ``delta = sqrt(2)``.
    """
    rows = np.asarray([[0.0, 5.0], [0.2, 6.0], [-0.2, 4.0], [0.0, 5.5]])
    return ModelArtifact(
        clusters=[
            ClusterModel(
                dimensions=np.asarray([0]),
                members=np.arange(4),
                representative=np.asarray([0.0, 5.125]),
                mean=rows.mean(axis=0),
                median=np.median(rows, axis=0),
                variance=rows.var(axis=0, ddof=1),
                score=1.0,
                member_projections=rows[:, [0]],
            )
        ],
        labels=np.zeros(4, dtype=int),
        n_objects=4,
        n_dimensions=2,
        threshold_description={"scheme": "m", "m": 0.5},
        global_variance=np.asarray([4.0, 1.0]),
        algorithm="SSPC",
    ), rows


class TestGatingBoundary:
    def test_zero_gain_is_rejected_epsilon_inside_is_accepted(self):
        artifact, _ = boundary_artifact()
        index = ProjectedClusterIndex(artifact)
        center = index._clusters[0].median_selected[0]
        boundary = np.sqrt(2.0)
        on_boundary = np.asarray([[center + boundary, 50.0]])
        inside = np.asarray([[center + boundary - 1e-9, 50.0]])
        outside = np.asarray([[center + boundary + 1e-9, 50.0]])
        assert index.gains_single(on_boundary[0])[0] == pytest.approx(0.0, abs=1e-12)
        assert index.predict(on_boundary)[0] == -1  # strictly-positive gate
        assert index.predict(inside)[0] == 0
        assert index.predict(outside)[0] == -1

    def test_boundary_chain_matches_from_scratch(self, rng):
        """A long chain peppered with boundary rows stays exact."""
        artifact, training_rows = boundary_artifact()
        index = ProjectedClusterIndex(artifact)
        accepted_rows = []
        n_boundary_rejections = 0
        boundary = np.sqrt(2.0)
        for step in range(250):
            center = index._clusters[0].median_selected[0]
            at_gate = center + boundary
            batch = np.asarray(
                [
                    [at_gate, float(step)],                      # at the gate (gain ~ 0)
                    [center + rng.uniform(-1.0, 1.0), 50.0],     # comfortably inside
                    [center + boundary * rng.choice([-3, 3]), 50.0],  # far outside
                ]
            )
            labels = index.partial_update(batch)
            # The gate is strictly positive; the expectation uses the
            # kernel's own arithmetic, so rounding at the boundary can
            # never make this assert and the kernel disagree.
            expected_at_gate = 0 if (1.0 - (at_gate - center) ** 2 / 2.0) > 0.0 else -1
            assert labels[0] == expected_at_gate
            if labels[0] == -1:
                n_boundary_rejections += 1
            assert labels[1] == 0
            assert labels[2] == -1
            accepted_rows.append(batch[labels == 0])
        assert n_boundary_rejections > 200  # the gate really is strict
        union = np.concatenate([training_rows] + accepted_rows, axis=0)
        stats = index.cluster_statistics(0)
        assert stats.size == union.shape[0]
        np.testing.assert_allclose(stats.mean, union.mean(axis=0), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            stats.variance, union.var(axis=0, ddof=1), rtol=1e-8, atol=1e-9
        )
        assert np.array_equal(
            stats.median_selected, np.median(union[:, [0]], axis=0)
        )
