"""Equivalence and contract tests of the incremental assignment engine.

The engine's whole value proposition is that persistent plans, dirty-only
recomputation and blocked evaluation change *nothing* about the numbers:
every test here drives randomized mutation sequences and asserts the
cached matrix equals a from-scratch
:func:`~repro.core.objective.grouped_assignment_gains` call bit for bit
after every step.
"""

import numpy as np
import pytest

from repro.core.assignment_engine import AssignmentEngine
from repro.core.objective import ObjectiveFunction, grouped_assignment_gains
from repro.core.thresholds import VarianceRatioThreshold
from repro.data.generator import SyntheticDataGenerator
from repro.serving.index import ProjectedClusterIndex
from repro.core.sspc import SSPC


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(21)
    return np.ascontiguousarray(rng.normal(size=(700, 45)))


def _random_specs(rng, k, d, max_count=20):
    dims, centers, thresholds = [], [], []
    for _ in range(k):
        count = int(rng.integers(0, max_count))
        dims.append(np.sort(rng.choice(d, size=count, replace=False)).astype(int))
        centers.append(rng.normal(size=count))
        thresholds.append(rng.uniform(0.1, 2.0, size=count))
    return dims, centers, thresholds


class TestBlockedEvaluation:
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 64, 251, 4096])
    def test_bit_identical_to_reference_across_block_sizes(self, points, block_rows):
        """Row blocking must never change a bit, including counts >= 8
        (where numpy's pairwise-sum grouping is layout-sensitive)."""
        rng = np.random.default_rng(3)
        dims, centers, thresholds = _random_specs(rng, 7, points.shape[1])
        engine = AssignmentEngine(points, block_rows=block_rows)
        engine.set_clusters(dims, centers, thresholds)
        reference = grouped_assignment_gains(points, dims, centers, thresholds)
        assert np.array_equal(engine.gains(), reference)
        assert np.array_equal(engine.compute(points), reference)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_tiny_batches(self, points, n):
        rng = np.random.default_rng(4)
        dims, centers, thresholds = _random_specs(rng, 5, points.shape[1])
        engine = AssignmentEngine(block_rows=2)
        engine.set_clusters(dims, centers, thresholds)
        batch = points[:n]
        reference = grouped_assignment_gains(batch, dims, centers, thresholds)
        assert np.array_equal(engine.compute(batch), reference)

    def test_all_empty_dimension_sets_pin_minus_inf(self, points):
        empty = np.empty(0, dtype=int)
        engine = AssignmentEngine(points)
        engine.set_clusters([empty] * 3, [np.empty(0)] * 3, [np.empty(0)] * 3)
        gains = engine.gains()
        assert gains.shape == (points.shape[0], 3)
        assert np.all(np.isneginf(gains))

    def test_workspaces_are_reused_not_regrown(self, points):
        rng = np.random.default_rng(5)
        dims, centers, thresholds = _random_specs(rng, 6, points.shape[1])
        engine = AssignmentEngine(points, block_rows=128)
        engine.set_clusters(dims, centers, thresholds)
        engine.gains()
        workspace = engine._workspace
        for _ in range(5):
            engine.invalidate()
            engine.gains()
            engine.compute(points[:100])
        assert engine._workspace is workspace


class TestDirtyTracking:
    def test_randomized_mutation_sequence_stays_bit_identical(self, points):
        """Interleaved value patches, count moves, adds, removes and
        full invalidations: the cache equals a from-scratch reference
        call after every step."""
        rng = np.random.default_rng(9)
        d = points.shape[1]
        dims, centers, thresholds = _random_specs(rng, 6, d)
        engine = AssignmentEngine(points, block_rows=97)
        engine.set_clusters(dims, centers, thresholds)
        for step in range(60):
            action = rng.choice(["patch", "move", "add", "remove", "invalidate", "noop"])
            k = engine.n_clusters
            if action == "patch" and k:
                index = int(rng.integers(k))
                if dims[index].size:
                    centers[index] = centers[index] + rng.normal(
                        scale=1e-3, size=dims[index].size
                    )
                engine.update_cluster(index, dims[index], centers[index], thresholds[index])
            elif action == "move" and k:
                index = int(rng.integers(k))
                count = int(rng.integers(0, 20))
                dims[index] = np.sort(rng.choice(d, size=count, replace=False)).astype(int)
                centers[index] = rng.normal(size=count)
                thresholds[index] = rng.uniform(0.1, 2.0, size=count)
                engine.update_cluster(index, dims[index], centers[index], thresholds[index])
            elif action == "add":
                count = int(rng.integers(0, 20))
                dims.append(np.sort(rng.choice(d, size=count, replace=False)).astype(int))
                centers.append(rng.normal(size=count))
                thresholds.append(rng.uniform(0.1, 2.0, size=count))
                engine.add_cluster(dims[-1], centers[-1], thresholds[-1])
            elif action == "remove" and k > 1:
                index = int(rng.integers(k))
                del dims[index], centers[index], thresholds[index]
                engine.remove_cluster(index)
            elif action == "invalidate":
                engine.invalidate()
            reference = grouped_assignment_gains(points, dims, centers, thresholds)
            assert np.array_equal(engine.gains(), reference), "step %d (%s)" % (step, action)

    def test_clean_updates_do_not_recompute(self, points):
        rng = np.random.default_rng(11)
        dims, centers, thresholds = _random_specs(rng, 5, points.shape[1], max_count=9)
        engine = AssignmentEngine(points)
        engine.set_clusters(dims, centers, thresholds)
        engine.gains()
        recomputed = engine.n_columns_recomputed
        for index in range(5):
            changed = engine.update_cluster(
                index, dims[index], centers[index], thresholds[index]
            )
            assert not changed
        engine.gains()
        assert engine.n_columns_recomputed == recomputed
        assert engine.n_updates_clean == 5

    def test_only_dirty_columns_recompute(self, points):
        rng = np.random.default_rng(12)
        dims, centers, thresholds = _random_specs(rng, 8, points.shape[1], max_count=9)
        for index in range(8):  # every cluster servable
            if dims[index].size == 0:
                dims[index] = np.asarray([index])
                centers[index] = rng.normal(size=1)
                thresholds[index] = rng.uniform(0.1, 2.0, size=1)
        engine = AssignmentEngine(points)
        engine.set_clusters(dims, centers, thresholds)
        engine.gains()
        baseline = engine.n_columns_recomputed
        centers[3] = centers[3] + 1e-3
        engine.update_cluster(3, dims[3], centers[3], thresholds[3])
        engine.gains()
        assert engine.n_columns_recomputed == baseline + 1
        assert np.array_equal(
            engine.gains(), grouped_assignment_gains(points, dims, centers, thresholds)
        )

    def test_in_place_mutation_of_submitted_arrays_is_detected(self, points):
        """The plan owns copies: mutating a previously submitted array in
        place and resubmitting the same object must still diff as
        changed (storing by reference would compare it to itself)."""
        dims = np.arange(3)
        center = np.zeros(3)
        threshold = np.ones(3)
        engine = AssignmentEngine(points)
        engine.set_clusters([dims], [center], [threshold])
        engine.gains()
        center[:] = 5.0
        assert engine.update_cluster(0, dims, center, threshold)
        assert np.array_equal(
            engine.gains(),
            grouped_assignment_gains(points, [dims], [center], [threshold]),
        )

    def test_gains_requires_bound_points(self):
        engine = AssignmentEngine()
        engine.set_clusters([np.asarray([0])], [np.zeros(1)], [np.ones(1)])
        with pytest.raises(RuntimeError):
            engine.gains()

    def test_misaligned_values_rejected(self, points):
        engine = AssignmentEngine(points)
        with pytest.raises(ValueError):
            engine.set_clusters([np.asarray([0, 1])], [np.zeros(1)], [np.ones(2)])


def _objective_reference_gains(objective, reps, dims, sizes):
    """The stateless kernel over the same plan the objective submits."""
    return grouped_assignment_gains(
        objective.data,
        dims,
        [rep[d] for rep, d in zip(reps, dims)],
        [objective.threshold.values(max(size, 2))[d] for size, d in zip(sizes, dims)],
    )


class TestObjectiveBackend:
    @pytest.fixture(scope="class")
    def objective(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(250, 24))
        return ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))

    def _states(self, rng, objective, k):
        reps = [objective.data[int(rng.integers(objective.n_objects))] for _ in range(k)]
        dims = [
            np.sort(rng.choice(objective.n_dimensions, size=int(rng.integers(1, 12)),
                               replace=False)).astype(int)
            for _ in range(k)
        ]
        sizes = [int(rng.integers(2, 80)) for _ in range(k)]
        return reps, dims, sizes

    def test_returns_read_only_view_of_live_cache(self, objective):
        rng = np.random.default_rng(32)
        reps, dims, sizes = self._states(rng, objective, 3)
        gains = objective.assignment_gains_matrix(reps, dims, sizes)
        assert not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[0, 0] = 0.0

    def test_repeated_calls_serve_the_cache(self, objective):
        rng = np.random.default_rng(33)
        reps, dims, sizes = self._states(rng, objective, 4)
        first = objective.assignment_gains_matrix(reps, dims, sizes)
        engine = objective._assignment_engine
        recomputed = engine.n_columns_recomputed
        second = objective.assignment_gains_matrix(reps, dims, sizes)
        assert engine.n_columns_recomputed == recomputed
        assert np.array_equal(first, second)

    def test_value_diff_recomputes_only_changed_columns(self, objective):
        rng = np.random.default_rng(34)
        reps, dims, sizes = self._states(rng, objective, 4)
        objective.assignment_gains_matrix(reps, dims, sizes)
        engine = objective._assignment_engine
        recomputed = engine.n_columns_recomputed
        for i in (1, 2):
            reps[i] = reps[i] + 1e-3
        gains = objective.assignment_gains_matrix(reps, dims, sizes)
        assert engine.n_columns_recomputed == recomputed + 2
        assert np.array_equal(gains, _objective_reference_gains(objective, reps, dims, sizes))

    def test_cluster_count_change_rebuilds(self, objective):
        rng = np.random.default_rng(35)
        for k in (3, 5, 2):
            reps, dims, sizes = self._states(rng, objective, k)
            gains = objective.assignment_gains_matrix(reps, dims, sizes)
            expected = _objective_reference_gains(objective, reps, dims, sizes)
            assert np.array_equal(gains, expected)


def _index_reference_gains(index, queries):
    """From-scratch reference: rebuild the kernel inputs from the
    index's public statistics and call the stateless kernel."""
    dims, centers, thresholds = [], [], []
    for position in range(index.n_clusters):
        stats = index.cluster_statistics(position)
        if stats.size > 0 and stats.dimensions.size > 0:
            dims.append(stats.dimensions)
            centers.append(stats.median_selected)
            thresholds.append(index.threshold.values(max(stats.size, 2))[stats.dimensions])
        else:
            dims.append(np.empty(0, dtype=int))
            centers.append(np.empty(0))
            thresholds.append(np.empty(0))
    return grouped_assignment_gains(queries, dims, centers, thresholds)


class TestServingPlanMaintenance:
    @pytest.fixture(scope="class")
    def fitted(self):
        dataset = SyntheticDataGenerator(
            n_objects=420,
            n_dimensions=36,
            n_clusters=4,
            avg_cluster_dimensionality=6,
            outlier_fraction=0.05,
            random_state=2,
        ).generate(2)
        model = SSPC(n_clusters=4, m=0.5, max_iterations=6, random_state=2).fit(dataset.data)
        return model, dataset

    def test_randomized_serving_mutations_stay_bit_identical(self, fitted):
        """Interleaved partial_update / add / remove / reanchor / trim /
        refresh_threshold: the live plan equals a from-scratch kernel
        call and a fully rebuilt index after every step."""
        model, dataset = fitted
        rng = np.random.default_rng(7)
        index = ProjectedClusterIndex(model.to_artifact())
        d = index.n_dimensions
        queries = rng.normal(
            loc=dataset.data.mean(axis=0),
            scale=dataset.data.std(axis=0),
            size=(60, d),
        )
        for step in range(40):
            action = rng.choice(
                ["fold", "add", "remove", "reanchor", "trim", "refresh", "predict"]
            )
            if action == "fold":
                rows = dataset.data[rng.integers(0, dataset.data.shape[0], size=25)]
                index.partial_update(rows + rng.normal(scale=0.01, size=rows.shape))
            elif action == "add" and index.n_clusters < 7:
                count = int(rng.integers(2, 8))
                new_dims = np.sort(rng.choice(d, size=count, replace=False))
                rows = rng.normal(size=(12, d))
                index.add_cluster(new_dims, rows)
            elif action == "remove" and index.n_clusters > 2:
                index.remove_cluster(int(rng.integers(index.n_clusters)))
            elif action == "reanchor":
                position = int(rng.integers(index.n_clusters))
                count = int(rng.integers(2, 8))
                new_dims = np.sort(rng.choice(d, size=count, replace=False))
                index.reanchor_cluster(position, new_dims, rng.normal(size=(15, d)))
            elif action == "trim":
                index.trim_projections(int(rng.integers(index.n_clusters)), 8)
            elif action == "refresh":
                index.refresh_threshold(rng.uniform(0.5, 2.0, size=d))
            gains = index.gains_matrix(queries)
            reference = _index_reference_gains(index, queries)
            assert np.array_equal(gains, reference), "step %d (%s)" % (step, action)

    def test_full_rebuild_fallback_matches_live_plan(self, fitted):
        """An index rebuilt from the exported artifact (a from-scratch
        plan) serves bit-identically to the incrementally patched one."""
        model, dataset = fitted
        rng = np.random.default_rng(8)
        index = ProjectedClusterIndex(model.to_artifact())
        d = index.n_dimensions
        queries = rng.normal(size=(50, d)) + dataset.data.mean(axis=0)
        index.partial_update(dataset.data[:80] + rng.normal(scale=0.01, size=(80, d)))
        index.add_cluster(np.asarray([0, 3, 7]), rng.normal(size=(10, d)))
        index.refresh_threshold(rng.uniform(0.5, 2.0, size=d))
        rebuilt = ProjectedClusterIndex(index.export_artifact())
        assert np.array_equal(index.gains_matrix(queries), rebuilt.gains_matrix(queries))
        assert np.array_equal(index.predict(queries), rebuilt.predict(queries))

    def test_batch_matches_single_after_mutations(self, fitted):
        model, dataset = fitted
        rng = np.random.default_rng(9)
        index = ProjectedClusterIndex(model.to_artifact())
        index.partial_update(dataset.data[:50])
        index.trim_projections(0, 5)
        queries = dataset.data[rng.integers(0, dataset.data.shape[0], size=20)]
        batch = index.gains_matrix(queries)
        for row in range(queries.shape[0]):
            assert np.array_equal(batch[row], index.gains_single(queries[row]))


class TestTrainingLoopIntegration:
    def test_fit_value_diff_skips_clean_columns(self):
        """A refit is bit-identical, and the engine's value-diff leaves
        some columns clean: clusters restored from the best-so-far
        snapshot come back with identical plans."""
        dataset = SyntheticDataGenerator(
            n_objects=240,
            n_dimensions=24,
            n_clusters=3,
            avg_cluster_dimensionality=5,
            outlier_fraction=0.05,
            random_state=6,
        ).generate(6)
        model = SSPC(n_clusters=3, m=0.5, max_iterations=8, random_state=5).fit(dataset.data)
        # Re-fit while capturing the engine (fit builds a fresh objective).
        import repro.core.objective as objective_module

        original_init = objective_module.ObjectiveFunction.__init__
        captured = []

        def capturing_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            captured.append(self)

        objective_module.ObjectiveFunction.__init__ = capturing_init
        try:
            refit = SSPC(n_clusters=3, m=0.5, max_iterations=8, random_state=5).fit(
                dataset.data
            )
        finally:
            objective_module.ObjectiveFunction.__init__ = original_init
        assert np.array_equal(model.labels_, refit.labels_)
        engine = captured[0]._assignment_engine
        assert engine is not None
        full_recompute_columns = engine.n_gains_calls * engine.n_clusters
        assert engine.n_columns_recomputed < full_recompute_columns
