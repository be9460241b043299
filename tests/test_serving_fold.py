"""The serving fold against the per-cluster fold it replaced, bit for bit.

``ProjectedClusterIndex.partial_update`` folds each touched cluster once
and writes the new center (and, under a size-dependent scheme, the
thresholds) straight into the cluster's plan row.  The oracle here is
the fold as it ran before: for every touched cluster a ``rows.mean``
batch mean, ``merge_mean_variance``, a fresh projection buffer
(``_appended_projections``), ``column_median`` of that buffer and
``_sync_plan``, which copies, coerces and diffs the whole plan entry.

A hypothesis differential drives random label vectors through a
windowed and an unbounded index under both threshold schemes,
interleaved with every lifecycle method.  After every step the sizes,
means, variances, medians, projection buffers, plan rows and gains must
be bit-equal to the oracle's.  The degenerate stream batches of an
all-outlier batch, a batch that lands in one cluster and a one-row batch
run through both ``partial_update`` and ``StreamingSSPC.process_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import OUTLIER_LABEL
from repro.core.objective import column_median, column_variance
from repro.core.stats_cache import merge_mean_variance
from repro.serving.artifact import ClusterModel, ModelArtifact
from repro.serving.index import ProjectedClusterIndex, _appended_projections, group_rows
from repro.stream import StreamConfig, StreamingSSPC

D = 5


def reference_fold(index: ProjectedClusterIndex, points, labels) -> None:
    """Fold ``points`` into ``index`` the way the per-cluster fold did."""
    points = index.check_points(points)
    labels = np.asarray(labels, dtype=int).ravel()
    grouped, starts = group_rows(points, labels, index.n_clusters)
    absorbed = 0
    for position, cluster in enumerate(index._clusters):
        rows = grouped[starts[position + 1] : starts[position + 2]]
        if rows.shape[0] == 0:
            continue
        batch_mean = rows.mean(axis=0)
        cluster.size, cluster.mean, cluster.variance = merge_mean_variance(
            cluster.size,
            cluster.mean,
            cluster.variance,
            rows.shape[0],
            batch_mean,
            column_variance(rows, batch_mean),
        )
        if cluster.projections is not None:
            cluster.projections = _appended_projections(
                cluster.projections, rows, cluster.dimensions, index.projection_window
            )
            cluster.median_selected = column_median(cluster.projections)
        index._sync_plan(position)
        absorbed += rows.shape[0]
    index.n_updates += 1
    index.n_points_absorbed += absorbed


def assert_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_same_state(index: ProjectedClusterIndex, oracle: ProjectedClusterIndex, probe) -> None:
    assert index.n_clusters == oracle.n_clusters
    assert index.n_updates == oracle.n_updates
    assert index.n_points_absorbed == oracle.n_points_absorbed
    for position in range(index.n_clusters):
        got, expected = index._clusters[position], oracle._clusters[position]
        assert got.size == expected.size
        for name in ("dimensions", "mean", "variance", "median_selected"):
            assert_bits(getattr(got, name), getattr(expected, name))
        if expected.projections is None:
            assert got.projections is None
        else:
            assert_bits(got.projections, expected.projections)
        for got_part, expected_part in zip(
            index._engine.cluster_plan(position), oracle._engine.cluster_plan(position)
        ):
            assert_bits(got_part, expected_part)
    # The grouped stacks the kernel reads, and the scalar path, agree too.
    gains = index.gains_matrix(probe)
    assert_bits(gains, oracle.gains_matrix(probe))
    assert_bits(index.gains_single(probe[0]), gains[0])


def rounded_rows(rng, n_rows: int) -> np.ndarray:
    """Rows on a 0.1 grid: ties, and signed zeros from rounding small negatives."""
    return np.round(rng.normal(size=(n_rows, D)), 1)


def degenerate_artifact(scheme: str) -> ModelArtifact:
    """Five clusters: two ordinary ones, one with no members, one with no
    dimensions and one without member projections (an older artifact's)."""
    data = rounded_rows(np.random.default_rng(17), 30)
    specs = [
        ([0, 2], data[:12], True),
        ([1, 3, 4], data[12:19], True),
        ([1], data[:0], True),
        ([], data[19:23], True),
        ([0, 4], data[23:30], False),
    ]
    clusters = []
    for dims, rows, with_projections in specs:
        dims = np.asarray(dims, dtype=int)
        if rows.shape[0]:
            mean = rows.mean(axis=0)
            median = np.median(rows, axis=0)
        else:
            mean = median = np.zeros(D)
        clusters.append(
            ClusterModel(
                dimensions=dims,
                members=np.arange(rows.shape[0]),
                representative=median,
                mean=mean,
                median=median,
                variance=column_variance(rows, mean) if rows.shape[0] else np.zeros(D),
                member_projections=rows[:, dims] if with_projections else None,
            )
        )
    description = {"scheme": "m", "m": 0.5} if scheme == "m" else {"scheme": "p", "p": 0.05}
    return ModelArtifact(
        clusters=clusters,
        labels=np.empty(0, dtype=int),
        n_objects=0,
        n_dimensions=D,
        threshold_description=description,
        global_variance=data.var(axis=0, ddof=1),
    )


OPERATIONS = (
    "fold", "fold", "fold", "predict_fold", "add", "remove", "reanchor", "trim", "refresh",
)


class TestFoldDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        scheme=st.sampled_from(["m", "p"]),
        window=st.sampled_from([None, 6]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_every_step_matches_the_reference_fold(self, scheme, window, seed, data):
        artifact = degenerate_artifact(scheme)
        index = ProjectedClusterIndex(artifact, projection_window=window)
        oracle = ProjectedClusterIndex(artifact, projection_window=window)
        rng = np.random.default_rng(seed)
        probe = rounded_rows(rng, 7)
        assert_same_state(index, oracle, probe)
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            operation = data.draw(st.sampled_from(OPERATIONS), label="operation")
            k = index.n_clusters
            position = data.draw(st.integers(0, k - 1), label="position")
            if operation == "fold":
                # Short label vectors: most clusters receive 0, 1 or 2 rows.
                labels = np.asarray(
                    data.draw(st.lists(st.integers(-1, k - 1), min_size=1, max_size=9),
                              label="labels")
                )
                points = rounded_rows(rng, labels.size)
                applied = index.partial_update(points, labels)
                np.testing.assert_array_equal(applied, labels)
                reference_fold(oracle, points, labels)
            elif operation == "predict_fold":
                points = rounded_rows(rng, data.draw(st.integers(1, 9), label="rows"))
                applied = index.partial_update(points)
                np.testing.assert_array_equal(applied, oracle.predict(points))
                reference_fold(oracle, points, applied)
            elif operation in ("add", "reanchor"):
                dims = np.asarray(
                    data.draw(st.lists(st.integers(0, D - 1), max_size=3), label="dims"),
                    dtype=int,
                )
                rows = rounded_rows(rng, data.draw(st.integers(1, 5), label="rows"))
                for target in (index, oracle):
                    if operation == "add":
                        target.add_cluster(dims, rows)
                    else:
                        target.reanchor_cluster(position, dims, rows)
            elif operation == "remove":
                if k > 1:
                    index.remove_cluster(position)
                    oracle.remove_cluster(position)
            elif operation == "trim":
                keep_last = data.draw(st.integers(1, 8), label="keep_last")
                index.trim_projections(position, keep_last)
                oracle.trim_projections(position, keep_last)
            else:
                variance = rng.random(D) + 0.05
                index.refresh_threshold(variance)
                oracle.refresh_threshold(variance)
            assert_same_state(index, oracle, probe)

    @pytest.mark.parametrize("scheme", ["m", "p"])
    def test_a_rolled_back_fold_restores_the_plan(self, scheme):
        """The fold writes plan rows in place; a rollback rebuilds them."""
        artifact = degenerate_artifact(scheme)
        index = ProjectedClusterIndex(artifact)
        untouched = ProjectedClusterIndex(artifact)
        probe = rounded_rows(np.random.default_rng(3), 7)
        with pytest.raises(RuntimeError, match="commit failed"):
            with index.rollback_on_error():
                index.partial_update(rounded_rows(np.random.default_rng(4), 9),
                                     np.asarray([0, 1, 2, 0, 1, 4, 4, -1, 0]))
                raise RuntimeError("commit failed")
        assert_same_state(index, untouched, probe)


# ---------------------------------------------------------------------- #
# degenerate stream batches (partial_update and process_batch)
# ---------------------------------------------------------------------- #
@pytest.fixture()
def stream_artifact(fitted_sspc):
    return fitted_sspc.to_artifact()


def degenerate_batches(fitted_sspc, small_dataset):
    """``{name: (points, expected labels)}`` for the three degenerate batches."""
    data = small_dataset.data
    rng = np.random.default_rng(8)
    members = fitted_sspc.result_.clusters[0].members
    far = data.mean(axis=0) + 50 * data.std(axis=0)
    one_cluster = data[members[:12]] + rng.normal(scale=1e-3, size=(12, data.shape[1]))
    return {
        "all_outliers": (far + rng.normal(size=(16, data.shape[1])),
                         np.full(16, OUTLIER_LABEL)),
        "one_cluster": (one_cluster, np.zeros(12, dtype=int)),
        "one_row": (data[members[0]], np.zeros(1, dtype=int)),
    }


BATCH_NAMES = ("all_outliers", "one_cluster", "one_row")


class TestDegenerateBatches:
    @pytest.mark.parametrize("name", BATCH_NAMES)
    @pytest.mark.parametrize("window", [None, 8])
    def test_partial_update(self, stream_artifact, fitted_sspc, small_dataset, name, window):
        points, expected = degenerate_batches(fitted_sspc, small_dataset)[name]
        probe = small_dataset.data[:9]
        for labels in (None, expected):
            index = ProjectedClusterIndex(stream_artifact, projection_window=window)
            oracle = ProjectedClusterIndex(stream_artifact, projection_window=window)
            plans = [index._engine.cluster_plan(i) for i in range(index.n_clusters)]
            applied = index.partial_update(points, labels)
            np.testing.assert_array_equal(applied, expected)
            reference_fold(oracle, points, expected)
            assert_same_state(index, oracle, probe)
            for position in range(index.n_clusters):
                if position not in expected:
                    for got, before in zip(index._engine.cluster_plan(position), plans[position]):
                        assert_bits(got, before)

    @pytest.mark.parametrize("name", BATCH_NAMES)
    def test_process_batch(self, stream_artifact, fitted_sspc, small_dataset, name):
        points, expected = degenerate_batches(fitted_sspc, small_dataset)[name]
        engine = StreamingSSPC(stream_artifact, config=StreamConfig(projection_window=8))
        oracle = ProjectedClusterIndex(stream_artifact, projection_window=8)
        result = engine.process_batch(points)
        np.testing.assert_array_equal(result.labels, expected)
        n_rows = expected.size
        assert result.n_outliers == int(np.count_nonzero(expected == OUTLIER_LABEL))
        assert result.n_assigned == n_rows - result.n_outliers
        reference_fold(oracle, points, expected)
        assert_same_state(engine.index, oracle, small_dataset.data[:9])
        block = np.atleast_2d(points)
        np.testing.assert_array_equal(engine.outliers.rows, block[expected == OUTLIER_LABEL])
        for position, window in enumerate(engine._windows):
            np.testing.assert_array_equal(window.rows, block[expected == position])
        size, mean, variance = engine.global_statistics
        assert size == n_rows
        assert_bits(mean, block.mean(axis=0))
        assert_bits(variance, column_variance(block, block.mean(axis=0)))
