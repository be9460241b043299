"""High-throughput out-of-sample inference over a persisted clustering.

:class:`ProjectedClusterIndex` is the serving subsystem's query engine:
it takes a :class:`~repro.serving.artifact.ModelArtifact` (or a live
fitted estimator's artifact) and assigns *batches* of unseen points to
the learned projected clusters.

The assignment rule is the same one SSPC's own assignment step uses
(Listing 2, step 3): the score gain of placing ``x`` into cluster ``C_i``
with median ``c`` and selected dimensions ``V_i`` is ::

    gain_i(x) = sum_{v_j in V_i} (1 - (x_j - c_j)^2 / s_hat^2_ij)

where the thresholds ``s_hat^2_ij`` come from the artifact's stored
scheme and global variances, evaluated at the cluster's current size.
The center is the cluster median on the selected dimensions, the robust
center the objective (Eq. 3–4) is built on.  A point joins the cluster
with the largest positive gain; a point whose best gain is not positive
lands on the outlier list (label ``-1``) — exactly the paper's outlier
gate, now applied to traffic the model never saw during fitting.

The batch kernel reuses the PR-1 fused-assignment shape: clusters are
grouped by selected-dimension count and each group is one broadcasted
``(n, g, c)`` gather-plus-reduction, so scoring cost is one fused numpy
pass instead of ``k`` Python-level loops — and, because every per-cluster
reduction runs over the same elements in the same order as the
single-point kernel, the batch path is **bit-identical** to scoring each
point on its own.

Incremental-plan contract: the index holds a live
:class:`~repro.core.assignment_engine.AssignmentEngine` plan — the
per-cluster dimension/center/threshold arrays are validated and stacked
*once* at construction instead of being re-coerced for every ``predict``
batch, and every mutation that can change a gain column patches exactly
the affected plan entries:

* :meth:`ProjectedClusterIndex.partial_update` moves a touched cluster's
  center and size, never its dimensions, so it writes the new center —
  and, under a size-dependent threshold scheme, the new thresholds —
  straight into the cluster's plan row
  (:meth:`~repro.core.assignment_engine.AssignmentEngine.write_center`).
  Only a cluster that had no members, and so no plan row, goes through
  the full patch below when its first rows arrive;
* :meth:`~ProjectedClusterIndex.add_cluster` /
  :meth:`~ProjectedClusterIndex.remove_cluster` /
  :meth:`~ProjectedClusterIndex.reanchor_cluster` /
  :meth:`~ProjectedClusterIndex.trim_projections` /
  :meth:`~ProjectedClusterIndex.refresh_threshold` re-submit the whole
  entry, which the engine copies, coerces and diffs
  (:meth:`~repro.core.assignment_engine.AssignmentEngine.update_cluster`).

Anything else added around the index (the streaming engine, custom
maintenance loops) must route cluster mutations through those methods —
they are the dirty-tracking API; mutating ``cluster_statistics``
snapshots or artifact payloads directly cannot reach the plan.  The
plan is the only state a mutation writes in place, and
:meth:`ProjectedClusterIndex.rollback_on_error` rebuilds it.

:meth:`ProjectedClusterIndex.partial_update` folds accepted points into
the cached per-cluster statistics without refitting: sizes / means /
variances merge exactly via
:func:`~repro.core.stats_cache.merge_mean_variance`, and — when the
artifact carries member projections — the per-cluster medians on the
selected dimensions, and with them the scoring centers, are maintained
*exactly* by appending the new rows' projections (cheap, because
projected clusters are low-dimensional).
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.assignment_engine import AssignmentEngine
from repro.core.model import OUTLIER_LABEL
from repro.core.objective import column_median, column_variance, partition_median
from repro.core.stats_cache import merge_mean_variance
from repro.core.thresholds import SelectionThreshold
from repro.serving.artifact import ModelArtifact, load_artifact
from repro.utils.validation import check_array_2d

__all__ = ["ProjectedClusterIndex", "ServingClusterStats"]

@dataclass
class ServingClusterStats:
    """Read-only snapshot of one cluster's serving-side statistics.

    ``mean`` and ``variance`` are full ``d``-vectors, kept exact across
    :meth:`ProjectedClusterIndex.partial_update` by streaming merges.
    ``median_selected`` is aligned with ``dimensions`` and is the
    cluster's scoring center — the serving layer maintains medians only
    on the selected dimensions (the only ones that influence
    assignment), and only exactly when the artifact carries member
    projections.
    """

    size: int
    dimensions: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    median_selected: np.ndarray


class _ServingCluster:
    """Mutable per-cluster state held by the index."""

    __slots__ = (
        "dimensions",
        "size",
        "mean",
        "variance",
        "median_selected",
        "projections",
        "score",
    )

    def __init__(
        self,
        *,
        dimensions: np.ndarray,
        size: int,
        mean: np.ndarray,
        variance: np.ndarray,
        median_selected: np.ndarray,
        projections: Optional[np.ndarray],
        score: float,
    ) -> None:
        self.dimensions = dimensions
        self.size = size
        self.mean = mean
        self.variance = variance
        self.median_selected = median_selected
        self.projections = projections
        self.score = score


def group_rows(
    points: np.ndarray, labels: np.ndarray, n_clusters: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``points`` ordered by label, and where each label's rows start.

    One stable argsort splits a batch: the rows labeled ``c`` are
    ``grouped[starts[c + 1] : starts[c + 2]]`` in their batch order, and
    the outliers (``-1``) are ``grouped[: starts[1]]``.  ``labels`` must
    lie in ``[-1, n_clusters)``.
    """
    order = np.argsort(labels, kind="stable")
    starts = np.zeros(n_clusters + 2, dtype=np.intp)
    np.cumsum(np.bincount(labels + 1, minlength=n_clusters + 1), out=starts[1:])
    return points[order], starts


def _appended_projections(
    projections: np.ndarray,
    rows: np.ndarray,
    dimensions: np.ndarray,
    window: Optional[int],
) -> np.ndarray:
    """A new buffer: ``projections`` then ``rows[:, dimensions]``, the newest ``window`` rows."""
    n_old, n_new = projections.shape[0], rows.shape[0]
    total = n_old + n_new if window is None else min(n_old + n_new, window)
    from_new = min(n_new, total)
    from_old = total - from_new
    buffer = np.empty((total, dimensions.size))
    buffer[:from_old] = projections[n_old - from_old :]
    buffer[from_old:] = rows[n_new - from_new :, dimensions]
    return buffer


class ProjectedClusterIndex:
    """Batch assignment of unseen points to learned projected clusters.

    Parameters
    ----------
    artifact:
        The persisted model to serve.  An artifact whose ``parameters``
        record ``allow_outliers: false`` (a retired fitting option that
        force-assigned every object) is rejected with ``ValueError``:
        serving it behind the outlier gate would not match its fit.
    projection_window:
        When set, every cluster's projection buffer is bounded to this
        many newest rows as points fold in (and when clusters are built
        from rows), so the maintained median becomes a sliding-window
        median — the bounded-memory mode the streaming engine runs in.
        ``None`` (default) keeps the exact full-history behaviour.

    The index *aliases* the artifact's member-projection buffers, the
    artifact's dominant payload, which is what makes an index over a
    memory-mapped artifact (``load_artifact(..., mmap_mode="r")``)
    nearly free.  Safe because the index never writes into a projection
    buffer in place — every mutation (:meth:`partial_update`,
    :meth:`trim_projections`, ...) *replaces* the buffer with a freshly
    built array, at which point the cluster stops referencing the
    artifact's.  So do not mutate the artifact's arrays in place while
    the index serves.  The small per-cluster statistic vectors are
    always copied.

    Notes
    -----
    Empty clusters (no training members) and clusters with an empty
    dimension set can never win an assignment — their gain column is
    pinned to ``-inf``, matching the training-time assignment step.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        *,
        projection_window: Optional[int] = None,
    ) -> None:
        if projection_window is not None and projection_window < 1:
            raise ValueError("projection_window must be positive or None")
        if not artifact.parameters.get("allow_outliers", True):
            raise ValueError(
                "the artifact was fitted with allow_outliers=False, a retired option "
                "that force-assigned every object; refit it to serve it"
            )
        self.projection_window = projection_window
        self.n_dimensions = int(artifact.n_dimensions)
        self.algorithm = artifact.algorithm
        self._parameters = dict(artifact.parameters)
        self._threshold_description = dict(artifact.threshold_description)
        self._threshold: SelectionThreshold = artifact.threshold()
        # Artifacts written back after partial_update record the absorbed
        # per-cluster sizes in metadata (the member index list can only
        # name training objects); honour them so size-dependent
        # thresholds survive a save/load cycle.
        serving_sizes = artifact.metadata.get("serving_sizes")
        if not (
            isinstance(serving_sizes, (list, tuple))
            and len(serving_sizes) == len(artifact.clusters)
        ):
            serving_sizes = [cluster.size for cluster in artifact.clusters]
        self._clusters: List[_ServingCluster] = []
        for position, (cluster, serving_size) in enumerate(
            zip(artifact.clusters, serving_sizes)
        ):
            dims = cluster.dimensions.copy()
            projections = None
            if cluster.member_projections is not None:
                projections = np.asarray(cluster.member_projections, dtype=float)
                # The maintained medians are taken of these buffers; one
                # NaN would make the center NaN and every point an outlier.
                if not np.isfinite(projections).all():
                    raise ValueError(
                        "cluster %d's member projections hold NaN or infinite values"
                        % position
                    )
            self._clusters.append(
                _ServingCluster(
                    dimensions=dims,
                    size=int(serving_size),
                    mean=cluster.mean.copy(),
                    variance=cluster.variance.copy(),
                    median_selected=cluster.median[dims].copy(),
                    projections=projections,
                    score=float(cluster.score),
                )
            )
        self.n_updates = 0
        self.n_points_absorbed = 0
        # The live assignment plan: per-cluster dims / centers /
        # thresholds coerced and stacked once, then surgically patched
        # by the mutation methods below instead of being rebuilt from
        # the cluster list on every predict batch.
        self._engine = AssignmentEngine()
        self._plan_all()

    def _plan_all(self) -> None:
        """(Re)build the whole engine plan from the cluster list."""
        specs = [self._plan_spec(cluster) for cluster in self._clusters]
        self._engine.set_clusters(
            [spec[0] for spec in specs],
            [spec[1] for spec in specs],
            [spec[2] for spec in specs],
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_path(cls, path) -> "ProjectedClusterIndex":
        """Load an artifact directory and build an index over it."""
        return cls(load_artifact(path))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        """Number of clusters served."""
        return len(self._clusters)

    def cluster_statistics(self, cluster_index: int) -> ServingClusterStats:
        """Current statistics snapshot of one cluster."""
        cluster = self._clusters[cluster_index]
        return ServingClusterStats(
            size=int(cluster.size),
            dimensions=cluster.dimensions.copy(),
            mean=cluster.mean.copy(),
            variance=cluster.variance.copy(),
            median_selected=cluster.median_selected.copy(),
        )

    def cluster_sizes(self) -> np.ndarray:
        """Current per-cluster sizes (training members + absorbed points)."""
        return np.asarray([cluster.size for cluster in self._clusters], dtype=int)

    @property
    def threshold(self) -> SelectionThreshold:
        """The live selection-threshold scheme the index scores with."""
        return self._threshold

    @property
    def threshold_description(self) -> dict:
        """The served threshold scheme's description (``{"scheme": ...}``)."""
        return dict(self._threshold_description)

    @property
    def global_variance(self) -> np.ndarray:
        """Global column variances the served thresholds are fitted on."""
        return self._threshold.global_variance.copy()

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def _cluster_thresholds(self, cluster: _ServingCluster) -> np.ndarray:
        """Thresholds on the cluster's selected dimensions at its current size."""
        return self._threshold.values(max(cluster.size, 2))[cluster.dimensions]

    def _servable(self, cluster: _ServingCluster) -> bool:
        """Whether the cluster can win assignments at all."""
        return cluster.size > 0 and cluster.dimensions.size > 0

    def _plan_spec(self, cluster: _ServingCluster):
        """One cluster's ``(dims, center, thresholds)`` engine-plan entry.

        Unservable clusters contribute an empty dimension set, which the
        engine pins to a ``-inf`` column — matching the training-time
        assignment step.
        """
        if not self._servable(cluster):
            empty = np.empty(0)
            return np.empty(0, dtype=int), empty, empty
        return cluster.dimensions, cluster.median_selected, self._cluster_thresholds(cluster)

    def _sync_plan(self, position: int) -> None:
        """Re-patch one cluster's engine-plan entry after a mutation."""
        self._engine.update_cluster(position, *self._plan_spec(self._clusters[position]))

    def gains_matrix(self, points: np.ndarray) -> np.ndarray:
        """The ``(n, k)`` assignment-gain matrix for a batch of points.

        Evaluated by the index's persistent
        :class:`~repro.core.assignment_engine.AssignmentEngine` plan:
        the grouped cluster stacks survive across calls (and across
        :meth:`partial_update` folds and lifecycle events, which patch
        only the mutated entries), and the ``(n, g, c)`` temporaries are
        reusable bounded workspaces rather than per-call broadcasts.
        Bit-identical to the
        :func:`~repro.core.objective.grouped_assignment_gains` reference
        kernel and to stacking :meth:`gains_single` over the rows.
        """
        points = self.check_points(points)
        return self._engine.compute(points)

    def gains_single(self, point: np.ndarray) -> np.ndarray:
        """Length-``k`` gain vector for one point (reference scalar path).

        Exists for the batch/single equivalence contract (and its tests):
        the elementwise operations and the reduction order match the
        grouped batch kernel exactly, so
        ``gains_matrix(X)[i] == gains_single(X[i])`` bit for bit.
        """
        point = np.asarray(point, dtype=float).ravel()
        if point.shape[0] != self.n_dimensions:
            raise ValueError(
                "point has %d dimensions, expected %d" % (point.shape[0], self.n_dimensions)
            )
        gains = np.full(self.n_clusters, -np.inf)
        for index, cluster in enumerate(self._clusters):
            if not self._servable(cluster):
                continue
            deltas = point[cluster.dimensions] - cluster.median_selected
            gains[index] = (1.0 - (deltas ** 2) / self._cluster_thresholds(cluster)).sum()
        return gains

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Hard labels for a batch of points (``-1`` marks outliers).

        Deterministic: a pure function of the artifact state and the
        input batch.
        """
        return self._predict(self.check_points(points))

    def _predict(self, points: np.ndarray) -> np.ndarray:
        """:meth:`predict` of a block :meth:`check_points` returned.

        The daemon's backends call this with the blocks its body parser
        proved finite, float64 and ``d`` wide.
        """
        with obs.span("serve.predict", category="serve") as pred_span:
            gains = self._engine.compute(points)
            labels = self._labels_from_gains(gains)
            recorder = obs.get_recorder()
            if recorder is not None:
                n_outliers = int(np.count_nonzero(labels == OUTLIER_LABEL))
                recorder.incr("serve.points_scored", float(labels.shape[0]))
                recorder.incr("serve.outliers", float(n_outliers))
                pred_span.set(rows=int(labels.shape[0]), outliers=n_outliers)
            return labels

    def predict_one(self, point: np.ndarray) -> int:
        """Hard label for a single point via the scalar reference path."""
        gains = self.gains_single(point)
        best = int(np.argmax(gains))
        return best if gains[best] > 0.0 else OUTLIER_LABEL

    def top_assignments(
        self, points: np.ndarray, top_m: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Soft assignments: each point's ``top_m`` clusters by gain.

        Returns ``(labels, clusters, gains)`` where ``labels`` is the
        hard outlier-gated label vector, and ``clusters`` / ``gains`` are
        ``(n, top_m)`` arrays of cluster indices and their score gains in
        decreasing-gain order (``-1`` / ``-inf`` padding when fewer than
        ``top_m`` clusters are servable).
        """
        if top_m < 1:
            raise ValueError("top_m must be at least 1")
        return self._top_assignments(self.check_points(points), top_m)

    def _top_assignments(
        self, points: np.ndarray, top_m: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`top_assignments` of a block :meth:`check_points` returned."""
        gains = self._engine.compute(points)
        n = gains.shape[0]
        m = min(int(top_m), self.n_clusters)
        order = np.argsort(-gains, axis=1, kind="stable")[:, :m]
        top_gains = np.take_along_axis(gains, order, axis=1)
        top_clusters = order.astype(int)
        top_clusters[~np.isfinite(top_gains)] = OUTLIER_LABEL
        if m < top_m:
            pad = top_m - m
            top_clusters = np.hstack(
                [top_clusters, np.full((n, pad), OUTLIER_LABEL, dtype=int)]
            )
            top_gains = np.hstack([top_gains, np.full((n, pad), -np.inf)])
        return self._labels_from_gains(gains), top_clusters, top_gains

    def outliers(self, points: np.ndarray) -> np.ndarray:
        """Row indices of ``points`` that fail the outlier gate."""
        return np.flatnonzero(self.predict(points) == OUTLIER_LABEL)

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def partial_update(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fold accepted points into the cached statistics without refitting.

        Points are first assigned (unless ``labels`` is given); rows whose
        label is ``-1`` are ignored.  For each cluster that accepted
        points:

        * ``size`` / ``mean`` / ``variance`` are merged exactly via
          :func:`~repro.core.stats_cache.merge_mean_variance` — identical
          (up to float rounding) to a from-scratch pass over the union of
          old members and new points;
        * when the artifact carries member projections, the projection
          buffer is extended and the median over the selected dimensions
          — the scoring center — is recomputed from it, *exactly* the
          median of the union.  Without projections the median stays
          frozen at its training value, while sizes still advance the
          size-dependent thresholds.

        The batch is split by label once, each touched cluster is folded
        once, and its plan row is written in place (see the module
        notes).  Returns the label vector that was applied.
        """
        return self._fold(self.check_points(points), labels)[0]

    def _fold(
        self, points: np.ndarray, labels: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`partial_update` of a block :meth:`check_points` returned.

        Returns ``(labels, grouped, starts)``: the applied labels and the
        batch split by them (:func:`group_rows`).  The stream engine
        checks each batch once, folds it here and files the split rows
        into its windows without splitting the batch again.
        """
        if labels is None:
            labels = self._predict(points)
        else:
            labels = np.asarray(labels, dtype=int).ravel()
            if labels.shape[0] != points.shape[0]:
                raise ValueError(
                    "labels has length %d but points has %d rows"
                    % (labels.shape[0], points.shape[0])
                )
            if labels.size and labels.max() >= self.n_clusters:
                raise ValueError("labels reference clusters outside the model")
            if labels.size and labels.min() < OUTLIER_LABEL:
                raise ValueError(
                    "labels may not contain values below %d (the outlier sentinel)"
                    % OUTLIER_LABEL
                )

        with obs.span("serve.partial_update", category="serve") as fold_span:
            grouped, starts = group_rows(points, labels, len(self._clusters))
            # Clusters that absorbed nothing keep their state and plan rows.
            for position in np.flatnonzero(np.diff(starts)[1:]).tolist():
                self._fold_rows(position, grouped[starts[position + 1] : starts[position + 2]])
            absorbed = int(starts[-1] - starts[1])
            self.n_updates += 1
            self.n_points_absorbed += absorbed
            fold_span.set(rows=int(points.shape[0]), absorbed=absorbed)
        obs.incr("serve.points_absorbed", float(absorbed))
        return labels, grouped, starts

    def _fold_rows(self, position: int, rows: np.ndarray) -> None:
        """Fold one cluster's accepted ``rows``: statistics, median and plan row, once each."""
        cluster = self._clusters[position]
        was_servable = self._servable(cluster)
        n_rows = rows.shape[0]
        batch_mean = np.add.reduce(rows, 0) / n_rows
        cluster.size, cluster.mean, cluster.variance = merge_mean_variance(
            cluster.size,
            cluster.mean,
            cluster.variance,
            n_rows,
            batch_mean,
            column_variance(rows, batch_mean),
        )
        if cluster.projections is not None:
            # A fresh buffer, bounded *before* the median so windowed mode
            # pays a single median pass per fold.  Its rows are finite (a
            # folded block is checked, and so are the artifact's buffers
            # when the index is built), so the median needs only
            # column_median's kernel, without its coercion and NaN rule.
            cluster.projections = _appended_projections(
                cluster.projections, rows, cluster.dimensions, self.projection_window
            )
            cluster.median_selected = partition_median(cluster.projections.T.copy())
        if was_servable:
            # A fold moves the center and the size, never the dimensions:
            # write the plan row in place.  The thresholds move only under
            # a size-dependent scheme.
            self._engine.write_center(
                position,
                cluster.median_selected,
                self._cluster_thresholds(cluster) if self._threshold.depends_on_size else None,
            )
        elif cluster.dimensions.size:
            # An empty cluster became servable: it joins its plan group.
            self._sync_plan(position)

    def fold_into(self, artifact: ModelArtifact) -> ModelArtifact:
        """Write the index's updated statistics back into ``artifact``.

        The public persistence path after :meth:`partial_update`: sizes,
        means and variances are replaced by the merged values, the stored
        full-``d`` median vector is refreshed on the selected dimensions
        (the only entries serving reads) and the projection buffers
        replace the stored ones.  Training member indices and labels are
        left as fitted — absorbed points are out-of-sample and have no
        training index — so the absorbed per-cluster sizes are recorded
        as ``metadata["serving_sizes"]``, which a future index built from
        the artifact resumes from.  Returns ``artifact`` (mutated in
        place) so ``index.fold_into(artifact).save(path)`` chains.
        """
        if len(artifact.clusters) != self.n_clusters:
            raise ValueError(
                "artifact has %d clusters but the index serves %d"
                % (len(artifact.clusters), self.n_clusters)
            )
        if artifact.n_dimensions != self.n_dimensions:
            raise ValueError(
                "artifact has %d dimensions but the index serves %d"
                % (artifact.n_dimensions, self.n_dimensions)
            )
        for position, cluster in enumerate(artifact.clusters):
            if not np.array_equal(cluster.dimensions, self._clusters[position].dimensions):
                raise ValueError(
                    "artifact cluster %d selects different dimensions than the index "
                    "serves — refusing to fold statistics into a different model"
                    % position
                )
        for position, cluster in enumerate(artifact.clusters):
            state = self._clusters[position]
            cluster.mean = state.mean.copy()
            cluster.variance = state.variance.copy()
            cluster.median = cluster.median.copy()
            cluster.median[state.dimensions] = state.median_selected
            if state.projections is not None:
                cluster.member_projections = state.projections.copy()
        artifact.metadata["absorbed_points"] = (
            int(artifact.metadata.get("absorbed_points", 0)) + int(self.n_points_absorbed)
        )
        artifact.metadata["serving_sizes"] = [int(size) for size in self.cluster_sizes()]
        return artifact

    # ------------------------------------------------------------------ #
    # cluster lifecycle (streaming maintenance)
    # ------------------------------------------------------------------ #
    def _state_from_rows(
        self, dimensions: np.ndarray, rows: np.ndarray, score: float
    ) -> _ServingCluster:
        """Build a serving-cluster state from a block of member rows."""
        dimensions = np.unique(np.asarray(dimensions, dtype=int))
        if dimensions.size and (dimensions.min() < 0 or dimensions.max() >= self.n_dimensions):
            raise ValueError("dimensions reference columns outside the model")
        rows = self.check_points(rows)
        mean = rows.mean(axis=0)
        variance = column_variance(rows, mean)
        projections = rows[:, dimensions].copy()
        if self.projection_window is not None and projections.shape[0] > self.projection_window:
            projections = projections[-self.projection_window:].copy()
        return _ServingCluster(
            dimensions=dimensions,
            size=int(rows.shape[0]),
            mean=mean,
            variance=variance,
            median_selected=column_median(projections),
            projections=projections,
            score=float(score),
        )

    def add_cluster(
        self, dimensions: np.ndarray, rows: np.ndarray, *, score: float = float("nan")
    ) -> int:
        """Spawn a new cluster from ``rows`` on ``dimensions``; returns its position.

        The streaming engine uses this when a dense region accumulates in
        its outlier buffer.  The new cluster's statistics (and exact
        projections, hence exact medians) come entirely from ``rows``.
        """
        state = self._state_from_rows(dimensions, rows, score)
        self._clusters.append(state)
        self._engine.add_cluster(*self._plan_spec(state))
        self.n_points_absorbed += state.size
        return len(self._clusters) - 1

    def remove_cluster(self, position: int) -> None:
        """Retire the cluster at ``position`` (later positions shift down)."""
        if not (0 <= position < len(self._clusters)):
            raise IndexError("cluster position %d out of range" % position)
        del self._clusters[position]
        self._engine.remove_cluster(position)

    def reanchor_cluster(
        self, position: int, dimensions: np.ndarray, rows: np.ndarray
    ) -> None:
        """Re-anchor a drifted cluster on a recent window of its traffic.

        Replaces the cluster's selected dimensions, statistics, medians
        and projection buffer with those of ``rows`` — the streaming
        drift response: the stale history stops influencing thresholds,
        centers and medians, while the cluster keeps its position (and
        its stable id in the engine above).
        """
        if not (0 <= position < len(self._clusters)):
            raise IndexError("cluster position %d out of range" % position)
        score = self._clusters[position].score
        self._clusters[position] = self._state_from_rows(dimensions, rows, score)
        self._sync_plan(position)

    def trim_projections(self, position: int, keep_last: int) -> None:
        """Bound a cluster's projection buffer to its ``keep_last`` newest rows.

        After a trim the maintained median becomes the median of the
        retained window rather than of the full absorbed history — the
        bounded-memory trade the streaming engine opts into explicitly.
        """
        if not (0 <= position < len(self._clusters)):
            raise IndexError("cluster position %d out of range" % position)
        if keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        cluster = self._clusters[position]
        if cluster.projections is not None and cluster.projections.shape[0] > keep_last:
            cluster.projections = cluster.projections[-keep_last:].copy()
            cluster.median_selected = column_median(cluster.projections)
            self._sync_plan(position)

    @contextmanager
    def rollback_on_error(self) -> Iterator[None]:
        """Put the clusters and fold counters back as they were on entry if the block raises.

        Mutations replace a cluster's arrays instead of writing into them,
        so a shallow copy of each cluster keeps its entry state, and the
        plan, which a fold writes in place, is rebuilt from it.  The
        threshold scheme (:meth:`refresh_threshold`) is not restored.
        """
        clusters = [copy.copy(cluster) for cluster in self._clusters]
        counters = self.n_updates, self.n_points_absorbed
        try:
            yield
        except BaseException:
            self._clusters = clusters
            self.n_updates, self.n_points_absorbed = counters
            self._plan_all()
            raise

    def refresh_threshold(self, global_variance: np.ndarray) -> None:
        """Refit the served selection thresholds on new global variances.

        Streaming drift moves the global population too; the engine
        passes its running column variances here so size-dependent
        thresholds track the stream instead of the long-gone training
        snapshot.  Memoized threshold vectors are invalidated by the
        refit, and every cluster's planned threshold row is re-patched.
        """
        self._threshold.fit_from_variance(global_variance)
        for position in range(len(self._clusters)):
            self._sync_plan(position)

    def export_artifact(self, *, metadata=None) -> ModelArtifact:
        """Capture the index's *current* state as a fresh :class:`ModelArtifact`.

        Unlike :meth:`fold_into` — which writes statistics back into the
        artifact that built the index and therefore requires an unchanged
        cluster structure — this constructs a new artifact from the live
        serving state, so it works after :meth:`add_cluster` /
        :meth:`remove_cluster` / :meth:`reanchor_cluster` and after
        :meth:`refresh_threshold`.  Training-only payloads (member
        indices, training labels) are empty: clusters born or re-anchored
        at serving time have no training members.  An index rebuilt from
        the exported artifact serves bit-identically to this one.
        """
        from repro.serving.artifact import ClusterModel

        clusters = []
        for state in self._clusters:
            median = state.mean.copy()
            median[state.dimensions] = state.median_selected
            clusters.append(
                ClusterModel(
                    dimensions=state.dimensions.copy(),
                    members=np.empty(0, dtype=int),
                    representative=median.copy(),
                    mean=state.mean.copy(),
                    median=median,
                    variance=state.variance.copy(),
                    score=float(state.score),
                    member_projections=(
                        state.projections.copy() if state.projections is not None else None
                    ),
                )
            )
        merged_metadata = dict(metadata or {})
        merged_metadata["serving_sizes"] = [int(size) for size in self.cluster_sizes()]
        merged_metadata["absorbed_points"] = int(self.n_points_absorbed)
        return ModelArtifact(
            clusters=clusters,
            labels=np.empty(0, dtype=int),
            n_objects=0,
            n_dimensions=self.n_dimensions,
            threshold_description=dict(self._threshold_description),
            global_variance=self._threshold.global_variance.copy(),
            algorithm=self.algorithm,
            parameters=dict(self._parameters),
            metadata=merged_metadata,
        )

    def check_points(self, points: np.ndarray) -> np.ndarray:
        """``points`` as the finite ``(n, d)`` float block every entry point takes.

        A 1-d array is one point.  Raises :class:`ValueError` for an empty
        batch, a non-finite value or a width other than the model's.
        """
        points = check_array_2d(points, name="points", min_rows=1)
        if points.shape[1] != self.n_dimensions:
            raise ValueError(
                "points have %d dimensions, the model expects %d"
                % (points.shape[1], self.n_dimensions)
            )
        return points

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _labels_from_gains(self, gains: np.ndarray) -> np.ndarray:
        n = gains.shape[0]
        labels = np.full(n, OUTLIER_LABEL, dtype=int)
        if gains.shape[1] == 0:
            return labels
        best_cluster = np.argmax(gains, axis=1)
        best_gain = gains[np.arange(n), best_cluster]
        accepted = best_gain > 0.0
        labels[accepted] = best_cluster[accepted]
        return labels

    def __repr__(self) -> str:
        return "ProjectedClusterIndex(k=%d, d=%d, absorbed=%d)" % (
            self.n_clusters,
            self.n_dimensions,
            self.n_points_absorbed,
        )
