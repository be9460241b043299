"""The SSPC objective function ``phi`` (Section 3, Eq. 1-4).

The objective combines object clustering and dimension selection in a
single optimisation problem.  For a clustering ``{C_i}`` with selected
dimension sets ``{V_i}``::

    phi     = (1 / (n d)) * sum_i phi_i                           (Eq. 1)
    phi_i   = sum_{v_j in V_i} phi_ij                             (Eq. 2)
    phi_ij  = n_i - 1 - (1 / s_hat^2_ij) * sum_{x in C_i} (x_j - median_ij)^2   (Eq. 3)
            = (n_i - 1) (1 - (s^2_ij + (mu_ij - median_ij)^2) / s_hat^2_ij)     (Eq. 4)

where ``n_i`` is the cluster size, ``median_ij`` / ``mu_ij`` / ``s^2_ij``
are the sample median / mean / variance of the cluster's projection on
dimension ``v_j``, and ``s_hat^2_ij`` is the selection threshold
(:mod:`repro.core.thresholds`).

Design properties (matching the three design goals in the paper):

1. Dimension selection follows directly from the data properties of each
   cluster/dimension pair (Lemma 1): select ``v_j`` exactly when
   ``s^2_ij + (mu_ij - median_ij)^2 < s_hat^2_ij``.
2. Better (lower variance) dimensions contribute *more* to ``phi_i``
   because ``phi_ij`` grows as ``s^2_ij`` shrinks, so the score cannot be
   dominated by accidentally selected irrelevant dimensions.
3. Dispersion is measured around the cluster *median*, making the score
   robust to outliers.

Note on Eq. 3 vs Eq. 4: expanding the sum of squared deviations from the
median gives ``sum (x_j - median)^2 = (n_i - 1) s^2_ij + n_i (mu_ij -
median_ij)^2``, so the two forms differ by whether the mean-median offset
is weighted by ``n_i`` or ``n_i - 1``.  The paper states them as equal;
we follow Eq. 4 (the form Lemma 1 and SelectDim are built on) as the
canonical definition and expose Eq. 3 separately for comparison.  The
difference vanishes as ``n_i`` grows and never changes which dimensions
are selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.assignment_engine import AssignmentEngine
from repro.core.thresholds import SelectionThreshold
from repro.utils.validation import check_array_2d


def grouped_assignment_gains(
    points: np.ndarray,
    cluster_dimensions: Sequence[np.ndarray],
    cluster_centers: Sequence[np.ndarray],
    cluster_thresholds: Sequence[np.ndarray],
) -> np.ndarray:
    """The grouped broadcast kernel shared by training and serving.

    Computes the ``(n, k)`` matrix of assignment gains ::

        gain_i(x) = sum_{v_j in V_i} (1 - (x_j - c_ij)^2 / s_hat^2_ij)

    for every point/cluster pair at once.  Clusters are grouped by
    selected-dimension count and each group is evaluated in one
    broadcasted pass over a contiguous ``(n, g, c)`` gather of
    ``points``; grouping (rather than padding) keeps every per-cluster
    reduction over exactly the same elements in the same order as a
    one-cluster call, so the matrix is **bit-identical** to ``k``
    separate one-cluster calls.

    This function is the *reference* kernel and the single source of
    truth for the gain arithmetic: the equivalence tests and the naive
    arm of the ``hotpath`` bench scenario compare against it.  The hot
    paths — the training loop
    (:meth:`ObjectiveFunction.assignment_gains_matrix`), the serving
    index (:meth:`repro.serving.index.ProjectedClusterIndex.gains_matrix`)
    and, through the index, the streaming engine — are backed by the
    stateful :class:`~repro.core.assignment_engine.AssignmentEngine`,
    which holds the grouped stacks persistently, recomputes only dirty
    columns against a fixed point set and evaluates in bounded row
    blocks; its results are bit-identical to this kernel (enforced by
    the equivalence suite and the ``hotpath`` bench scenario).

    Parameters
    ----------
    points:
        ``(n, d)`` rows to score.  Callers are expected to pass the
        canonical representation (C-contiguous float64, e.g. via
        :func:`repro.utils.validation.check_array_2d`) — the kernel
        indexes columns directly and performs no coercion of its own.
    cluster_dimensions:
        Per-cluster selected dimension index arrays.  Clusters with an
        empty array receive a ``-inf`` column (they can never win).
    cluster_centers, cluster_thresholds:
        Per-cluster center values and thresholds, each *already
        restricted* to the cluster's selected dimensions (length
        ``|V_i|`` arrays aligned with ``cluster_dimensions``; any other
        length raises ``ValueError``), preferably already contiguous
        float64 — list-of-array inputs are coerced here on every call,
        which is exactly the per-call cost the persistent engine plan
        exists to avoid.
    """
    k = len(cluster_dimensions)
    if not (len(cluster_centers) == len(cluster_thresholds) == k):
        raise ValueError("cluster_dimensions, cluster_centers and cluster_thresholds must align")
    gains = np.full((points.shape[0], k), -np.inf)
    groups: dict = {}
    for index in range(k):
        count = int(np.asarray(cluster_dimensions[index]).size)
        if count:
            groups.setdefault(count, []).append(index)
    for count, cluster_ids in groups.items():
        dims_stack = np.stack(
            [np.asarray(cluster_dimensions[index], dtype=int) for index in cluster_ids]
        )
        centers = np.stack(
            [np.asarray(cluster_centers[index], dtype=float) for index in cluster_ids]
        )
        thresholds = np.stack(
            [np.asarray(cluster_thresholds[index], dtype=float) for index in cluster_ids]
        )
        if centers.shape != dims_stack.shape or thresholds.shape != dims_stack.shape:
            raise ValueError("every center and threshold needs one value per selected dimension")
        deltas = points[:, dims_stack] - centers[None, :, :]
        gains[:, cluster_ids] = (1.0 - (deltas ** 2) / thresholds[None, :, :]).sum(axis=2)
    return gains


def column_median(block: np.ndarray) -> np.ndarray:
    """Per-column median of an ``(m, d)`` block, bit-identical to ``np.median(block, axis=0)``.

    The one column median of the library: the statistics pass, the
    serving fold and the stream all take it here.  ``np.median``
    partitions with three ``kth`` values (the two middle
    positions and ``-1`` for its NaN check); a single-``kth`` partition
    is several times faster.  This kernel copies the block with columns
    as contiguous rows and partitions every row once at ``m // 2``.  For
    an even ``m`` the lower middle value is the maximum of the lower
    half.  The middle values are added onto ``+0.0`` in the order
    ``np.mean`` adds them, so signed zeros, ties and infinities come out
    as ``np.median`` gives them, and a column holding a NaN is NaN.

    The input is never mutated and the result never views it, so
    read-only (e.g. memory-mapped) blocks are fine.  ``m`` must be at
    least 1; any number of columns, zero included, is accepted.
    """
    if block.ndim != 2 or block.shape[0] == 0:
        raise ValueError("column_median needs a 2-d block with at least one row")
    rows = block.shape[0]
    half = rows // 2
    columns = np.array(block.T, dtype=np.float64, order="C")
    columns.partition(half, axis=1)
    upper = columns[:, half]
    if rows % 2:
        median = 0.0 + upper
    else:
        median = (0.0 + columns[:, :half].max(axis=1) + upper) / 2.0
    # A NaN sorts last, so it lies at or after the partition point.
    median[np.isnan(columns[:, half:].max(axis=1))] = np.nan
    return median


def column_variance(block: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per-column ``ddof=1`` variance of ``block`` about its column ``mean``.

    ``block.var(axis=0, ddof=1)`` sums the block again for a mean the
    caller already holds; this is the same arithmetic on that mean, so
    the result is bit-identical to it.  Zero for fewer than two rows.
    """
    if block.shape[0] < 2:
        return np.zeros(block.shape[1])
    deviations = block - mean
    deviations *= deviations
    return deviations.sum(axis=0) / (block.shape[0] - 1)


@dataclass
class ClusterStatistics:
    """Per-dimension statistics of one cluster used by the objective.

    Attributes
    ----------
    size:
        Number of member objects ``n_i``.
    mean, median, variance:
        Per-dimension sample mean ``mu_ij``, median and variance
        ``s^2_ij`` (``ddof=1``; zero when fewer than two members).
    """

    size: int
    mean: np.ndarray
    median: np.ndarray
    variance: np.ndarray

    @classmethod
    def from_members(cls, data: np.ndarray, members: Sequence[int]) -> "ClusterStatistics":
        """Compute the statistics of ``members`` over every dimension.

        One gather of the member block feeds all three: the median comes
        from the single-select :func:`column_median` and the variance
        reuses the mean (:func:`column_variance`), so the result is
        bit-identical to ``np.median`` and ``block.var(ddof=1)``.
        """
        members = np.asarray(members, dtype=int)
        n_dimensions = data.shape[1]
        if members.size == 0:
            zeros = np.zeros(n_dimensions)
            return cls(size=0, mean=zeros.copy(), median=zeros.copy(), variance=zeros.copy())
        block = data[members]
        mean = block.mean(axis=0)
        return cls(
            size=int(members.size),
            mean=mean,
            median=column_median(block),
            variance=column_variance(block, mean),
        )

    def dispersion(self) -> np.ndarray:
        """The quantity compared against the threshold: ``s^2_ij + (mu_ij - median_ij)^2``."""
        return self.variance + (self.mean - self.median) ** 2


class ObjectiveFunction:
    """Evaluator for the SSPC objective on a fixed dataset.

    Parameters
    ----------
    data:
        The ``(n, d)`` dataset.
    threshold:
        A fitted (or to-be-fitted) :class:`SelectionThreshold`; when it is
        not yet fitted the constructor fits it on ``data``.
    stats_cache:
        A :class:`~repro.core.stats_cache.ClusterStatsCache` shared by
        every statistics consumer.  ``None`` (default) creates a fresh
        cache for this evaluator; pass an explicit cache to share one
        workspace across evaluators, or a cache with ``max_entries=0``
        to disable caching (the naive reference path).

    Notes
    -----
    The evaluator is stateless with respect to clusterings: every method
    receives explicit member / dimension index arrays so the SSPC main
    loop, the tests and the ablation benches can all share one instance.
    Cached statistics are keyed on the exact member byte sequence, so
    results are bit-identical with and without the cache.
    """

    def __init__(self, data, threshold: SelectionThreshold, *, stats_cache=None) -> None:
        self.data = check_array_2d(data, name="data", min_rows=2)
        if not threshold.is_fitted:
            threshold.fit(self.data)
        elif threshold.global_variance.shape[0] != self.data.shape[1]:
            raise ValueError(
                "threshold was fitted on %d dimensions but the data has %d"
                % (threshold.global_variance.shape[0], self.data.shape[1])
            )
        self.threshold = threshold
        if stats_cache is None:
            from repro.core.stats_cache import ClusterStatsCache

            stats_cache = ClusterStatsCache(self.data)
        elif stats_cache.data is not self.data:
            # A cache keyed against different data would silently serve
            # statistics of the wrong dataset.
            if stats_cache.data.shape != self.data.shape or not np.array_equal(
                stats_cache.data, self.data
            ):
                raise ValueError("stats_cache was built for different data")
        self.stats_cache = stats_cache
        # Lazily built incremental engine behind assignment_gains_matrix:
        # a persistent grouped plan plus a cached (n, k) gain matrix
        # whose columns are recomputed only for clusters that changed.
        self._assignment_engine = None

    # ------------------------------------------------------------------ #
    # basic shapes
    # ------------------------------------------------------------------ #
    @property
    def n_objects(self) -> int:
        """Number of objects ``n``."""
        return int(self.data.shape[0])

    @property
    def n_dimensions(self) -> int:
        """Number of dimensions ``d``."""
        return int(self.data.shape[1])

    # ------------------------------------------------------------------ #
    # per-dimension scores
    # ------------------------------------------------------------------ #
    def cluster_statistics(self, members: Sequence[int]) -> ClusterStatistics:
        """Statistics of a member set over all dimensions.

        Served from the shared :class:`ClusterStatsCache`, so repeated
        queries for the same member set (``SelectDim``, the ``phi``
        evaluation and the representative replacement all need it every
        iteration) cost a single statistics pass.
        """
        return self.stats_cache.statistics(members)

    def phi_ij_all(
        self,
        members: Sequence[int],
        *,
        statistics: Optional[ClusterStatistics] = None,
    ) -> np.ndarray:
        """Vector of ``phi_ij`` (Eq. 4) over every dimension for one cluster."""
        stats_ = statistics if statistics is not None else self.cluster_statistics(members)
        if stats_.size == 0:
            return np.zeros(self.n_dimensions)
        thresholds = self.threshold.values(stats_.size)
        return (stats_.size - 1) * (1.0 - stats_.dispersion() / thresholds)

    def phi_ij_all_eq3(
        self,
        members: Sequence[int],
        *,
        center: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vector of ``phi_ij`` following Eq. 3 literally.

        ``phi_ij = n_i - 1 - (1/s_hat^2_ij) sum_x (x_j - c_j)^2`` where the
        center ``c`` defaults to the member median but may be overridden —
        the SSPC assignment step substitutes the cluster representative's
        projection for the median (Listing 2, step 3).
        """
        members = np.asarray(members, dtype=int)
        if members.size == 0:
            return np.zeros(self.n_dimensions)
        block = self.data[members]
        if center is None:
            center = column_median(block)
        center = np.asarray(center, dtype=float).ravel()
        if center.shape[0] != self.n_dimensions:
            raise ValueError("center must have one value per dimension")
        squared = ((block - center) ** 2).sum(axis=0)
        thresholds = self.threshold.values(members.size)
        return members.size - 1.0 - squared / thresholds

    def phi_i(
        self,
        members: Sequence[int],
        dimensions: Sequence[int],
        *,
        statistics: Optional[ClusterStatistics] = None,
    ) -> float:
        """Per-cluster score ``phi_i`` (Eq. 2) over the selected dimensions."""
        dimensions = np.asarray(dimensions, dtype=int)
        if dimensions.size == 0:
            return 0.0
        scores = self.phi_ij_all(members, statistics=statistics)
        return float(scores[dimensions].sum())

    def phi(
        self,
        clusters: Iterable[Sequence[int]],
        dimensions: Iterable[Sequence[int]],
    ) -> float:
        """Overall objective ``phi`` (Eq. 1) for a full clustering.

        Parameters
        ----------
        clusters:
            Iterable of member index arrays, one per cluster.
        dimensions:
            Iterable of selected dimension index arrays, aligned with
            ``clusters``.
        """
        clusters = list(clusters)
        dimensions = list(dimensions)
        if len(clusters) != len(dimensions):
            raise ValueError(
                "got %d clusters but %d dimension sets" % (len(clusters), len(dimensions))
            )
        total = 0.0
        for members, dims in zip(clusters, dimensions):
            total += self.phi_i(members, dims)
        return float(total / (self.n_objects * self.n_dimensions))

    # ------------------------------------------------------------------ #
    # assignment support
    # ------------------------------------------------------------------ #
    def assignment_gains_matrix(
        self,
        representatives: Sequence[np.ndarray],
        dimension_sets: Sequence[Sequence[int]],
        cluster_sizes: Sequence[int],
    ) -> np.ndarray:
        """Improvement of every ``phi_i`` from adding each object: ``(n, k)``.

        During the assignment step the cluster median is temporarily
        substituted by the representative's projection (Listing 2,
        step 3).  With that substitution, Eq. 3 makes the contribution of
        a newly added object ``x`` to ``phi_i`` equal to::

            sum_{v_j in V_i} (1 - (x_j - rep_j)^2 / s_hat^2_ij)

        which is what this method returns for every object and cluster
        at once.  Objects whose gain is not positive for any cluster are
        placed on the outlier list by the caller.

        The matrix is backed by the incremental
        :class:`~repro.core.assignment_engine.AssignmentEngine`: the
        grouped per-cluster stacks persist across calls, the submitted
        clusters are diffed against that plan, and only the gain columns
        of clusters whose values actually changed are recomputed — the
        rest are served from the cached ``(n, k)`` matrix.  Columns are
        evaluated in bounded row blocks through preallocated workspaces,
        so no ``(n, g, c)`` broadcast is ever materialized.  The result
        is **bit-identical** to :func:`grouped_assignment_gains`: neither
        caching, row blocking nor dirty-only recomputation changes a
        single bit.

        Clusters with an empty dimension set receive ``-inf`` (they can
        never win an assignment), matching the assignment step's
        skip-and-keep--inf behaviour.

        Parameters
        ----------
        representatives:
            Per-cluster full ``d``-vectors.
        dimension_sets:
            Per-cluster selected dimension index arrays.
        cluster_sizes:
            Per-cluster sizes for the size-dependent threshold schemes
            (the chi-square scheme); values below 2 are clamped to 2.
            The paper's assignment step evaluates candidates against the
            cluster as it grows; using the size at the start of the pass
            is the stable choice and is what the caller passes.

        Returns
        -------
        numpy.ndarray
            Read-only ``(n, k)`` matrix of per-object score gains.  The
            buffer is the engine's live cache: consume it before the
            next ``assignment_gains_matrix`` call (copy it to keep it).
        """
        k = len(dimension_sets)
        if not (len(representatives) == len(cluster_sizes) == k):
            raise ValueError("representatives, dimension_sets and cluster_sizes must align")
        dimensions = [np.asarray(dims, dtype=int) for dims in dimension_sets]
        centers = [
            np.asarray(representatives[index], dtype=float).ravel()[dimensions[index]]
            for index in range(k)
        ]
        thresholds = [
            self.threshold.values(max(int(cluster_sizes[index]), 2))[dimensions[index]]
            for index in range(k)
        ]
        engine = self._assignment_engine
        if engine is None:
            engine = self._assignment_engine = AssignmentEngine(self.data)
        if engine.n_clusters != k:
            engine.set_clusters(dimensions, centers, thresholds)
        else:
            for index in range(k):
                engine.update_cluster(
                    index, dimensions[index], centers[index], thresholds[index]
                )
        gains = engine.gains().view()
        gains.flags.writeable = False
        return gains
