"""HARP: hierarchical projected clustering with automatic relevance thresholds.

Yip, Cheung & Ng (TKDE 2004); re-created here from the description in
Section 2.1 of the SSPC paper.  The core assumption is that two objects
(or small clusters) are likely to belong to the same real cluster if they
are very similar along many dimensions.  HARP therefore performs
agglomerative merging gated by two thresholds:

* a minimum per-dimension *relevance* a merged cluster must reach on a
  dimension for the dimension to count as selected, and
* a minimum *number of selected dimensions* a merge must produce.

The thresholds start harsh (only merges that are almost certainly correct
are allowed) and are progressively loosened over a fixed number of
threshold levels until either the target number of clusters is reached or
the thresholds hit their baseline.

Relevance of dimension ``j`` to cluster ``C``: ``1 - s^2_Cj / s^2_j``
(local variance relative to global variance; 1 means perfectly tight,
0 means no better than the global spread, negative means worse).  This is
the natural relevance index for the paper's data model and mirrors the
variance-ratio view used by SSPC's ``m`` threshold scheme.

The implementation keeps the merge search tractable by only evaluating,
for every cluster, its nearest neighbours in the subspace of its
currently selected dimensions — full pairwise evaluation at every level
would be quadratic in ``n`` with a large constant, which is the
"intrinsically slow" behaviour the SSPC paper notes; the neighbour list
keeps runtime manageable while preserving the algorithm's behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import ClusteringResult, ProjectedCluster
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_array_2d, check_cluster_count, check_positive_int


class _HarpCluster:
    """Internal bookkeeping for one HARP cluster (members + running stats)."""

    __slots__ = ("members", "sums", "sum_squares")

    def __init__(self, members: List[int], data: np.ndarray) -> None:
        self.members = list(members)
        block = data[self.members]
        self.sums = block.sum(axis=0)
        self.sum_squares = (block ** 2).sum(axis=0)

    @property
    def size(self) -> int:
        return len(self.members)

    def variance(self) -> np.ndarray:
        """Per-dimension sample variance of the cluster (0 for singletons)."""
        n = self.size
        if n < 2:
            return np.zeros_like(self.sums)
        mean = self.sums / n
        return np.maximum((self.sum_squares - n * mean ** 2) / (n - 1), 0.0)

    def mean(self) -> np.ndarray:
        return self.sums / self.size

    def merged_with(self, other: "_HarpCluster", data: np.ndarray) -> "_HarpCluster":
        merged = _HarpCluster.__new__(_HarpCluster)
        merged.members = self.members + other.members
        merged.sums = self.sums + other.sums
        merged.sum_squares = self.sum_squares + other.sum_squares
        return merged


class HARP:
    """Hierarchical projected clustering with dynamic thresholds.

    Parameters
    ----------
    n_clusters:
        Target number of clusters.
    n_threshold_levels:
        Number of loosening steps from the harshest thresholds to the
        baseline (the original algorithm's dynamic threshold schedule).
    max_relevance:
        Relevance threshold at the harshest level (close to 1).
    min_relevance:
        Baseline relevance threshold reached at the loosest level.  The
        default (0.5) keeps the gate meaningful: a dimension only counts
        as selected when the merged cluster's variance along it is at
        most half the global variance.
    min_selected_fraction:
        Baseline fraction of dimensions that must be selected for a merge
        to be allowed at the loosest level (the harshest level requires
        all dimensions).
    n_neighbors:
        Number of nearest neighbours evaluated as merge partners per
        cluster and level.
    random_state:
        Seed or generator (used only for tie-breaking the merge order).

    Attributes
    ----------
    labels_, dimensions_, result_ :
        Outputs after :meth:`fit`.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_threshold_levels: int = 10,
        max_relevance: float = 0.9,
        min_relevance: float = 0.5,
        min_selected_fraction: float = 0.01,
        n_neighbors: int = 10,
        random_state: RandomState = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=1)
        self.n_threshold_levels = check_positive_int(
            n_threshold_levels, name="n_threshold_levels", minimum=1
        )
        if not (0.0 <= min_relevance <= max_relevance <= 1.0):
            raise ValueError("need 0 <= min_relevance <= max_relevance <= 1")
        self.max_relevance = float(max_relevance)
        self.min_relevance = float(min_relevance)
        if not (0.0 < min_selected_fraction <= 1.0):
            raise ValueError("min_selected_fraction must be in (0, 1]")
        self.min_selected_fraction = float(min_selected_fraction)
        self.n_neighbors = check_positive_int(n_neighbors, name="n_neighbors", minimum=1)
        self.random_state = random_state

        self.labels_: Optional[np.ndarray] = None
        self.dimensions_: Optional[List[np.ndarray]] = None
        self.result_: Optional[ClusteringResult] = None

    # ------------------------------------------------------------------ #
    def fit(self, data) -> "HARP":
        """Cluster ``data`` by threshold-gated agglomerative merging."""
        data = check_array_2d(data, name="data", min_rows=2)
        check_cluster_count(self.n_clusters, data.shape[0])
        rng = ensure_rng(self.random_state)
        n_objects, n_dimensions = data.shape

        global_variance = np.maximum(data.var(axis=0, ddof=1), np.finfo(float).tiny)
        clusters: Dict[int, _HarpCluster] = {
            index: _HarpCluster([index], data) for index in range(n_objects)
        }

        for level in range(self.n_threshold_levels):
            if len(clusters) <= self.n_clusters:
                break
            relevance_threshold, min_selected = self._thresholds_at(level, n_dimensions)
            self._merge_pass(
                data, clusters, global_variance, relevance_threshold, min_selected, rng
            )

        # If merging stalled above the target k, force-merge the closest
        # remaining clusters (full-space centroid distance) so the output has
        # exactly k clusters, mirroring the "target number of clusters" stop.
        self._force_merge_to_k(data, clusters)

        labels = np.full(n_objects, -1, dtype=int)
        dimensions: List[np.ndarray] = []
        cluster_items = sorted(clusters.items(), key=lambda item: -item[1].size)[: self.n_clusters]
        for new_label, (_, cluster) in enumerate(cluster_items):
            labels[cluster.members] = new_label
            relevance = 1.0 - cluster.variance() / global_variance
            selected = np.flatnonzero(relevance >= max(self.min_relevance, 0.5))
            if selected.size == 0:
                selected = np.argsort(-relevance)[: max(2, n_dimensions // 10)]
            dimensions.append(np.sort(selected))

        self.labels_ = labels
        self.dimensions_ = dimensions
        clusters_out = [
            ProjectedCluster(members=np.flatnonzero(labels == index), dimensions=dimensions[index])
            for index in range(len(dimensions))
        ]
        self.result_ = ClusteringResult(
            clusters=clusters_out,
            n_objects=n_objects,
            n_dimensions=n_dimensions,
            objective=float("nan"),
            algorithm="HARP",
            parameters=self.get_params(),
        )
        return self

    def fit_predict(self, data) -> np.ndarray:
        """:meth:`fit` then return the labels."""
        return self.fit(data).labels_

    def get_params(self) -> Dict[str, object]:
        """Constructor parameters for reporting."""
        return {
            "n_clusters": self.n_clusters,
            "n_threshold_levels": self.n_threshold_levels,
            "max_relevance": self.max_relevance,
            "min_relevance": self.min_relevance,
            "min_selected_fraction": self.min_selected_fraction,
            "n_neighbors": self.n_neighbors,
        }

    # ------------------------------------------------------------------ #
    def _thresholds_at(self, level: int, n_dimensions: int) -> Tuple[float, int]:
        """Relevance / selected-count thresholds at one loosening level."""
        if self.n_threshold_levels == 1:
            fraction = 1.0
        else:
            fraction = level / (self.n_threshold_levels - 1)
        relevance = self.max_relevance - fraction * (self.max_relevance - self.min_relevance)
        max_selected = n_dimensions
        min_selected_baseline = max(int(np.ceil(self.min_selected_fraction * n_dimensions)), 1)
        min_selected = int(round(max_selected - fraction * (max_selected - min_selected_baseline)))
        return relevance, max(min_selected, 1)

    def _merge_pass(
        self,
        data: np.ndarray,
        clusters: Dict[int, _HarpCluster],
        global_variance: np.ndarray,
        relevance_threshold: float,
        min_selected: int,
        rng: np.random.Generator,
    ) -> None:
        """One pass of allowed merges at the current threshold level."""
        merged_away: set = set()
        cluster_ids = list(clusters.keys())
        rng.shuffle(cluster_ids)
        centroids = {cid: clusters[cid].mean() for cid in cluster_ids}
        relevances = {
            cid: np.maximum(1.0 - clusters[cid].variance() / global_variance, 0.0)
            for cid in cluster_ids
        }

        for cid in cluster_ids:
            if cid in merged_away or len(clusters) <= self.n_clusters:
                continue
            cluster = clusters[cid]
            candidates = self._nearest_neighbours(
                cid, clusters, centroids, merged_away, relevances.get(cid)
            )
            best_partner = None
            best_selected = -1
            for other_id in candidates:
                if other_id in merged_away or other_id == cid:
                    continue
                merged = cluster.merged_with(clusters[other_id], data)
                if merged.size < 2:
                    continue
                relevance = 1.0 - merged.variance() / global_variance
                n_selected = int(np.count_nonzero(relevance >= relevance_threshold))
                if n_selected >= min_selected and n_selected > best_selected:
                    best_partner = other_id
                    best_selected = n_selected
            if best_partner is not None:
                clusters[cid] = cluster.merged_with(clusters[best_partner], data)
                centroids[cid] = clusters[cid].mean()
                relevances[cid] = np.maximum(
                    1.0 - clusters[cid].variance() / global_variance, 0.0
                )
                del clusters[best_partner]
                merged_away.add(best_partner)

    def _nearest_neighbours(
        self,
        cid: int,
        clusters: Dict[int, _HarpCluster],
        centroids: Dict[int, np.ndarray],
        merged_away: set,
        relevance_weights: Optional[np.ndarray] = None,
    ) -> List[int]:
        """IDs of the closest other clusters by (relevance-weighted) centroid distance.

        Clusters that already exhibit structure weight the distance by their
        per-dimension relevance, so merge partners are sought in the
        cluster's own (emerging) relevant subspace instead of the full
        space — a singleton has no such structure yet and falls back to the
        unweighted distance.
        """
        others = [other for other in clusters if other != cid and other not in merged_away]
        if not others:
            return []
        base = centroids[cid]
        if relevance_weights is not None and clusters[cid].size >= 2 and relevance_weights.sum() > 0:
            weights = relevance_weights
        else:
            weights = np.ones_like(base)
        distances = np.asarray(
            [(weights * (centroids[other] - base) ** 2).sum() for other in others]
        )
        order = np.argsort(distances)[: self.n_neighbors]
        return [others[int(position)] for position in order]

    def _force_merge_to_k(self, data: np.ndarray, clusters: Dict[int, _HarpCluster]) -> None:
        """Merge closest centroid pairs until only ``n_clusters`` remain."""
        while len(clusters) > self.n_clusters:
            ids = list(clusters.keys())
            centroids = np.asarray([clusters[cid].mean() for cid in ids])
            distances = ((centroids[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            np.fill_diagonal(distances, np.inf)
            flat = int(np.argmin(distances))
            first, second = divmod(flat, len(ids))
            keep_id, drop_id = ids[first], ids[second]
            clusters[keep_id] = clusters[keep_id].merged_with(clusters[drop_id], data)
            del clusters[drop_id]
