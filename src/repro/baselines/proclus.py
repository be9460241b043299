"""PROCLUS: PROjected CLUStering (Aggarwal et al., SIGMOD 1999).

PROCLUS is the partitional projected clustering baseline of the paper's
evaluation.  It follows the k-medoids framework in three phases:

* **Initialisation** — a sample of well-scattered points is chosen
  greedily (farthest-point heuristic) as the candidate medoid pool.
* **Iterative phase** — ``k`` medoids are drawn from the pool; for each
  medoid its *locality* (the objects within its nearest-other-medoid
  radius, measured with all dimensions) determines the dimensions with
  the smallest average distance to the medoid, and ``k * l`` dimensions
  are allocated across clusters (at least two per cluster) by picking the
  smallest standardised deviations; objects are then assigned to the
  nearest medoid using per-cluster Manhattan segmental distances; the
  medoid of the worst (smallest) cluster is replaced to escape bad
  choices.
* **Refinement** — dimensions are recomputed once from the final
  clusters instead of the localities, objects are re-assigned, and
  objects farther from their medoid than the cluster's sphere of
  influence are marked as outliers.

The user parameter ``l`` (average number of relevant dimensions per
cluster) plays the central role the paper criticises: results degrade
when it is far from the true cluster dimensionality (Figure 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.model import ClusteringResult, ProjectedCluster
from repro.core.stats_cache import ClusterStatsCache
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_array_2d, check_cluster_count, check_positive_int


class PROCLUS:
    """Projected clustering with per-cluster dimension selection.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    avg_dimensions:
        The user parameter ``l`` — average number of selected dimensions
        per cluster (must be at least 2 in the original algorithm; values
        below 2 are clamped).
    sample_factor:
        Size of the candidate medoid pool, as a multiple of ``k``
        (the original paper uses A*k with A around 30 bounded by n).
    medoid_pool_factor:
        Size of the greedy pool from which the ``k`` working medoids are
        drawn (B*k with B a small constant).
    max_iterations:
        Maximum number of bad-medoid replacement iterations.
    outlier_fraction_radius:
        Multiplier on the sphere-of-influence radius used in the
        refinement phase to flag outliers; ``None`` disables outlier
        detection (every object stays assigned).
    random_state:
        Seed or generator.

    Attributes
    ----------
    labels_, medoid_indices_, dimensions_, result_ :
        Outputs after :meth:`fit`; ``dimensions_`` is the list of
        per-cluster selected dimension arrays.
    """

    def __init__(
        self,
        n_clusters: int,
        avg_dimensions: float,
        *,
        sample_factor: int = 30,
        medoid_pool_factor: int = 3,
        max_iterations: int = 20,
        outlier_fraction_radius: Optional[float] = 1.0,
        random_state: RandomState = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=1)
        if avg_dimensions < 1:
            raise ValueError("avg_dimensions must be at least 1")
        self.avg_dimensions = float(avg_dimensions)
        self.sample_factor = check_positive_int(sample_factor, name="sample_factor", minimum=1)
        self.medoid_pool_factor = check_positive_int(
            medoid_pool_factor, name="medoid_pool_factor", minimum=1
        )
        self.max_iterations = check_positive_int(max_iterations, name="max_iterations", minimum=1)
        if outlier_fraction_radius is not None and outlier_fraction_radius <= 0:
            raise ValueError("outlier_fraction_radius must be positive or None")
        self.outlier_fraction_radius = outlier_fraction_radius
        self.random_state = random_state

        self.labels_: Optional[np.ndarray] = None
        self.medoid_indices_: Optional[np.ndarray] = None
        self.dimensions_: Optional[List[np.ndarray]] = None
        self.result_: Optional[ClusteringResult] = None
        self.objective_: float = float("inf")

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def fit(self, data) -> "PROCLUS":
        """Cluster ``data`` with the three PROCLUS phases."""
        data = check_array_2d(data, name="data", min_rows=2)
        check_cluster_count(self.n_clusters, data.shape[0])
        rng = ensure_rng(self.random_state)
        n_objects, n_dimensions = data.shape
        # The iterative phase evaluates the cost of recurring member sets;
        # a private workspace memoizes their per-cluster means.
        stats_cache = ClusterStatsCache(data)

        total_dimensions = int(round(self.avg_dimensions * self.n_clusters))
        total_dimensions = max(total_dimensions, 2 * self.n_clusters)
        total_dimensions = min(total_dimensions, n_dimensions * self.n_clusters)

        candidate_pool = self._greedy_sample(data, rng)

        # Iterative phase: current medoid set + bad medoid replacement.
        pool = list(candidate_pool)
        rng.shuffle(pool)
        current = np.asarray(pool[: self.n_clusters], dtype=int)
        spare = [index for index in pool if index not in set(current.tolist())]

        best_cost = float("inf")
        best_medoids = current.copy()
        best_labels = np.zeros(n_objects, dtype=int)

        for _ in range(self.max_iterations):
            dimensions = self._find_dimensions(data, current, total_dimensions)
            labels = self._assign(data, current, dimensions)
            cost = self._evaluate(data, stats_cache, current, dimensions, labels)
            if cost < best_cost:
                best_cost = cost
                best_medoids = current.copy()
                best_labels = labels
            # Replace the medoid of the smallest cluster with a spare candidate.
            if not spare:
                break
            sizes = np.bincount(best_labels, minlength=self.n_clusters)
            bad = int(np.argmin(sizes))
            current = best_medoids.copy()
            replacement = spare.pop(int(rng.integers(len(spare))))
            current[bad] = replacement

        # Refinement phase: recompute dimensions from the clusters themselves.
        refined_dimensions = self._refine_dimensions(data, best_labels, best_medoids, total_dimensions)
        refined_labels = self._assign(data, best_medoids, refined_dimensions)
        refined_labels = self._mark_outliers(data, best_medoids, refined_dimensions, refined_labels)
        final_cost = self._evaluate(
            data, stats_cache, best_medoids, refined_dimensions, refined_labels
        )

        self.labels_ = refined_labels
        self.medoid_indices_ = best_medoids
        self.dimensions_ = refined_dimensions
        self.objective_ = float(final_cost)
        clusters = [
            ProjectedCluster(
                members=np.flatnonzero(refined_labels == index),
                dimensions=refined_dimensions[index],
                representative=data[best_medoids[index]],
            )
            for index in range(self.n_clusters)
        ]
        self.result_ = ClusteringResult(
            clusters=clusters,
            n_objects=n_objects,
            n_dimensions=n_dimensions,
            objective=-float(final_cost),
            algorithm="PROCLUS",
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
            "avg_dimensions": self.avg_dimensions,
            "sample_factor": self.sample_factor,
            "medoid_pool_factor": self.medoid_pool_factor,
            "max_iterations": self.max_iterations,
            "outlier_fraction_radius": self.outlier_fraction_radius,
        }

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    def _greedy_sample(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Farthest-point greedy selection of the candidate medoid pool."""
        n_objects = data.shape[0]
        sample_size = min(self.sample_factor * self.n_clusters, n_objects)
        sample = rng.choice(n_objects, size=sample_size, replace=False)
        pool_size = min(self.medoid_pool_factor * self.n_clusters, sample_size)

        chosen = [int(sample[rng.integers(sample_size)])]
        distances = np.sqrt(((data[sample] - data[chosen[0]]) ** 2).sum(axis=1))
        while len(chosen) < pool_size:
            farthest = int(sample[int(np.argmax(distances))])
            if farthest in chosen:
                remaining = [index for index in sample if index not in chosen]
                if not remaining:
                    break
                farthest = int(remaining[int(rng.integers(len(remaining)))])
            chosen.append(farthest)
            new_distances = np.sqrt(((data[sample] - data[farthest]) ** 2).sum(axis=1))
            distances = np.minimum(distances, new_distances)
        return np.asarray(chosen, dtype=int)

    def _find_dimensions(
        self,
        data: np.ndarray,
        medoids: np.ndarray,
        total_dimensions: int,
    ) -> List[np.ndarray]:
        """Locality-based dimension selection for the current medoids.

        For each medoid, its locality is the set of objects within
        ``delta_i`` (the distance to the nearest other medoid, using all
        dimensions).  The per-dimension average distance of the locality
        to the medoid is standardised within each cluster, and the
        ``total_dimensions`` smallest standardised values are picked
        greedily subject to a minimum of two dimensions per cluster.
        """
        n_dimensions = data.shape[1]
        medoid_points = data[medoids]
        medoid_distances = np.sqrt(
            ((medoid_points[:, None, :] - medoid_points[None, :, :]) ** 2).sum(axis=2)
        )
        np.fill_diagonal(medoid_distances, np.inf)
        nearest_other = medoid_distances.min(axis=1)

        average_distance = np.zeros((self.n_clusters, n_dimensions))
        for index, medoid in enumerate(medoids):
            all_distances = np.sqrt(((data - data[medoid]) ** 2).sum(axis=1))
            locality = np.flatnonzero(all_distances <= nearest_other[index])
            locality = locality[locality != medoid]
            if locality.size == 0:
                order = np.argsort(all_distances)
                locality = order[1 : max(2, data.shape[0] // (10 * self.n_clusters)) + 1]
            average_distance[index] = np.abs(data[locality] - data[medoid]).mean(axis=0)

        row_mean = average_distance.mean(axis=1, keepdims=True)
        row_std = average_distance.std(axis=1, ddof=1, keepdims=True)
        row_std = np.where(row_std > 0, row_std, 1.0)
        z_scores = (average_distance - row_mean) / row_std

        selected: List[List[int]] = [[] for _ in range(self.n_clusters)]
        # Two smallest z-scores per cluster first (the PROCLUS constraint).
        for index in range(self.n_clusters):
            order = np.argsort(z_scores[index])
            selected[index].extend(int(j) for j in order[:2])
        remaining = total_dimensions - 2 * self.n_clusters
        if remaining > 0:
            flat = [
                (z_scores[i, j], i, j)
                for i in range(self.n_clusters)
                for j in range(n_dimensions)
                if j not in selected[i]
            ]
            flat.sort()
            for _, i, j in flat[:remaining]:
                selected[i].append(int(j))
        return [np.asarray(sorted(dims), dtype=int) for dims in selected]

    def _assign(
        self,
        data: np.ndarray,
        medoids: np.ndarray,
        dimensions: List[np.ndarray],
    ) -> np.ndarray:
        """Assign every object to the medoid with the smallest segmental distance."""
        n_objects = data.shape[0]
        distances = np.empty((n_objects, self.n_clusters))
        for index, medoid in enumerate(medoids):
            dims = dimensions[index]
            if dims.size == 0:
                distances[:, index] = np.inf
                continue
            distances[:, index] = np.abs(data[:, dims] - data[medoid, dims]).mean(axis=1)
        return np.argmin(distances, axis=1)

    def _evaluate(
        self,
        data: np.ndarray,
        stats_cache: ClusterStatsCache,
        medoids: np.ndarray,
        dimensions: List[np.ndarray],
        labels: np.ndarray,
    ) -> float:
        """The PROCLUS objective: average within-cluster segmental dispersion."""
        total = 0.0
        count = 0
        for index in range(self.n_clusters):
            members = np.flatnonzero(labels == index)
            dims = dimensions[index]
            if members.size == 0 or dims.size == 0:
                continue
            # Per-cluster means come from the statistics workspace; slicing
            # the full-dimension mean is bit-identical to the mean of the
            # sliced block, so the cost value is unchanged.
            centroid = stats_cache.mean(members)[dims]
            total += np.abs(data[np.ix_(members, dims)] - centroid).mean(axis=1).sum()
            count += members.size
        return total / count if count else float("inf")

    def _refine_dimensions(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        medoids: np.ndarray,
        total_dimensions: int,
    ) -> List[np.ndarray]:
        """Refinement-phase dimension selection using the clusters themselves."""
        n_dimensions = data.shape[1]
        average_distance = np.zeros((self.n_clusters, n_dimensions))
        for index, medoid in enumerate(medoids):
            members = np.flatnonzero(labels == index)
            if members.size == 0:
                members = np.asarray([medoid])
            average_distance[index] = np.abs(data[members] - data[medoid]).mean(axis=0)
        row_mean = average_distance.mean(axis=1, keepdims=True)
        row_std = average_distance.std(axis=1, ddof=1, keepdims=True)
        row_std = np.where(row_std > 0, row_std, 1.0)
        z_scores = (average_distance - row_mean) / row_std

        selected: List[List[int]] = [[] for _ in range(self.n_clusters)]
        for index in range(self.n_clusters):
            order = np.argsort(z_scores[index])
            selected[index].extend(int(j) for j in order[:2])
        remaining = total_dimensions - 2 * self.n_clusters
        if remaining > 0:
            flat = [
                (z_scores[i, j], i, j)
                for i in range(self.n_clusters)
                for j in range(n_dimensions)
                if j not in selected[i]
            ]
            flat.sort()
            for _, i, j in flat[:remaining]:
                selected[i].append(int(j))
        return [np.asarray(sorted(dims), dtype=int) for dims in selected]

    def _mark_outliers(
        self,
        data: np.ndarray,
        medoids: np.ndarray,
        dimensions: List[np.ndarray],
        labels: np.ndarray,
    ) -> np.ndarray:
        """Flag objects outside every medoid's sphere of influence as outliers."""
        if self.outlier_fraction_radius is None:
            return labels
        labels = labels.copy()
        medoid_points = data[medoids]
        # Sphere of influence of medoid i: its segmental distance to the
        # nearest other medoid, measured in its own subspace.
        radii = np.full(self.n_clusters, np.inf)
        for index in range(self.n_clusters):
            dims = dimensions[index]
            if dims.size == 0:
                continue
            others = [j for j in range(self.n_clusters) if j != index]
            if not others:
                continue
            distances = np.abs(medoid_points[others][:, dims] - medoid_points[index, dims]).mean(axis=1)
            radii[index] = distances.min() * self.outlier_fraction_radius
        for obj in range(data.shape[0]):
            inside_any = False
            for index in range(self.n_clusters):
                dims = dimensions[index]
                if dims.size == 0 or not np.isfinite(radii[index]):
                    inside_any = True
                    break
                distance = np.abs(data[obj, dims] - medoid_points[index, dims]).mean()
                if distance <= radii[index]:
                    inside_any = True
                    break
            if not inside_any:
                labels[obj] = -1
        return labels
