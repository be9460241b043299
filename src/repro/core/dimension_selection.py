"""The ``SelectDim`` procedure (Listing 1 / Lemma 1 of the paper).

Lemma 1 states that, for a fixed set of clusters, the objective ``phi``
is maximised by selecting exactly the dimensions whose dispersion
``s^2_ij + (mu_ij - median_ij)^2`` falls below the selection threshold
``s_hat^2_ij``.  ``SelectDim`` therefore needs no search: it evaluates
the inequality per dimension.

Performance note: the cluster statistics backing the dispersion come
from the objective's shared :class:`~repro.core.stats_cache.ClusterStatsCache`,
so running ``SelectDim`` on a member set that the same iteration already
profiled (for ``phi`` or the representative replacement) costs no
additional statistics pass.  A pass that does run is dominated by the
per-dimension median, which :func:`~repro.core.objective.column_median`
takes with one single-``kth`` partition per column (several times
faster than ``np.median``'s three-``kth`` partition, and bit-identical
to it); the variance reuses the mean the pass already has.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.objective import ClusterStatistics, ObjectiveFunction
from repro.core.thresholds import SelectionThreshold


def select_dimensions(
    objective: ObjectiveFunction,
    members: Sequence[int],
    *,
    forced_dimensions: Optional[Sequence[int]] = None,
    statistics: Optional[ClusterStatistics] = None,
    threshold: Optional[SelectionThreshold] = None,
) -> np.ndarray:
    """Run ``SelectDim`` for one cluster.

    Parameters
    ----------
    objective:
        The fitted :class:`ObjectiveFunction` (provides data and
        thresholds).
    members:
        Member object indices of the target cluster ``C_i``.
    forced_dimensions:
        Dimensions that must be selected regardless of the criterion —
        SSPC forces the labeled dimensions ``Iv_i`` into the selection of
        the corresponding cluster's seed group (Section 4.2.1).
    statistics:
        Optional precomputed :class:`ClusterStatistics` for ``members``.
    threshold:
        Optional :class:`SelectionThreshold` overriding the objective's
        own threshold.  The initialisation (Section 4.2 / 4.5) estimates
        seed-group dimensions from very small object sets, where the
        size-adaptive chi-square scheme is the appropriate criterion even
        when the main optimisation runs with the ``m`` scheme.

    Returns
    -------
    numpy.ndarray
        Sorted array of selected dimension indices.  Empty when the
        cluster has fewer than two members (no variance can be measured)
        and no forced dimensions are given.
    """
    members = np.asarray(members, dtype=int)
    forced = (
        np.asarray(forced_dimensions, dtype=int)
        if forced_dimensions is not None
        else np.empty(0, dtype=int)
    )
    if members.size < 2:
        return np.unique(forced)

    stats_ = statistics if statistics is not None else objective.cluster_statistics(members)
    scheme = threshold if threshold is not None else objective.threshold
    if not scheme.is_fitted:
        scheme.fit_from_variance(objective.threshold.global_variance)
    thresholds = scheme.values(stats_.size)
    selected = np.flatnonzero(stats_.dispersion() < thresholds)
    if forced.size:
        selected = np.union1d(selected, forced)
    return selected


def selection_margin(
    objective: ObjectiveFunction,
    members: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Dispersion and threshold vectors for one cluster (diagnostic helper).

    Returns ``(dispersion, thresholds)`` so callers can inspect how far
    each dimension is from being selected — used by the examples to show
    *why* a dimension was (not) selected, and by tests to verify Lemma 1.
    ``np.flatnonzero(dispersion < thresholds)`` is exactly what
    :func:`select_dimensions` selects without forced dimensions: for
    fewer than two members no variance can be measured, so the
    dispersion is ``+inf`` on every dimension and nothing passes.
    """
    members = np.asarray(members, dtype=int)
    thresholds = objective.threshold.values(max(members.size, 2))
    if members.size < 2:
        return np.full(objective.n_dimensions, np.inf), thresholds
    return objective.cluster_statistics(members).dispersion(), thresholds
