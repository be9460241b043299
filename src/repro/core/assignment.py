"""Object assignment step of the SSPC main loop (Listing 2, step 3).

Every object in the dataset is assigned to the cluster that gives the
greatest improvement to the objective score, where the cluster median in
Eq. 3/4 is temporarily substituted by the projection of the current
cluster representative (medoid or median).  Objects that do not improve
the score of any cluster are placed on the outlier list.

The per-object improvement of adding ``x`` to cluster ``C_i`` with
representative ``r`` and selected dimensions ``V_i`` is

    gain_i(x) = sum_{v_j in V_i} (1 - (x_j - r_j)^2 / s_hat^2_ij)

(see :meth:`repro.core.objective.ObjectiveFunction.assignment_gains_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.model import OUTLIER_LABEL
from repro.core.objective import ObjectiveFunction
from repro.semisupervision.knowledge import Knowledge


@dataclass
class ClusterState:
    """Mutable per-cluster state carried across SSPC iterations.

    Attributes
    ----------
    representative:
        Full ``d``-vector of the current representative (a medoid's row
        or the cluster median).
    dimensions:
        Currently selected dimensions ``V_i``.
    members:
        Member indices from the latest assignment (empty before the first
        assignment of an iteration).
    size_hint:
        Cluster size used for size-dependent thresholds during the next
        assignment pass (the previous iteration's size, or a prior guess).
    """

    representative: np.ndarray
    dimensions: np.ndarray
    members: np.ndarray
    size_hint: int

    def copy(self) -> "ClusterState":
        """Deep copy (used to snapshot the best clustering found so far)."""
        return ClusterState(
            representative=self.representative.copy(),
            dimensions=self.dimensions.copy(),
            members=self.members.copy(),
            size_hint=int(self.size_hint),
        )


def compute_gains_matrix(
    objective: ObjectiveFunction,
    states: Sequence[ClusterState],
) -> np.ndarray:
    """The ``(n, k)`` assignment-gain matrix for the current states.

    The matrix comes from the incremental assignment engine behind
    :meth:`~repro.core.objective.ObjectiveFunction.assignment_gains_matrix`:
    a persistent grouped plan, blocked evaluation, and per-cluster dirty
    tracking so that between iterations only the columns of clusters
    that actually changed are recomputed (the returned matrix is the
    engine's read-only cache).  It is bit-identical to
    :func:`~repro.core.objective.grouped_assignment_gains`, the
    stateless reference the equivalence tests and the hot-path
    benchmark compare against.
    """
    return objective.assignment_gains_matrix(
        [state.representative for state in states],
        [state.dimensions for state in states],
        [max(state.size_hint, 2) for state in states],
    )


def assign_objects(
    objective: ObjectiveFunction,
    states: Sequence[ClusterState],
    *,
    knowledge: Optional[Knowledge] = None,
) -> np.ndarray:
    """Assign every object to the best cluster or the outlier list.

    Parameters
    ----------
    objective:
        The fitted objective function.
    states:
        Current per-cluster states (representative + selected dimensions).
    knowledge:
        When supplied, labeled objects are pinned to their labeled class —
        the input knowledge is assumed correct (Section 3 assumption 4),
        so the assignment never contradicts it.

    Returns
    -------
    numpy.ndarray
        Length-``n`` label vector (``-1`` marks outliers).
    """
    n_objects = objective.n_objects
    n_clusters = len(states)
    labels = np.full(n_objects, OUTLIER_LABEL, dtype=int)
    if n_clusters == 0:
        return labels

    gains = compute_gains_matrix(objective, states)
    best_cluster = np.argmax(gains, axis=1)
    best_gain = gains[np.arange(n_objects), best_cluster]
    positive = best_gain > 0.0
    labels[positive] = best_cluster[positive]

    if knowledge is not None and not knowledge.objects.is_empty():
        for class_label in knowledge.objects.classes():
            if class_label < n_clusters:
                labels[knowledge.objects.for_class(class_label)] = class_label
    return labels


def members_from_labels(labels: np.ndarray, n_clusters: int) -> List[np.ndarray]:
    """Split a label vector into per-cluster member index arrays."""
    return [np.flatnonzero(labels == cluster_index) for cluster_index in range(n_clusters)]
