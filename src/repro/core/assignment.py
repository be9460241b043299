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
An optional pairwise-constraint set (extension) restricts which clusters
an object may join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.model import OUTLIER_LABEL
from repro.core.objective import ObjectiveFunction
from repro.semisupervision.constraints import PairwiseConstraints
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
    constraints: Optional[PairwiseConstraints] = None,
    return_gains: bool = False,
):
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
    constraints:
        Optional must-link / cannot-link constraints (extension); applied
        after the gain computation by masking forbidden clusters.
    return_gains:
        When ``True`` also return the ``(n, k)`` gain matrix so callers
        (``SSPC._force_assign``, diagnostics) can reuse it instead of
        recomputing the same gains cluster by cluster.

    Returns
    -------
    numpy.ndarray or (numpy.ndarray, numpy.ndarray)
        Length-``n`` label vector (``-1`` marks outliers), plus the gain
        matrix when ``return_gains`` is set.
    """
    n_objects = objective.n_objects
    n_clusters = len(states)
    if n_clusters == 0:
        labels = np.full(n_objects, OUTLIER_LABEL, dtype=int)
        if return_gains:
            return labels, np.full((n_objects, 0), -np.inf)
        return labels

    gains = compute_gains_matrix(objective, states)

    labels = np.full(n_objects, OUTLIER_LABEL, dtype=int)
    best_cluster = np.argmax(gains, axis=1)
    best_gain = gains[np.arange(n_objects), best_cluster]
    positive = best_gain > 0.0
    labels[positive] = best_cluster[positive]

    if constraints is not None and not constraints.is_empty():
        labels = _apply_constraints(labels, gains, constraints)

    if knowledge is not None and not knowledge.objects.is_empty():
        for class_label in knowledge.objects.classes():
            if class_label < n_clusters:
                labels[knowledge.objects.for_class(class_label)] = class_label

    if return_gains:
        return labels, gains
    return labels


def _apply_constraints(
    labels: np.ndarray,
    gains: np.ndarray,
    constraints: PairwiseConstraints,
) -> np.ndarray:
    """Re-assign constrained objects so the constraints are honoured.

    Objects are revisited in decreasing order of their best gain so that
    strongly attracted objects anchor their must-link partners.  An
    object whose allowed clusters all have non-positive gain is forced
    into the best allowed cluster anyway when a must-link partner is
    already assigned there (keeping the pair together outranks the
    outlier rule), otherwise it stays an outlier.

    The object→partners maps are built once up front, so the whole pass
    costs ``O(objects + links)`` instead of rescanning every link list
    for every constrained object.
    """
    labels = labels.copy()
    n_clusters = gains.shape[1]
    must_partners, cannot_partners = constraints.partner_maps()
    constrained_objects = sorted(set(must_partners) | set(cannot_partners))
    order = sorted(
        constrained_objects,
        key=lambda index: -float(np.max(gains[index])) if np.isfinite(np.max(gains[index])) else 0.0,
    )
    for object_index in order:
        allowed = constraints.allowed_clusters(
            object_index, labels, n_clusters, partner_maps=(must_partners, cannot_partners)
        )
        allowed_gains = gains[object_index, allowed]
        best_position = int(np.argmax(allowed_gains))
        best_cluster = int(allowed[best_position])
        has_assigned_partner = any(
            labels[partner] == best_cluster
            for partner in must_partners.get(object_index, ())
        )
        if allowed_gains[best_position] > 0.0 or has_assigned_partner:
            labels[object_index] = best_cluster
        else:
            labels[object_index] = OUTLIER_LABEL
    return labels


def members_from_labels(labels: np.ndarray, n_clusters: int) -> List[np.ndarray]:
    """Split a label vector into per-cluster member index arrays."""
    return [np.flatnonzero(labels == cluster_index) for cluster_index in range(n_clusters)]
