"""Additional clustering-quality metrics.

Besides the Adjusted Rand Index the experiments also report quantities
the paper discusses qualitatively — how accurately the relevant
dimensions were recovered, how many outliers were detected, and standard
cross-check indices (purity, NMI) used by the test suite and ablation
benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.evaluation.ari import adjusted_rand_index
from repro.utils.validation import check_label_pair


def purity(true_labels: Sequence[int], predicted_labels: Sequence[int]) -> float:
    """Cluster purity: fraction of objects matching their cluster's majority class.

    Outliers in the prediction count as their own (singleton) clusters,
    so discarding objects cannot inflate purity.
    """
    true, pred = check_label_pair(true_labels, predicted_labels)
    n = true.shape[0]
    if n == 0:
        return 1.0
    correct = 0
    for cluster in np.unique(pred):
        members = np.flatnonzero(pred == cluster)
        if cluster == -1:
            # each outlier is its own singleton: trivially pure
            correct += members.size
            continue
        member_truth = true[members]
        values, counts = np.unique(member_truth, return_counts=True)
        correct += int(counts.max()) if values.size else 0
    return float(correct / n)


def normalized_mutual_information(
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
) -> float:
    """Normalised mutual information (arithmetic-mean normalisation).

    Outliers are treated as singleton clusters, consistent with the ARI
    convention used across the library.
    """
    true, pred = check_label_pair(true_labels, predicted_labels)
    n = true.shape[0]
    if n == 0:
        return 1.0

    def expand(labels: np.ndarray) -> np.ndarray:
        labels = labels.copy()
        next_label = labels.max() + 1 if labels.size else 0
        next_label = max(next_label, 0)
        for index in np.flatnonzero(labels == -1):
            labels[index] = next_label
            next_label += 1
        return labels

    true = expand(true)
    pred = expand(pred)

    def entropy(labels: np.ndarray) -> float:
        _, counts = np.unique(labels, return_counts=True)
        probabilities = counts / n
        return float(-np.sum(probabilities * np.log(probabilities)))

    h_true = entropy(true)
    h_pred = entropy(pred)
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0

    mutual_information = 0.0
    for t in np.unique(true):
        true_mask = true == t
        p_t = true_mask.mean()
        for p in np.unique(pred[true_mask]):
            joint = np.count_nonzero(true_mask & (pred == p)) / n
            p_p = np.count_nonzero(pred == p) / n
            if joint > 0:
                mutual_information += joint * np.log(joint / (p_t * p_p))
    denominator = 0.5 * (h_true + h_pred)
    if denominator == 0.0:
        return 1.0
    return float(mutual_information / denominator)


@dataclass
class DimensionSelectionScores:
    """Precision / recall / F1 of relevant-dimension recovery per cluster."""

    precision: float
    recall: float
    f1: float
    per_cluster: List[Tuple[float, float, float]]


def dimension_selection_scores(
    true_dimensions: Sequence[Sequence[int]],
    predicted_dimensions: Sequence[Sequence[int]],
    *,
    matching: Optional[Sequence[int]] = None,
) -> DimensionSelectionScores:
    """Compare selected dimensions against the true relevant dimensions.

    Parameters
    ----------
    true_dimensions:
        Per true-cluster relevant dimension index lists.
    predicted_dimensions:
        Per produced-cluster selected dimension index lists.
    matching:
        ``matching[i]`` gives the index of the true cluster matched to
        produced cluster ``i``; when omitted clusters are matched
        greedily by Jaccard similarity of their dimension sets.

    Returns
    -------
    DimensionSelectionScores
        Micro-averaged precision/recall/F1 plus per-cluster triples.
    """
    true_sets = [set(int(j) for j in dims) for dims in true_dimensions]
    pred_sets = [set(int(j) for j in dims) for dims in predicted_dimensions]

    if matching is None:
        matching = _greedy_dimension_matching(true_sets, pred_sets)
    else:
        matching = list(matching)
        if len(matching) != len(pred_sets):
            raise ValueError("matching must give one true-cluster index per predicted cluster")

    per_cluster: List[Tuple[float, float, float]] = []
    total_tp = total_fp = total_fn = 0
    for pred_index, true_index in enumerate(matching):
        predicted = pred_sets[pred_index]
        truth = true_sets[true_index] if 0 <= true_index < len(true_sets) else set()
        tp = len(predicted & truth)
        fp = len(predicted - truth)
        fn = len(truth - predicted)
        total_tp += tp
        total_fp += fp
        total_fn += fn
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        per_cluster.append((precision, recall, f1))

    precision = total_tp / (total_tp + total_fp) if (total_tp + total_fp) else 0.0
    recall = total_tp / (total_tp + total_fn) if (total_tp + total_fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return DimensionSelectionScores(
        precision=float(precision), recall=float(recall), f1=float(f1), per_cluster=per_cluster
    )


def _greedy_dimension_matching(true_sets: List[set], pred_sets: List[set]) -> List[int]:
    """Greedy one-to-one matching by Jaccard similarity of dimension sets."""
    matching = [-1] * len(pred_sets)
    available = set(range(len(true_sets)))
    scored: List[Tuple[float, int, int]] = []
    for p_index, predicted in enumerate(pred_sets):
        for t_index, truth in enumerate(true_sets):
            union = len(predicted | truth)
            jaccard = len(predicted & truth) / union if union else 0.0
            scored.append((jaccard, p_index, t_index))
    scored.sort(reverse=True)
    matched_pred: set = set()
    for jaccard, p_index, t_index in scored:
        if p_index in matched_pred or t_index not in available:
            continue
        matching[p_index] = t_index
        matched_pred.add(p_index)
        available.discard(t_index)
    # Unmatched predicted clusters keep -1 (compared against empty truth).
    return matching


@dataclass
class OutlierDetectionScores:
    """Precision / recall / F1 of outlier detection."""

    precision: float
    recall: float
    f1: float
    n_true_outliers: int
    n_predicted_outliers: int


def outlier_detection_scores(
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
) -> OutlierDetectionScores:
    """Quality of the outlier list (label ``-1``) against ground truth."""
    true, pred = check_label_pair(true_labels, predicted_labels)
    true_outliers = true == -1
    pred_outliers = pred == -1
    tp = int(np.count_nonzero(true_outliers & pred_outliers))
    fp = int(np.count_nonzero(~true_outliers & pred_outliers))
    fn = int(np.count_nonzero(true_outliers & ~pred_outliers))
    precision = tp / (tp + fp) if (tp + fp) else (1.0 if fn == 0 else 0.0)
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return OutlierDetectionScores(
        precision=float(precision),
        recall=float(recall),
        f1=float(f1),
        n_true_outliers=int(true_outliers.sum()),
        n_predicted_outliers=int(pred_outliers.sum()),
    )


def clustering_report(
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
    *,
    true_dimensions: Optional[Sequence[Sequence[int]]] = None,
    predicted_dimensions: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, float]:
    """One-call report bundling the metrics used across the experiments."""
    report: Dict[str, float] = {
        "ari": adjusted_rand_index(true_labels, predicted_labels),
        "purity": purity(true_labels, predicted_labels),
        "nmi": normalized_mutual_information(true_labels, predicted_labels),
    }
    outlier_scores = outlier_detection_scores(true_labels, predicted_labels)
    report["outlier_precision"] = outlier_scores.precision
    report["outlier_recall"] = outlier_scores.recall
    if true_dimensions is not None and predicted_dimensions is not None:
        dim_scores = dimension_selection_scores(true_dimensions, predicted_dimensions)
        report["dimension_precision"] = dim_scores.precision
        report["dimension_recall"] = dim_scores.recall
        report["dimension_f1"] = dim_scores.f1
    return report
