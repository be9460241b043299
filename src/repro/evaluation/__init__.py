"""Clustering-quality metrics used throughout the experiments.

The paper evaluates every clustering result with the Adjusted Rand Index
(its Eq. 5 pair-counting form).  This package implements that index plus
the standard Hubert-Arabie ARI, dimension-selection quality metrics,
outlier-detection metrics and a handful of auxiliary indices (purity,
normalised mutual information) that the tests and ablation benches use to
cross-check results.
"""

from repro.evaluation.ari import adjusted_rand_index, hubert_arabie_ari, pair_counts
from repro.evaluation.metrics import (
    clustering_report,
    dimension_selection_scores,
    normalized_mutual_information,
    outlier_detection_scores,
    purity,
)

__all__ = [
    "adjusted_rand_index",
    "hubert_arabie_ari",
    "pair_counts",
    "clustering_report",
    "dimension_selection_scores",
    "normalized_mutual_information",
    "outlier_detection_scores",
    "purity",
]
