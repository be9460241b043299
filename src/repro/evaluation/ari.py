"""Adjusted Rand Index in the pair-counting form used by the paper.

Section 5 of the paper (Eq. 5) evaluates clustering quality with an
Adjusted Rand Index defined over the four pair counts

* ``a`` — object pairs placed together in both the real partition ``U``
  and the produced partition ``V``,
* ``b`` — pairs together in ``U`` but not in ``V``,
* ``c`` — pairs together in ``V`` but not in ``U``,
* ``d`` — pairs separated in both partitions,

as ``ARI = 2(ad - bc) / ((a+b)(b+d) + (a+c)(c+d))``.  The index is 1 for
identical partitions and approximately 0 for a random partition.

The paper cites Yeung & Ruzzo (2001); the formula above is the
Hubert-Arabie adjusted index rewritten in terms of the four pair counts,
so :func:`adjusted_rand_index` and :func:`hubert_arabie_ari` agree
(up to floating point) on every pair of partitions — a property the test
suite checks with hypothesis.

Handling of outliers: the paper places non-clustered objects on an
outlier list.  When comparing against ground truth we follow the usual
convention (also used by the HARP paper) of treating each outlier as a
singleton cluster, so discarding a true cluster member is penalised
through the ``b`` count rather than silently ignored.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_label_pair


def _expand_outliers_to_singletons(labels: np.ndarray) -> np.ndarray:
    """Replace each ``-1`` by a unique fresh label (singleton cluster)."""
    labels = labels.copy()
    next_label = labels.max() + 1 if labels.size else 0
    next_label = max(next_label, 0)
    for index in np.flatnonzero(labels == -1):
        labels[index] = next_label
        next_label += 1
    return labels


def pair_counts(
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
    *,
    outliers_as_singletons: bool = True,
) -> Tuple[int, int, int, int]:
    """Return the pair counts ``(a, b, c, d)`` defined above.

    Parameters
    ----------
    true_labels, predicted_labels:
        Membership vectors of equal length; ``-1`` marks outliers.
    outliers_as_singletons:
        When ``True`` (default) outliers become singleton clusters before
        counting; when ``False`` objects that are outliers in *either*
        partition are dropped from the comparison.
    """
    true, pred = check_label_pair(true_labels, predicted_labels)

    if outliers_as_singletons:
        true = _expand_outliers_to_singletons(true)
        pred = _expand_outliers_to_singletons(pred)
    else:
        keep = (true != -1) & (pred != -1)
        true, pred = true[keep], pred[keep]

    n = true.shape[0]
    if n < 2:
        return 0, 0, 0, 0

    # Contingency-table based counting: for every (true cluster, predicted
    # cluster) cell with n_uv objects there are C(n_uv, 2) agreeing pairs.
    true_ids, true_inverse = np.unique(true, return_inverse=True)
    pred_ids, pred_inverse = np.unique(pred, return_inverse=True)
    contingency = np.zeros((true_ids.size, pred_ids.size), dtype=np.int64)
    np.add.at(contingency, (true_inverse, pred_inverse), 1)

    def comb2(values: np.ndarray) -> np.ndarray:
        values = values.astype(np.int64)
        return values * (values - 1) // 2

    same_both = int(comb2(contingency).sum())
    same_true = int(comb2(contingency.sum(axis=1)).sum())
    same_pred = int(comb2(contingency.sum(axis=0)).sum())
    total_pairs = n * (n - 1) // 2

    a = same_both
    b = same_true - same_both
    c = same_pred - same_both
    d = total_pairs - a - b - c
    return a, b, c, d


def adjusted_rand_index(
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
    *,
    outliers_as_singletons: bool = True,
) -> float:
    """Adjusted Rand Index as defined in Eq. 5 of the paper.

    Returns 1.0 for identical partitions, values near 0.0 for random
    partitions, and may be negative for partitions worse than chance.
    Degenerate cases where the denominator vanishes (e.g. both partitions
    put everything in one cluster) return 1.0 when the partitions agree
    on all pairs and 0.0 otherwise.
    """
    a, b, c, d = pair_counts(
        true_labels, predicted_labels, outliers_as_singletons=outliers_as_singletons
    )
    denominator = (a + b) * (b + d) + (a + c) * (c + d)
    if denominator == 0:
        return 1.0 if (b == 0 and c == 0) else 0.0
    return float(2.0 * (a * d - b * c) / denominator)


def hubert_arabie_ari(
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
    *,
    outliers_as_singletons: bool = True,
) -> float:
    """Hubert-Arabie ARI computed from the contingency-table formula.

    ``(Index - ExpectedIndex) / (MaxIndex - ExpectedIndex)`` with the
    usual combinatorial expectation.  Provided as an independent
    implementation used by the tests to cross-validate
    :func:`adjusted_rand_index`.
    """
    a, b, c, d = pair_counts(
        true_labels, predicted_labels, outliers_as_singletons=outliers_as_singletons
    )
    total = a + b + c + d
    if total == 0:
        return 1.0
    index = float(a)
    expected = float((a + b) * (a + c)) / total
    maximum = 0.5 * float((a + b) + (a + c))
    if maximum == expected:
        return 1.0 if (b == 0 and c == 0) else 0.0
    return float((index - expected) / (maximum - expected))
