"""Knowledge-requirement analysis (Section 4.5, Figures 1 and 2).

The paper analyses how much input knowledge is needed before SSPC's
initialisation reliably builds a grid whose building dimensions are all
relevant to the target cluster.  The closed-form expressions live in the
authors' technical report (TR-2004-08), which is not available offline;
this module derives equivalent expressions from the same model and the
same parameters (documented below), preserving the qualitative behaviour
the paper reports:

* more labeled objects/dimensions -> higher success probability, with a
  sharp rise followed by a plateau;
* labeled objects work better when the fraction of relevant dimensions
  ``d_i / d`` is large;
* labeled dimensions work better when ``d_i / d`` is small (a single
  dimension is then unlikely to be relevant to several clusters).

Model and derivation
--------------------

**Labeled objects only** (Figure 1).  The ``|Io_i|`` labeled objects form
a temporary cluster ``C_i'``.  A dimension enters the grid-building
candidate set when ``SelectDim(C_i')`` picks it under the chi-square
scheme with parameter ``p``:

* an *irrelevant* dimension is picked with probability ``p`` by the very
  definition of the scheme;
* a *relevant* dimension has its local variance around ``rho`` times the
  global variance (``rho`` = ``variance_ratio``, 0.15 in the paper's
  example), so ``(n'-1) s^2 / sigma_global^2`` is approximately
  ``rho * chi2(n'-1)`` and the dimension is picked with probability
  ``P[chi2(n'-1) < chi2_inv(p, n'-1) / rho]``
  (:func:`relevant_dimension_retention_probability`).

The candidate set therefore contains on average ``R = d_i * q_rel``
relevant and ``W = (d - d_i) * p`` irrelevant dimensions.  Grid-building
dimensions are drawn with probability proportional to ``phi_i'j``; since
relevant candidates have systematically higher scores than irrelevant
ones that slipped in by chance, drawing ``c`` building dimensions
uniformly from the candidate set is the conservative approximation we
use.  One grid is then all-relevant with probability
``P_1 = prod_{t=0..c-1} max(R - t, 0) / (R + W - t)`` and at least one of
the ``g`` independent grids is all-relevant with probability
``1 - (1 - P_1)^g``.

**Labeled dimensions only** (Figure 2).  Building dimensions are drawn
from the ``|Iv_i|`` labeled dimensions, all of which are relevant to
``C_i`` by assumption; the question is whether they are relevant to
``C_i`` *only*.  With ``k`` clusters whose relevant sets are drawn
independently, a given dimension of ``C_i`` is also relevant to at least
one other cluster with probability ``q_shared = 1 - (1 - d_i/d)^(k-1)``.
A grid needs ``c`` of the ``|Iv_i|`` labeled dimensions (when fewer are
available no grid can be formed and the probability is 0); modelling the
number of exclusive labeled dimensions as Binomial(|Iv_i|, 1-q_shared)
and drawing without replacement gives the hypergeometric-style product
used in :func:`grid_success_probability_labeled_dimensions`, and the
``g``-grid success probability follows as before.

The chi-square quantile is :func:`repro.core.thresholds.chi_square_quantile`,
the one the ``p`` scheme uses, and its cdf is ``scipy.special.chdtr``
(scipy's own ``chi2._cdf``): both are bit-identical to ``scipy.stats.chi2``
without importing ``scipy.stats``.
"""

from __future__ import annotations

from scipy.special import chdtr

from repro.core.thresholds import chi_square_quantile
from repro.utils.validation import check_fraction, check_positive_int, check_probability


def relevant_dimension_retention_probability(
    n_labeled_objects: int,
    p: float,
    variance_ratio: float,
) -> float:
    """Probability that a truly relevant dimension passes ``SelectDim(C_i')``.

    Parameters
    ----------
    n_labeled_objects:
        Number of labeled objects ``|Io_i|`` (at least 2 for a variance to
        exist; below that the probability is 0).
    p:
        The chi-square threshold parameter.
    variance_ratio:
        Ratio of the local population variance to the global population
        variance (the paper's example uses 0.15).

    Returns
    -------
    float
        ``P[s^2_rel < s_hat^2]`` under the model above.
    """
    p = check_probability(p, name="p")
    variance_ratio = check_fraction(variance_ratio, name="variance_ratio", inclusive_low=False)
    if n_labeled_objects < 2:
        return 0.0
    dof = n_labeled_objects - 1
    critical = chi_square_quantile(p, dof)
    return float(chdtr(dof, critical / variance_ratio))


def _all_relevant_single_grid_probability(
    n_relevant_candidates: float,
    n_irrelevant_candidates: float,
    grid_dimensions: int,
) -> float:
    """Probability that one grid draws only relevant candidates.

    Sequential draws without replacement from a candidate pool with
    (expected) ``R`` relevant and ``W`` irrelevant members.
    """
    total = n_relevant_candidates + n_irrelevant_candidates
    if total <= 0:
        return 0.0
    probability = 1.0
    for draw in range(grid_dimensions):
        numerator = n_relevant_candidates - draw
        denominator = total - draw
        if numerator <= 0 or denominator <= 0:
            return 0.0
        probability *= numerator / denominator
    return float(min(max(probability, 0.0), 1.0))


def grid_success_probability_labeled_objects(
    n_labeled_objects: int,
    *,
    n_dimensions: int = 3000,
    relevant_fraction: float = 0.05,
    p: float = 0.01,
    grid_dimensions: int = 3,
    n_grids: int = 20,
    variance_ratio: float = 0.15,
) -> float:
    """Probability that at least one grid uses only relevant dimensions (Figure 1).

    Parameters mirror the example values quoted in Section 4.5 of the
    paper: ``d = 3000``, ``p = 0.01``, ``c = 3`` building dimensions,
    ``g = 20`` grids, local/global variance ratio 0.15.

    Parameters
    ----------
    n_labeled_objects:
        Number of labeled objects supplied for the cluster, ``|Io_i|``.
    n_dimensions:
        Dataset dimensionality ``d``.
    relevant_fraction:
        The ratio ``d_i / d``.
    p:
        Chi-square threshold parameter used by ``SelectDim``.
    grid_dimensions:
        Building dimensions per grid, ``c``.
    n_grids:
        Number of grids built per seed group, ``g``.
    variance_ratio:
        Local-to-global variance ratio of relevant dimensions.

    Returns
    -------
    float
        Probability in ``[0, 1]``.
    """
    n_dimensions = check_positive_int(n_dimensions, name="n_dimensions", minimum=1)
    relevant_fraction = check_fraction(
        relevant_fraction, name="relevant_fraction", inclusive_low=False
    )
    grid_dimensions = check_positive_int(grid_dimensions, name="grid_dimensions", minimum=1)
    n_grids = check_positive_int(n_grids, name="n_grids", minimum=1)
    if n_labeled_objects < 2:
        return 0.0

    n_relevant = relevant_fraction * n_dimensions
    n_irrelevant = n_dimensions - n_relevant
    q_relevant = relevant_dimension_retention_probability(n_labeled_objects, p, variance_ratio)

    expected_relevant_candidates = n_relevant * q_relevant
    expected_irrelevant_candidates = n_irrelevant * p
    single = _all_relevant_single_grid_probability(
        expected_relevant_candidates, expected_irrelevant_candidates, grid_dimensions
    )
    return float(1.0 - (1.0 - single) ** n_grids)


def grid_success_probability_labeled_dimensions(
    n_labeled_dimensions: int,
    *,
    n_dimensions: int = 3000,
    relevant_fraction: float = 0.05,
    n_clusters: int = 5,
    grid_dimensions: int = 3,
    n_grids: int = 20,
) -> float:
    """Probability that at least one grid uses dimensions relevant to ``C_i`` only (Figure 2).

    Parameters
    ----------
    n_labeled_dimensions:
        Number of labeled dimensions supplied for the cluster, ``|Iv_i|``.
    n_dimensions:
        Dataset dimensionality ``d``.
    relevant_fraction:
        The ratio ``d_i / d``.
    n_clusters:
        Number of hidden classes ``k`` (a labeled dimension may also be
        relevant to any of the other ``k - 1`` clusters).
    grid_dimensions:
        Building dimensions per grid, ``c``.
    n_grids:
        Number of grids built per seed group, ``g``.

    Returns
    -------
    float
        Probability in ``[0, 1]``.  Zero when fewer labeled dimensions
        than ``grid_dimensions`` are supplied (no grid can be formed from
        labeled dimensions alone).
    """
    n_dimensions = check_positive_int(n_dimensions, name="n_dimensions", minimum=1)
    relevant_fraction = check_fraction(
        relevant_fraction, name="relevant_fraction", inclusive_low=False
    )
    n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=1)
    grid_dimensions = check_positive_int(grid_dimensions, name="grid_dimensions", minimum=1)
    n_grids = check_positive_int(n_grids, name="n_grids", minimum=1)
    if n_labeled_dimensions < grid_dimensions:
        return 0.0

    # Probability that one labeled dimension of C_i is exclusive to C_i.
    q_exclusive = (1.0 - relevant_fraction) ** (n_clusters - 1)
    expected_exclusive = n_labeled_dimensions * q_exclusive
    expected_shared = n_labeled_dimensions * (1.0 - q_exclusive)
    single = _all_relevant_single_grid_probability(
        expected_exclusive, expected_shared, grid_dimensions
    )
    return float(1.0 - (1.0 - single) ** n_grids)
