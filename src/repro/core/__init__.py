"""Core SSPC algorithm: the paper's primary contribution.

The subpackage is organised around the components of Section 3 and 4 of
the paper:

* :mod:`repro.core.thresholds` — the two schemes for the selection
  threshold ``s_hat^2_ij`` (parameter ``m`` and parameter ``p``).
* :mod:`repro.core.objective` — the objective function ``phi`` (Eq. 1-4)
  and its per-cluster / per-dimension components, including the fused
  assignment kernel producing the full ``(n, k)`` gain matrix.
* :mod:`repro.core.stats_cache` — the shared per-iteration statistics
  workspace: each cluster's statistics are computed once per membership
  change and reused by ``SelectDim``, ``phi`` and the representative
  replacement (see the README's Performance notes).
* :mod:`repro.core.dimension_selection` — the ``SelectDim`` procedure
  (Lemma 1).
* :mod:`repro.core.grid` — the multi-dimensional histogram (grid) engine
  with localized hill-climbing used during initialisation; the grids of
  one seed-group search share one :class:`~repro.core.grid.GridBinning`.
* :mod:`repro.core.seed_groups` — seed-group construction for the four
  knowledge cases (Section 4.2) including the max-min mechanism.
* :mod:`repro.core.assignment` / :mod:`repro.core.representatives` — the
  object-assignment and cluster-representative-replacement steps of the
  iterative optimisation.
* :mod:`repro.core.sspc` — the :class:`~repro.core.sspc.SSPC` estimator
  tying everything together (Listing 2 of the paper).
* :mod:`repro.core.analysis` — closed-form knowledge-requirement analysis
  behind Figures 1 and 2.
"""

from repro.core.model import OUTLIER_LABEL, ClusteringResult, ProjectedCluster
from repro.core.thresholds import (
    ChiSquareThreshold,
    SelectionThreshold,
    VarianceRatioThreshold,
    make_threshold,
)
from repro.core.objective import (
    ClusterStatistics,
    ObjectiveFunction,
    grouped_assignment_gains,
)
from repro.core.stats_cache import ClusterStatsCache
from repro.core.dimension_selection import select_dimensions
from repro.core.grid import Grid, GridBinning, GridSearchResult
from repro.core.seed_groups import SeedGroup, SeedGroupBuilder
from repro.core.sspc import SSPC
from repro.core.analysis import (
    grid_success_probability_labeled_dimensions,
    grid_success_probability_labeled_objects,
    relevant_dimension_retention_probability,
)

__all__ = [
    "OUTLIER_LABEL",
    "ClusteringResult",
    "ProjectedCluster",
    "SelectionThreshold",
    "VarianceRatioThreshold",
    "ChiSquareThreshold",
    "make_threshold",
    "ObjectiveFunction",
    "ClusterStatistics",
    "grouped_assignment_gains",
    "ClusterStatsCache",
    "select_dimensions",
    "Grid",
    "GridBinning",
    "GridSearchResult",
    "SeedGroup",
    "SeedGroupBuilder",
    "SSPC",
    "grid_success_probability_labeled_objects",
    "grid_success_probability_labeled_dimensions",
    "relevant_dimension_retention_probability",
]
