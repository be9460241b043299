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

Names and submodules resolve on first access, so each surface imports
only what it runs: ``from repro.core import SSPC`` loads the fit and the
serving modules a fitted model uses, while the daemon, which reads
:mod:`repro.core.model` and :mod:`repro.core.thresholds` through
:mod:`repro.serving`, loads no seed-group, grid or estimator code.
"""

from repro import _lazy

#: Every public name, and each submodule read as an attribute, with the
#: module that defines it.
#: Nothing is imported until a name is first read (see ``repro._lazy``).
_EXPORTS = {
    "OUTLIER_LABEL": "repro.core.model",
    "ClusteringResult": "repro.core.model",
    "ProjectedCluster": "repro.core.model",
    "SelectionThreshold": "repro.core.thresholds",
    "VarianceRatioThreshold": "repro.core.thresholds",
    "ChiSquareThreshold": "repro.core.thresholds",
    "make_threshold": "repro.core.thresholds",
    "ObjectiveFunction": "repro.core.objective",
    "ClusterStatistics": "repro.core.objective",
    "grouped_assignment_gains": "repro.core.objective",
    "ClusterStatsCache": "repro.core.stats_cache",
    "select_dimensions": "repro.core.dimension_selection",
    "Grid": "repro.core.grid",
    "GridBinning": "repro.core.grid",
    "GridSearchResult": "repro.core.grid",
    "SeedGroup": "repro.core.seed_groups",
    "SeedGroupBuilder": "repro.core.seed_groups",
    "SSPC": "repro.core.sspc",
    "grid_success_probability_labeled_objects": "repro.core.analysis",
    "grid_success_probability_labeled_dimensions": "repro.core.analysis",
    "relevant_dimension_retention_probability": "repro.core.analysis",
    **{
        name: "repro.core." + name
        for name in (
            "analysis", "assignment", "assignment_engine", "dimension_selection", "grid",
            "model", "objective", "representatives", "seed_groups", "sspc", "stats_cache",
            "thresholds",
        )
    },
}

__all__ = _lazy.public_names(__name__, _EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
