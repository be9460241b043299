"""Synthetic data generation and loading.

The paper's evaluation is entirely synthetic: datasets follow the data
model of Section 3 (uniform global populations, narrow Gaussian local
populations along each cluster's relevant dimensions), with parameters
chosen per experiment.  This package provides:

* :class:`SyntheticDataGenerator` / :func:`make_projected_clusters` —
  the Section 3 data model with configurable global distribution, local
  variance range, cluster-size balance and outliers.
* :func:`make_multigroup_dataset` — the Section 5.4 construction where
  two independent groupings are concatenated dimension-wise.
* :class:`DriftingStreamGenerator` — the streaming extension of the
  Section 3 model: an unbounded micro-batch stream whose generating
  populations drift under a declarative event schedule (concept shift,
  cluster birth/death, dimension drift).
* Expression-like dataset builders and simple CSV persistence used by the
  examples.
"""

from repro.data.generator import (
    SyntheticDataGenerator,
    SyntheticDataset,
    make_projected_clusters,
)
from repro.data.multigroup import MultiGroupingDataset, make_multigroup_dataset
from repro.data.loaders import (
    load_csv_dataset,
    make_expression_like_dataset,
    save_csv_dataset,
)
from repro.data.streams import (
    ClusterBirth,
    ClusterDeath,
    DimensionDrift,
    DriftingStreamGenerator,
    MeanShift,
    StreamBatch,
    make_drift_schedule,
)

__all__ = [
    "ClusterBirth",
    "ClusterDeath",
    "DimensionDrift",
    "DriftingStreamGenerator",
    "MeanShift",
    "StreamBatch",
    "make_drift_schedule",
    "SyntheticDataGenerator",
    "SyntheticDataset",
    "make_projected_clusters",
    "MultiGroupingDataset",
    "make_multigroup_dataset",
    "load_csv_dataset",
    "save_csv_dataset",
    "make_expression_like_dataset",
]
