"""Model persistence and out-of-sample inference for projected clusterings.

The serving subsystem turns a fitted clustering into a deployable model,
mirroring the fit-once / score-many split of production clustering
systems:

* :mod:`repro.serving.artifact` — :class:`ModelArtifact`, a versioned
  NPZ+JSON on-disk format capturing selected dimensions,
  representatives, per-dimension statistics, thresholds and fit
  metadata, with exact :class:`~repro.core.model.ClusteringResult`
  round trips.
* :mod:`repro.serving.index` — :class:`ProjectedClusterIndex`, the
  batched assignment engine: one broadcasted pass per
  selected-dimension count (the PR-1 fused-kernel shape), outlier
  gating via the stored thresholds, top-m soft assignments, and
  incremental ``partial_update`` statistics maintenance.
* :mod:`repro.serving.cli` — the ``repro-serve`` /
  ``python -m repro.serve`` command line (``fit`` / ``predict`` /
  ``inspect``).

Typical lifecycle::

    model = SSPC(n_clusters=5, m=0.5, random_state=0).fit(train)
    model.save("artifacts/expr-v1")              # persist
    ...
    index = ProjectedClusterIndex.from_path("artifacts/expr-v1")
    labels = index.predict(new_points)           # serve
    index.partial_update(new_points, labels)     # absorb accepted traffic
"""

from repro.reliability.bundle import CompressedMemberError, mmap_npz
from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    SCHEMA_VERSION,
    ClusterModel,
    ModelArtifact,
    load_artifact,
    threshold_from_description,
)
from repro.serving.index import ProjectedClusterIndex, ServingClusterStats

__all__ = [
    "ARTIFACT_FORMAT",
    "SCHEMA_VERSION",
    "ClusterModel",
    "CompressedMemberError",
    "ModelArtifact",
    "load_artifact",
    "mmap_npz",
    "threshold_from_description",
    "ProjectedClusterIndex",
    "ServingClusterStats",
]
