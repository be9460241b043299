"""repro — reproduction of SSPC (Semi-Supervised Projected Clustering).

This library reproduces the system described in "On Discovery of
Extremely Low-Dimensional Clusters using Semi-Supervised Projected
Clustering" (Yip, Cheung, Ng; ICDE 2005):

* :class:`repro.SSPC` — the paper's algorithm, including the robust
  objective function, the two selection-threshold schemes, grid-based
  initialisation from labeled objects / labeled dimensions, and the
  iterative medoid/median optimisation.
* :mod:`repro.baselines` — PROCLUS, HARP and CLARANS, the paper's
  comparison algorithms, implemented from scratch.
* :mod:`repro.data` — synthetic generators following the paper's data
  model, including the multiple-groupings construction.
* :mod:`repro.semisupervision` — labeled objects / dimensions and the
  knowledge sampling protocols.
* :mod:`repro.evaluation` — the Adjusted Rand Index used by the paper
  plus auxiliary metrics.
* :mod:`repro.experiments` — runners that regenerate every table and
  figure of the paper's evaluation section.
* :mod:`repro.serving` — model artifacts and high-throughput
  out-of-sample inference: save a fitted model, reload it in another
  process, and assign batches of unseen points to the learned projected
  clusters (``python -m repro.serve`` for the command line).
* :mod:`repro.stream` — online projected clustering over unbounded
  drifting streams: micro-batch folding through the serving index,
  cluster spawn/retire lifecycle, per-cluster drift adaptation and
  resumable checkpoints (``python -m repro.stream`` for the command
  line).

Every name above resolves on first access: ``import repro`` itself
imports nothing else, and ``repro.SSPC`` (or ``from repro import SSPC``)
imports only what the estimator runs.

Quickstart
----------
>>> from repro import SSPC
>>> from repro.data import make_projected_clusters
>>> dataset = make_projected_clusters(n_objects=300, n_dimensions=60,
...                                   n_clusters=3, avg_cluster_dimensionality=6,
...                                   random_state=0)
>>> model = SSPC(n_clusters=3, m=0.5, random_state=0).fit(dataset.data)
>>> labels = model.labels_
"""

from repro import _lazy

__version__ = "7.0.0"

#: Every public name, and each subpackage read as an attribute, with the
#: module that defines it.
#: Nothing is imported until a name is first read (see ``repro._lazy``),
#: so ``import repro`` alone loads neither numpy nor scipy.
_EXPORTS = {
    "SSPC": "repro.core.sspc",
    "Knowledge": "repro.semisupervision.knowledge",
    "ClusteringResult": "repro.core.model",
    "ProjectedCluster": "repro.core.model",
    "OUTLIER_LABEL": "repro.core.model",
    "ModelArtifact": "repro.serving.artifact",
    "ProjectedClusterIndex": "repro.serving.index",
    "load_artifact": "repro.serving.artifact",
    "StreamConfig": "repro.stream.engine",
    "StreamingSSPC": "repro.stream.engine",
    **{
        name: "repro." + name
        for name in (
            "core", "obs", "reliability", "semisupervision", "serving", "stream", "utils"
        )
    },
}

__all__ = _lazy.public_names(__name__, _EXPORTS) + ["__version__"]
__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
