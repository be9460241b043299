"""Baseline clustering algorithms used in the paper's comparison.

Everything here is implemented from scratch on top of numpy:

* :class:`PROCLUS` — the partitional projected clustering algorithm of
  Aggarwal et al. (SIGMOD 1999), the paper's main projected baseline.
* :class:`HARP` — the hierarchical projected clustering algorithm of
  Yip et al. (TKDE 2004), re-created from the description in Section 2.1.
* :class:`CLARANS` — the randomized k-medoids algorithm of Ng & Han
  (VLDB 1994), the paper's non-projected reference.

All estimators follow the same ``fit`` / ``labels_`` / ``result_``
interface as :class:`repro.SSPC`, so the experiment harness treats them
interchangeably.
"""

from repro.baselines.clarans import CLARANS
from repro.baselines.proclus import PROCLUS
from repro.baselines.harp import HARP

__all__ = [
    "CLARANS",
    "PROCLUS",
    "HARP",
]
