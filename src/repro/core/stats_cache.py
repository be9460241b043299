"""Shared per-iteration statistics engine for the SSPC hot loop.

Every pass of the SSPC main loop (Listing 2) needs the same per-cluster,
per-dimension statistics — mean, median and variance of the member
block — in three different places:

* ``SelectDim`` compares the dispersion against the selection threshold
  (:mod:`repro.core.dimension_selection`),
* the objective evaluation computes ``phi_ij`` from the same dispersion
  (:mod:`repro.core.objective`), and
* the representative-replacement step takes the cluster median
  (:mod:`repro.core.representatives`).

The seed implementation recomputed the full statistics from scratch at
each site — three full passes over every cluster's data block per
iteration.  :class:`ClusterStatsCache` removes the redundancy:
statistics are computed **exactly once per distinct member set** and
shared by every consumer.  The pass itself
(:meth:`~repro.core.objective.ClusterStatistics.from_members`) gathers
the member block once; the median, still its largest cost, is one
single-``kth`` partition per column
(:func:`~repro.core.objective.column_median`, expected :math:`O(m d)`),
and the variance reuses the mean instead of summing the block again.
Both are bit-identical to ``np.median`` and ``var(ddof=1)``.

Design
------
The cache is keyed on a cheap fingerprint of the member index array (its
raw bytes).  Two lookups hit the same entry exactly when the member
arrays are byte-identical, which also guarantees the returned statistics
are *bit-identical* to a direct :meth:`ClusterStatistics.from_members`
call — the single-statistics-pass invariant never changes results, only
how often they are computed.  A membership change produces a different
byte string, so stale entries are never returned; old entries are
evicted in insertion order once ``max_entries`` is exceeded (the SSPC
loop only ever needs the current iteration's ``k`` member sets plus the
best-so-far snapshot, so a small bound suffices).

The cache is shared across SSPC's layers: :class:`~repro.core.objective.ObjectiveFunction`
creates one by default (so ``SelectDim``, ``phi`` and the seed-group
builder all hit the same store), and :mod:`repro.baselines.proclus`
builds a private one for its cost evaluation's per-cluster means.

Setting ``max_entries=0`` disables storage entirely (every call computes
fresh statistics); the ``hotpath`` bench scenario
(:mod:`repro.bench.perf_hotpath`) uses this to time the naive reference
path against the cached path on identical code.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.objective import ClusterStatistics

__all__ = ["ClusterStatsCache", "merge_mean_variance"]


def merge_mean_variance(
    size_a: int,
    mean_a: np.ndarray,
    variance_a: np.ndarray,
    size_b: int,
    mean_b: np.ndarray,
    variance_b: np.ndarray,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Pool two disjoint blocks' (size, mean, variance) without their data.

    Implements Chan et al.'s parallel update of the sum of squared
    deviations: with ``M2 = (n - 1) * variance`` (``ddof=1``, and ``M2 = 0``
    for blocks of fewer than two rows, matching
    :meth:`~repro.core.objective.ClusterStatistics.from_members`)::

        n      = n_a + n_b
        delta  = mean_b - mean_a
        mean   = mean_a + delta * n_b / n
        M2     = M2_a + M2_b + delta^2 * n_a * n_b / n

    This is the serving-side ``partial_update`` primitive: a cluster's
    cached statistics are folded together with a batch of newly accepted
    points in O(d), no refit over the historical members required.  The
    result agrees with a from-scratch pass over the concatenated blocks
    up to floating-point rounding.

    Parameters
    ----------
    size_a, mean_a, variance_a:
        Statistics of the first block (``size_a >= 0``; the mean/variance
        of an empty block are ignored).
    size_b, mean_b, variance_b:
        Statistics of the second block.

    Returns
    -------
    (int, numpy.ndarray, numpy.ndarray)
        Merged ``(size, mean, variance)`` with ``ddof=1`` variance
        (zeros when the merged block has fewer than two rows).
    """
    size_a = int(size_a)
    size_b = int(size_b)
    if size_a < 0 or size_b < 0:
        raise ValueError("block sizes must be non-negative")
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    variance_a = np.asarray(variance_a, dtype=float)
    variance_b = np.asarray(variance_b, dtype=float)
    if size_a == 0:
        return size_b, mean_b.copy(), variance_b.copy()
    if size_b == 0:
        return size_a, mean_a.copy(), variance_a.copy()
    size = size_a + size_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (size_b / size)
    m2 = (
        variance_a * max(size_a - 1, 0)
        + variance_b * max(size_b - 1, 0)
        + delta ** 2 * (size_a * size_b / size)
    )
    if size > 1:
        variance = m2 / (size - 1)
    else:
        variance = np.zeros_like(mean)
    return size, mean, variance


class ClusterStatsCache:
    """Compute-once store of :class:`ClusterStatistics` per member set.

    Parameters
    ----------
    data:
        The ``(n, d)`` dataset all statistics are computed against.
    max_entries:
        Upper bound on stored entries; the oldest entry is evicted when
        the bound is exceeded.  ``0`` disables caching (pass-through
        mode, used as the naive reference in benchmarks and tests).

    Attributes
    ----------
    hits, misses:
        Lookup counters.  ``misses`` equals the number of full-data
        statistics passes actually performed, so consumers (tests, the
        hot-path benchmark) can assert the single-pass invariant.
    evictions:
        Entries dropped by the LRU bound.  A non-trivial eviction count
        with a low :attr:`hit_rate` means the working set outgrew
        ``max_entries`` (streaming membership churn does this) and the
        bound should be raised by whoever constructed the cache.
    """

    def __init__(self, data: np.ndarray, *, max_entries: int = 128) -> None:
        # Statistics must be computed at the same dtype every consumer
        # uses (float64), or the bit-identity contract breaks for
        # float32 / list inputs.
        self.data = np.asarray(data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("data must be a 2-d array")
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = int(max_entries)
        self._store: "OrderedDict[bytes, ClusterStatistics]" = OrderedDict()
        self._mean_store: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._global: Optional[ClusterStatistics] = None
        self._global_variance: Optional[np.ndarray] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def statistics(self, members: Sequence[int]) -> ClusterStatistics:
        """Statistics of ``members``, computed at most once per member set.

        The key is the byte representation of the (order-preserving)
        ``int64`` member array, so cached results are bit-identical to a
        direct computation and a membership change can never alias a
        stale entry.
        """
        members = np.ascontiguousarray(members, dtype=np.int64)
        if self.max_entries == 0:
            self.misses += 1
            return ClusterStatistics.from_members(self.data, members)
        key = members.tobytes()
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            self._store.move_to_end(key)
            return cached
        self.misses += 1
        stats = ClusterStatistics.from_members(self.data, members)
        self._store[key] = stats
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1
        return stats

    def median(self, members: Sequence[int]) -> np.ndarray:
        """Per-dimension median of ``members`` (shares the cached pass)."""
        return self.statistics(members).median

    def mean(self, members: Sequence[int]) -> np.ndarray:
        """Per-dimension mean of ``members`` without a full statistics pass.

        A lighter entry point for consumers that never need the median or
        variance (e.g. the PROCLUS cost evaluation): a full cached
        statistics entry is reused when one exists, otherwise only the
        mean is computed and memoized — the median pass is never
        triggered.
        """
        members = np.ascontiguousarray(members, dtype=np.int64)
        if members.size == 0:
            return np.zeros(self.data.shape[1])
        if self.max_entries == 0:
            return self.data[members].mean(axis=0)
        key = members.tobytes()
        full = self._store.get(key)
        if full is not None:
            self.hits += 1
            return full.mean
        cached = self._mean_store.get(key)
        if cached is not None:
            self.hits += 1
            self._mean_store.move_to_end(key)
            return cached
        mean = self.data[members].mean(axis=0)
        self._mean_store[key] = mean
        while len(self._mean_store) > self.max_entries:
            self._mean_store.popitem(last=False)
            self.evictions += 1
        return mean

    @property
    def global_statistics(self) -> ClusterStatistics:
        """Statistics of the full dataset (computed once, never evicted)."""
        if self._global is None:
            self._global = ClusterStatistics.from_members(
                self.data, np.arange(self.data.shape[0], dtype=np.int64)
            )
        return self._global

    @property
    def global_variance(self) -> np.ndarray:
        """Global per-column variance (``ddof=1``), computed once.

        Cheaper than :attr:`global_statistics` for consumers that never
        need the global median (threshold fitting): no median pass is
        triggered.
        """
        if self._global is not None:
            return self._global.variance
        if self._global_variance is None:
            self._global_variance = self.data.var(axis=0, ddof=1)
        return self._global_variance

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def n_stat_passes(self) -> int:
        """Number of full statistics computations performed so far."""
        return self.misses

    @property
    def n_entries(self) -> int:
        """Number of member sets currently stored."""
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """Snapshot of the lookup counters (diagnostics / bench payloads)."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "entries": int(len(self._store)),
            "hit_rate": float(self.hit_rate),
        }

    def reset_counters(self) -> None:
        """Zero the lookup counters while keeping every cached entry.

        :meth:`SSPC.fit` calls this at the start of every run so
        :meth:`counters` / :attr:`hit_rate` describe exactly one fit —
        even when a ``_stats_cache_factory`` override shares one cache
        across estimators (warm entries stay warm; the tally restarts).
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        """Drop every stored entry and reset the counters."""
        self._store.clear()
        self._mean_store.clear()
        self._global = None
        self._global_variance = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return "ClusterStatsCache(entries=%d, hits=%d, misses=%d, evictions=%d)" % (
            len(self._store),
            self.hits,
            self.misses,
            self.evictions,
        )
