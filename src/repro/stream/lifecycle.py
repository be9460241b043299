"""Cluster lifecycle building blocks: the outlier buffer and spawning.

Streaming traffic that fails the outlier gate is not noise by
definition — it may be the first sign of a cluster the model has never
seen.  :class:`OutlierBuffer` keeps a *bounded* FIFO of the most recent
rejected rows; :func:`find_spawn_candidate` periodically runs the
paper's own initialisation machinery over that buffer — grids over
candidate dimension subsets, densest-peak search, chi-square dimension
estimation (:mod:`repro.core.grid` / :mod:`repro.core.seed_groups`) —
and proposes a new cluster when a sufficiently dense region exists.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.objective import ObjectiveFunction
from repro.core.seed_groups import SeedGroupBuilder
from repro.core.stats_cache import ClusterStatsCache
from repro.core.thresholds import SelectionThreshold
from repro.utils.validation import check_positive_int

__all__ = ["OutlierBuffer", "find_spawn_candidate"]

#: Grids tried per seed-group attempt (the paper's ``g``, scaled down:
#: the buffer is small).
SPAWN_GRIDS = 8
#: Independent seed-group constructions per spawn search; the densest
#: qualifying peak wins.
SPAWN_GROUP_ATTEMPTS = 2


class OutlierBuffer:
    """Bounded FIFO of the most recently gated-out rows.

    Parameters
    ----------
    capacity:
        Maximum rows retained; the oldest rows are dropped first.
    n_dimensions:
        Row width ``d``.

    Attributes
    ----------
    n_seen:
        Total rows ever pushed.
    n_dropped:
        Rows evicted by the capacity bound (so tests and the bench can
        assert the buffer really is bounded, not silently lossless).
    """

    def __init__(self, capacity: int, n_dimensions: int) -> None:
        self.capacity = check_positive_int(capacity, name="capacity", minimum=1)
        self.n_dimensions = check_positive_int(n_dimensions, name="n_dimensions", minimum=1)
        self._rows = np.empty((0, self.n_dimensions))
        self.n_seen = 0
        self.n_dropped = 0

    def __len__(self) -> int:
        return int(self._rows.shape[0])

    @property
    def rows(self) -> np.ndarray:
        """The buffered rows, oldest first (read-only view semantics)."""
        return self._rows

    def extend(self, rows: np.ndarray) -> None:
        """Append ``rows``, evicting the oldest beyond ``capacity``."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n_dimensions:
            raise ValueError(
                "rows must have shape (n, %d), got %s" % (self.n_dimensions, (rows.shape,))
            )
        if rows.shape[0] == 0:
            return
        self.n_seen += int(rows.shape[0])
        merged = np.concatenate([self._rows, rows], axis=0)
        if merged.shape[0] > self.capacity:
            self.n_dropped += int(merged.shape[0] - self.capacity)
            merged = merged[-self.capacity:]
        self._rows = merged

    def remove(self, indices: np.ndarray) -> None:
        """Drop the rows at ``indices`` (used after a successful spawn)."""
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return
        mask = np.ones(self._rows.shape[0], dtype=bool)
        mask[indices] = False
        self._rows = self._rows[mask]

    def clear(self) -> None:
        """Drop every buffered row (counters are kept)."""
        self._rows = np.empty((0, self.n_dimensions))

    def __repr__(self) -> str:
        return "OutlierBuffer(%d/%d rows, seen=%d, dropped=%d)" % (
            len(self),
            self.capacity,
            self.n_seen,
            self.n_dropped,
        )


def find_spawn_candidate(
    rows: np.ndarray,
    threshold: SelectionThreshold,
    rng: np.random.Generator,
    *,
    min_points: int,
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """Propose a new cluster from the outlier buffer, or ``None``.

    Runs the knowledge-free seed-group construction (Section 4.2.4 of
    the paper) over ``rows``: max-min anchored grids on density-weighted
    candidate dimensions, densest peak wins, relevant dimensions
    estimated with the size-adaptive chi-square criterion.  A candidate
    is returned only when its peak holds at least ``min_points`` rows
    *and* at least one relevant dimension was found — a diffuse buffer
    of genuine background noise produces no candidate.

    Parameters
    ----------
    rows:
        The buffered outlier rows (row indices index into this block).
    threshold:
        A fitted selection threshold describing the *stream-era* global
        population (its global variances weight the grid search).
    rng:
        Generator driving the grid sampling (the caller derives it
        deterministically from the stream position).
    min_points:
        Minimum peak size that justifies a new cluster.

    Returns
    -------
    ``(seed_indices, dimensions, peak_density)`` or ``None``.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < max(int(min_points), 2):
        return None
    workspace = ClusterStatsCache(rows)
    objective = ObjectiveFunction(rows, threshold, stats_cache=workspace)
    builder = SeedGroupBuilder(
        objective, 1, grids_per_group=SPAWN_GRIDS, public_group_factor=SPAWN_GROUP_ATTEMPTS
    )
    _, public_groups = builder.build(rng)
    best = None
    for group in public_groups:
        if group.n_seeds < int(min_points) or group.dimensions.size == 0:
            continue
        if best is None or group.peak_density > best.peak_density:
            best = group
    if best is None:
        return None
    return best.seeds.copy(), best.dimensions.copy(), int(best.peak_density)
