"""Cluster lifecycle building blocks: the outlier buffer and spawning.

Streaming traffic that fails the outlier gate is not noise by
definition — it may be the first sign of a cluster the model has never
seen.  :class:`OutlierBuffer` keeps a *bounded* FIFO of the most recent
rejected rows (a :class:`RowWindow`, the type the engine's per-cluster
drift windows use too); :func:`find_spawn_candidate` periodically runs the
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

__all__ = ["OutlierBuffer", "RowWindow", "find_spawn_candidate"]

#: Grids tried per seed-group attempt (the paper's ``g``, scaled down:
#: the buffer is small).
SPAWN_GRIDS = 8
#: Independent seed-group constructions per spawn search; the densest
#: qualifying peak wins.
SPAWN_GROUP_ATTEMPTS = 2


class RowWindow:
    """The newest ``capacity`` rows appended, oldest first, as one contiguous view.

    The rows live in one block of at most ``capacity + capacity // 4``
    rows, grown by doubling while the window fills.  The window slides
    forward through the block; only when an append would run past its
    end are the kept rows moved to the front, in pieces that need no
    temporary.  So appending ``n`` rows copies them once plus, amortised,
    at most about ``4 n`` kept rows, where concatenating and trimming
    copied the whole window on every append, and nothing is allocated
    once the block is full.

    Parameters
    ----------
    capacity:
        Maximum rows retained; the oldest rows fall out first.
    n_dimensions:
        Row width ``d``.

    :attr:`rows` is a view into the block, which a later :meth:`extend`
    or :meth:`remove` may overwrite: copy rows that must outlive the
    next change.
    """

    def __init__(self, capacity: int, n_dimensions: int) -> None:
        self.capacity = check_positive_int(capacity, name="capacity", minimum=1)
        self.n_dimensions = check_positive_int(n_dimensions, name="n_dimensions", minimum=1)
        self._block = np.empty((0, self.n_dimensions))
        self._start = 0
        self._stop = 0

    def __len__(self) -> int:
        return self._stop - self._start

    @property
    def rows(self) -> np.ndarray:
        """The retained rows, oldest first (a view, see the class notes)."""
        return self._block[self._start : self._stop]

    def extend(self, rows: np.ndarray) -> int:
        """Append the ``(n, d)`` block ``rows``; returns how many rows fell out.

        The count covers retained rows pushed out and rows of ``rows``
        itself beyond the newest ``capacity``.
        """
        n_rows = int(rows.shape[0])
        dropped = max(0, len(self) + n_rows - self.capacity)
        incoming = rows[max(0, n_rows - self.capacity) :]
        n_incoming = incoming.shape[0]
        if n_incoming == 0:
            return dropped
        if self._stop + n_incoming > self._block.shape[0]:
            keep = min(len(self), self.capacity - n_incoming)
            source = self._stop - keep
            limit = self.capacity + self.capacity // 4
            if self._block.shape[0] < limit:
                grown = max(2 * self._block.shape[0], keep + n_incoming)
                block = np.empty((min(limit, grown), self.n_dimensions))
                block[:keep] = self._block[source : self._stop]
                self._block = block
            else:
                # Move the kept rows to the front in pieces that do not
                # overlap their source (``source`` >= 1 rows apart), so
                # numpy needs no temporary copy for any of them.
                for offset in range(0, keep, source):
                    piece = min(source, keep - offset)
                    self._block[offset : offset + piece] = self._block[
                        source + offset : source + offset + piece
                    ]
            self._start, self._stop = 0, keep
        self._block[self._stop : self._stop + n_incoming] = incoming
        self._stop += n_incoming
        self._start = max(self._start, self._stop - self.capacity)
        return dropped

    def remove(self, indices: np.ndarray) -> None:
        """Drop the rows at ``indices`` (positions in :attr:`rows`)."""
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return
        mask = np.ones(len(self), dtype=bool)
        mask[indices] = False
        kept = self.rows[mask]
        self._block[: kept.shape[0]] = kept
        self._start, self._stop = 0, kept.shape[0]

    def clear(self) -> None:
        """Drop every row."""
        self._start = self._stop = 0


class OutlierBuffer(RowWindow):
    """Bounded FIFO of the most recently gated-out rows.

    A :class:`RowWindow` of ``capacity`` rows that validates each block
    it is given and counts the rows it saw and evicted.

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
        super().__init__(capacity, n_dimensions)
        self.n_seen = 0
        self.n_dropped = 0

    def extend(self, rows: np.ndarray) -> int:
        """Append ``rows``, evicting the oldest beyond ``capacity``."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n_dimensions:
            raise ValueError(
                "rows must have shape (n, %d), got %s" % (self.n_dimensions, (rows.shape,))
            )
        dropped = super().extend(rows)
        self.n_seen += int(rows.shape[0])
        self.n_dropped += dropped
        return dropped

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
