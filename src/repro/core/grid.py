"""Multi-dimensional grid (histogram) engine used by SSPC's initialisation.

Section 4.2 of the paper locates cluster centres by building grids —
multi-dimensional histograms over a small number ``c`` (typically 3) of
candidate dimensions.  When all ``c`` building dimensions are relevant to
a cluster, one cell contains an unexpectedly large number of objects (the
cluster centre in that subspace); if any building dimension is
irrelevant, the peak density is much lower.  Several grids are built from
different dimension subsets and the densest peak wins.

Two peak-finding modes are needed:

* the *absolute peak* — the cell with the most objects anywhere in the
  grid (used when only labeled dimensions are available), and
* a *localized hill-climbing search* starting from the cell containing a
  given anchor point (the median of the labeled objects, or the max-min
  object) — used when an approximate cluster centre is known, and also to
  cope with grids whose building dimensions are relevant to several
  clusters (multiple peaks).

All grids of one seed-group search share a :class:`GridBinning` of the
same objects, so the data is validated and each dimension binned once per
search; a :class:`Grid` then only combines its ``c`` bin columns into one
cell id per object and counts the cells.  Every possible cell has a slot,
so a grid refuses more than :data:`DENSE_CELL_LIMIT` possible cells; the
seed-group builder's grids (``c = 3``, at most 8 bins) have at most 512.
A hill-climb step is one lookup into the current cell's row of
neighbour ids (:func:`_neighbour_ids`), cached per ``(bins, c)`` up to
:data:`NEIGHBOUR_TABLE_LIMIT` entries.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_array_2d, check_index_sequence, check_positive_int

#: Largest ``bins ** c`` a grid accepts: it counts cells in a dense array
#: with one slot per possible cell (8 MiB of counts at the limit).
DENSE_CELL_LIMIT = 1 << 20

#: Largest neighbour table (``bins ** c`` rows of ``3 ** c - 1`` cell ids)
#: cached for a hill-climb.  The seed-group grids' largest is 8 ** 3 x 26 =
#: 13,312 ids (104 KiB); a grid whose table would be larger computes the
#: row of each cell it steps on instead (a table for ``32 ** 4`` cells
#: would take 640 MiB).
NEIGHBOUR_TABLE_LIMIT = 1 << 16


@dataclass
class GridSearchResult:
    """Outcome of a peak search on one grid.

    Attributes
    ----------
    cell:
        Index tuple of the winning cell (one bin index per building
        dimension).
    members:
        Object indices falling in the winning cell.
    density:
        Number of objects in the winning cell.
    dimensions:
        The building dimensions of the grid.
    """

    cell: Tuple[int, ...]
    members: np.ndarray
    density: int
    dimensions: np.ndarray


class GridBinning:
    """One equal-width binning of a fixed object set, shared by many grids.

    A seed-group search builds ``g`` grids over the same objects with the
    same resolution; only the building dimensions differ.  The binning
    validates the data and the object subset once, and bins each
    dimension the first time a grid asks for it (then serves the cached
    column to every later grid of the search).

    Every bin index is the object's normalised coordinate
    ``(x - low) / span`` (``low``/``span`` over the binned objects)
    times the bin count, truncated and clipped to the last bin.  A
    knowledge-free search first asks for :meth:`anchor_density`, which
    normalises all ``d`` columns in one pass; every later column is then
    that quotient times :attr:`bins_per_dimension`, bit-identical to
    normalising the one column.  A search that never asks for it (the
    private groups) normalises only the columns its grids use.

    Parameters
    ----------
    data:
        The full ``(n, d)`` dataset.
    bins_per_dimension:
        Number of equal-width bins per building dimension.  The paper
        keeps the number of building dimensions small (3) so each cell
        still holds enough objects; with ``b`` bins per dimension a grid
        has ``b ** c`` cells.
    restrict_to:
        Optional subset of object indices to place in the grids (used when
        previously seeded clusters' likely members are excluded).
    """

    def __init__(
        self,
        data,
        *,
        bins_per_dimension: int = 5,
        restrict_to: Optional[Sequence[int]] = None,
    ) -> None:
        self.data = check_array_2d(data, name="data")
        self.bins_per_dimension = check_positive_int(
            bins_per_dimension, name="bins_per_dimension", minimum=2
        )
        if restrict_to is None:
            self.object_indices = np.arange(self.data.shape[0])
        else:
            self.object_indices = check_index_sequence(
                restrict_to, self.data.shape[0], name="restrict_to", allow_empty=False
            )
        self._columns: Dict[int, Tuple[np.ndarray, float, float]] = {}
        # ``(quotients, lows, spans)`` of all d columns, once normalised.
        self._normalised: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def column(self, dimension: int) -> Tuple[np.ndarray, float, float]:
        """``(bin index per object, low, span)`` of one dimension, cached."""
        dimension = int(dimension)
        binned = self._columns.get(dimension)
        if binned is None:
            if self._normalised is None:
                values = self.data[self.object_indices, dimension]
                low = values.min()
                high = values.max()
                span = high - low if high > low else 1.0
                quotient = (values - low) / span
            else:
                quotients, lows, spans = self._normalised
                quotient, low, span = quotients[:, dimension], lows[dimension], spans[dimension]
            # Scale each coordinate into [0, bins) and clip the right edge so
            # the maximum falls in the last bin rather than a phantom extra bin.
            bins = np.minimum(
                (quotient * self.bins_per_dimension).astype(int), self.bins_per_dimension - 1
            )
            binned = self._columns[dimension] = (bins, low, span)
        return binned

    def anchor_density(self, anchor: Sequence[float], bins: int) -> np.ndarray:
        """Per dimension, the fraction of the objects in the anchor's bin.

        The no-knowledge initialisation case (Section 4.2.4) builds a
        one-dimensional histogram of ``bins`` equal-width bins per
        dimension; the share of the objects that fall in the bin holding
        the max-min ``anchor`` measures how likely the dimension is to be
        relevant to the cluster around it, comparably across dimensions.
        Normalises all ``d`` columns (kept for the search's grids).
        """
        bins = check_positive_int(bins, name="bins", minimum=2)
        anchor = np.asarray(anchor, dtype=float).ravel()
        if anchor.shape[0] != self.data.shape[1]:
            raise ValueError("anchor must provide one value per dimension")
        if self._normalised is None:
            quotients = self.data[self.object_indices]  # a copy: normalised in place
            lows = quotients.min(axis=0)
            highs = quotients.max(axis=0)
            spans = np.where(highs > lows, highs - lows, 1.0)
            quotients -= lows
            quotients /= spans
            self._normalised = (quotients, lows, spans)
        quotients, lows, spans = self._normalised
        # Every quotient lies in [0, 1], so every bin index in [0, bins]: the
        # smallest unsigned type that holds ``bins`` keeps the (n, d)
        # temporaries an eighth of int64's size.
        index_type = np.min_scalar_type(bins)
        bin_indices = (quotients * bins).astype(index_type)
        np.minimum(bin_indices, bins - 1, out=bin_indices)
        anchor_bins = np.clip(((anchor - lows) / spans * bins).astype(int), 0, bins - 1)
        counts = np.count_nonzero(bin_indices == anchor_bins.astype(index_type), axis=0)
        return counts / float(quotients.shape[0])


class Grid:
    """Equal-width multi-dimensional histogram over selected dimensions.

    Every object of ``binning`` gets one integer cell id and the cell
    densities are a single ``np.bincount`` of those ids, with one more
    slot that stays zero: the id an out-of-range neighbour maps to in
    :meth:`hill_climb`.  Members are materialised only for a cell a
    caller asks for, in row order.

    Parameters
    ----------
    binning:
        The shared binning of the objects to place in the grid.
    dimensions:
        The building dimensions (the grid only spans these).

    Raises
    ------
    ValueError
        When ``bins ** c`` exceeds :data:`DENSE_CELL_LIMIT`.
    """

    def __init__(self, binning: GridBinning, dimensions: Sequence[int]) -> None:
        self.binning = binning
        self.dimensions = check_index_sequence(
            dimensions, binning.data.shape[1], name="dimensions", allow_empty=False
        )
        self.bins_per_dimension = binning.bins_per_dimension
        n_possible = self.bins_per_dimension ** self.dimensions.size
        if n_possible > DENSE_CELL_LIMIT:
            raise ValueError(
                "a grid of %d bins over %d dimensions has %d possible cells, above "
                "DENSE_CELL_LIMIT = %d"
                % (self.bins_per_dimension, self.dimensions.size, n_possible, DENSE_CELL_LIMIT)
            )
        self.object_indices = binning.object_indices
        columns = [binning.column(dimension) for dimension in self.dimensions]
        self._bins = [bins for bins, _, _ in columns]
        self._lows = np.array([low for _, low, _ in columns])
        self._spans = np.array([span for _, _, span in columns])

        # Mixed-radix id of the bin tuple: every possible cell has a slot.
        ids = self._bins[0].copy()
        for bins in self._bins[1:]:
            ids *= self.bins_per_dimension
            ids += bins
        self._counts = np.bincount(ids, minlength=n_possible + 1)
        self._ids = ids

    # ------------------------------------------------------------------ #
    # cell queries
    # ------------------------------------------------------------------ #
    def _cell_id(self, cell: Tuple[int, ...]) -> int:
        """Id of a possible cell; ``-1`` when no object can fall in it."""
        if len(cell) != len(self._bins):
            return -1
        cell_id = 0
        for b in cell:
            if not 0 <= b < self.bins_per_dimension:
                return -1
            cell_id = cell_id * self.bins_per_dimension + b
        return int(cell_id)

    def _result(self, cell: Tuple[int, ...]) -> GridSearchResult:
        members = self.cell_members(cell)
        return GridSearchResult(
            cell=cell,
            members=members,
            density=int(members.size),
            dimensions=self.dimensions,
        )

    @property
    def n_cells(self) -> int:
        """Number of non-empty cells."""
        return int(np.count_nonzero(self._counts))

    def cell_members(self, cell: Tuple[int, ...]) -> np.ndarray:
        """Object indices in one cell, in row order (empty array for empty cells)."""
        cell_id = self._cell_id(cell)
        if cell_id < 0:
            return np.empty(0, dtype=int)
        return self.object_indices[self._ids == cell_id]

    def cell_density(self, cell: Tuple[int, ...]) -> int:
        """Number of objects in one cell."""
        cell_id = self._cell_id(cell)
        return 0 if cell_id < 0 else int(self._counts[cell_id])

    def cell_of(self, point: Sequence[float]) -> Tuple[int, ...]:
        """The cell containing an arbitrary point (full ``d``-vector)."""
        point = np.asarray(point, dtype=float).ravel()
        if point.shape[0] != self.binning.data.shape[1]:
            raise ValueError("point must be a full d-dimensional vector")
        coords = point[self.dimensions]
        scaled = (coords - self._lows) / self._spans * self.bins_per_dimension
        clipped = np.clip(scaled.astype(int), 0, self.bins_per_dimension - 1)
        return tuple(int(b) for b in clipped)

    # ------------------------------------------------------------------ #
    # peak searches
    # ------------------------------------------------------------------ #
    def absolute_peak(self) -> GridSearchResult:
        """The densest cell of the whole grid.

        Ties go to the cell of the earliest object (in row order) among
        the densest cells.
        """
        row = int(np.argmax(self._counts[self._ids]))
        return self._result(tuple(int(bins[row]) for bins in self._bins))

    def hill_climb(self, start_point: Sequence[float]) -> GridSearchResult:
        """Localized hill-climbing search from the cell containing ``start_point``.

        Repeatedly moves to the densest neighbouring cell (including
        diagonal neighbours) until no neighbour is denser — this locates
        the local density peak nearest the anchor, which the paper uses
        both to deal with multi-peak grids and to correct anchors biased
        towards one side of the cluster.

        Each step reads the current cell's row of neighbour ids (Moore
        neighbourhood, in ``itertools.product((-1, 0, 1), repeat=c)``
        order) and moves to the row's first densest cell when it is
        strictly denser than the current one, which is the cell a scan of
        the neighbours in that order, keeping every strictly denser one,
        ends on.
        """
        bins, n_building = self.bins_per_dimension, self.dimensions.size
        table = None
        if bins ** n_building * (3 ** n_building - 1) <= NEIGHBOUR_TABLE_LIMIT:
            table = _neighbour_table(bins, n_building)
        counts = self._counts
        current = self._cell_id(self.cell_of(start_point))
        while True:
            if table is None:
                row = _neighbour_ids(bins, n_building, np.array([current]))[0]
            else:
                row = table[current]
            densities = counts[row]
            best = densities.argmax()
            if densities[best] <= counts[current]:
                break
            current = row[best]
        cell = np.unravel_index(current, (bins,) * n_building)
        return self._result(tuple(int(b) for b in cell))


@functools.lru_cache(maxsize=8)
def _moore_offsets(n_dimensions: int) -> np.ndarray:
    """Non-zero offsets in ``{-1, 0, 1} ** n_dimensions``, in product order."""
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=n_dimensions)), dtype=np.intp)
    offsets = offsets[np.any(offsets != 0, axis=1)]
    offsets.flags.writeable = False
    return offsets


def _neighbour_ids(bins: int, n_dimensions: int, cells: np.ndarray) -> np.ndarray:
    """Moore-neighbour ids of each cell id in ``cells``, one row per cell.

    A row lists the neighbours in :func:`_moore_offsets` order; a
    neighbour outside the grid is ``bins ** n_dimensions``, the zero-count
    slot of :class:`Grid`'s counts.
    """
    shape = (bins,) * n_dimensions
    coords = np.stack(np.unravel_index(cells, shape), axis=-1)
    neighbours = coords[:, None, :] + _moore_offsets(n_dimensions)
    inside = np.all((neighbours >= 0) & (neighbours < bins), axis=2)
    ids = np.ravel_multi_index(np.moveaxis(neighbours, -1, 0), shape, mode="clip")
    return np.where(inside, ids, bins ** n_dimensions)


@functools.lru_cache(maxsize=8)
def _neighbour_table(bins: int, n_dimensions: int) -> np.ndarray:
    """Every cell's neighbour row (read-only; shared by every grid of that shape)."""
    table = _neighbour_ids(bins, n_dimensions, np.arange(bins ** n_dimensions))
    table.flags.writeable = False
    return table
