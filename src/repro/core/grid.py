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
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_array_2d, check_index_sequence, check_positive_int

#: Largest ``bins ** c`` a grid accepts: it counts cells in a dense array
#: with one slot per possible cell (8 MiB of counts at the limit).
DENSE_CELL_LIMIT = 1 << 20


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

    def column(self, dimension: int) -> Tuple[np.ndarray, float, float]:
        """``(bin index per object, low, span)`` of one dimension, cached."""
        dimension = int(dimension)
        binned = self._columns.get(dimension)
        if binned is None:
            values = self.data[self.object_indices, dimension]
            low = values.min()
            high = values.max()
            span = high - low if high > low else 1.0
            # Scale each coordinate into [0, bins) and clip the right edge so
            # the maximum falls in the last bin rather than a phantom extra bin.
            scaled = (values - low) / span * self.bins_per_dimension
            bins = np.minimum(scaled.astype(int), self.bins_per_dimension - 1)
            binned = self._columns[dimension] = (bins, low, span)
        return binned


class Grid:
    """Equal-width multi-dimensional histogram over selected dimensions.

    Every object of ``binning`` gets one integer cell id and the cell
    densities are a single ``np.bincount`` of those ids.  Members are
    materialised only for a cell a caller asks for, in row order.

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
        self._counts = np.bincount(ids, minlength=n_possible)
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
        """
        current = self.cell_of(start_point)
        current_density = self.cell_density(current)
        improved = True
        while improved:
            improved = False
            for neighbour in self._neighbours(current):
                density = self.cell_density(neighbour)
                if density > current_density:
                    current, current_density = neighbour, density
                    improved = True
        return self._result(current)

    def _neighbours(self, cell: Tuple[int, ...]):
        """All neighbouring cells of ``cell`` (Moore neighbourhood)."""
        upper = self.bins_per_dimension
        for offset in _moore_offsets(len(cell)):
            neighbour = tuple(map(operator.add, cell, offset))
            if min(neighbour) >= 0 and max(neighbour) < upper:
                yield neighbour


@functools.lru_cache(maxsize=8)
def _moore_offsets(n_dimensions: int) -> Tuple[Tuple[int, ...], ...]:
    """Non-zero offsets in ``{-1, 0, 1} ** n_dimensions``, in product order."""
    return tuple(
        offset for offset in itertools.product((-1, 0, 1), repeat=n_dimensions) if any(offset)
    )


def one_dimensional_density(
    data,
    dimension: int,
    anchor_value: float,
    *,
    bins: int = 10,
    restrict_to: Optional[Sequence[int]] = None,
) -> float:
    """Object density around ``anchor_value`` along one dimension.

    Used by the no-knowledge initialisation case (Section 4.2.4): a
    one-dimensional histogram is built for every dimension and the
    density of the bin containing the max-min object measures how likely
    the dimension is to be relevant to the cluster centred around that
    object.  The value returned is the fraction of (restricted) objects
    falling in the anchor's bin, so it is comparable across dimensions.
    """
    data = check_array_2d(data, name="data")
    if not 0 <= dimension < data.shape[1]:
        raise ValueError("dimension %d outside [0, %d)" % (dimension, data.shape[1]))
    bins = check_positive_int(bins, name="bins", minimum=2)
    if restrict_to is None:
        column = data[:, dimension]
    else:
        indices = check_index_sequence(restrict_to, data.shape[0], name="restrict_to", allow_empty=False)
        column = data[indices, dimension]
    low, high = float(column.min()), float(column.max())
    span = high - low if high > low else 1.0
    scaled = (column - low) / span * bins
    bin_indices = np.minimum(scaled.astype(int), bins - 1)
    anchor_scaled = (float(anchor_value) - low) / span * bins
    anchor_bin = int(np.clip(anchor_scaled, 0, bins - 1))
    count = int(np.count_nonzero(bin_indices == anchor_bin))
    return count / float(column.shape[0])


def one_dimensional_density_profile(
    data,
    anchor: Sequence[float],
    *,
    bins: int = 10,
    restrict_to: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """:func:`one_dimensional_density` for every dimension in one pass.

    The no-knowledge initialisation case needs the anchor-bin density of
    *all* ``d`` dimensions; calling the scalar helper per dimension costs
    ``d`` validations and ``d`` Python-level passes.  This vectorised
    version bins every column at once and returns the length-``d``
    density vector, with values identical to the scalar helper.
    """
    data = check_array_2d(data, name="data")
    bins = check_positive_int(bins, name="bins", minimum=2)
    anchor = np.asarray(anchor, dtype=float).ravel()
    if anchor.shape[0] != data.shape[1]:
        raise ValueError("anchor must provide one value per dimension")
    if restrict_to is None:
        block = data
    else:
        indices = check_index_sequence(
            restrict_to, data.shape[0], name="restrict_to", allow_empty=False
        )
        block = data[indices]
    lows = block.min(axis=0)
    highs = block.max(axis=0)
    spans = np.where(highs > lows, highs - lows, 1.0)
    scaled = (block - lows) / spans * bins
    bin_indices = np.minimum(scaled.astype(int), bins - 1)
    anchor_scaled = (anchor - lows) / spans * bins
    anchor_bins = np.clip(anchor_scaled.astype(int), 0, bins - 1)
    counts = np.count_nonzero(bin_indices == anchor_bins, axis=0)
    return counts / float(block.shape[0])
