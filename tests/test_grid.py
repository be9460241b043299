"""Tests for the grid (multi-dimensional histogram) engine."""

import itertools
import tracemalloc

import numpy as np
import pytest

import repro.core.grid as grid_module
import repro.core.seed_groups as seed_groups_module
from repro.core.grid import (
    DENSE_CELL_LIMIT,
    NEIGHBOUR_TABLE_LIMIT,
    Grid,
    GridBinning,
    GridSearchResult,
)
from repro.core.objective import ObjectiveFunction
from repro.core.seed_groups import SeedGroupBuilder
from repro.core.thresholds import VarianceRatioThreshold
from repro.semisupervision.knowledge import Knowledge
from repro.semisupervision.sampling import sample_knowledge


class ReferenceGrid:
    """Oracle: the lexsort grid with a per-cell member dictionary.

    Builds every cell's member array anew (it reads only the raw
    data, the object subset and the resolution of ``binning``); the
    dictionary is filled in first-occurrence (row) order, so
    :meth:`absolute_peak` breaks density ties towards the cell of the
    earliest row.
    """

    def __init__(self, binning, dimensions):
        self.data = binning.data
        self.dimensions = np.asarray(dimensions, dtype=int)
        self.bins_per_dimension = binning.bins_per_dimension
        self.object_indices = binning.object_indices
        values = self.data[np.ix_(self.object_indices, self.dimensions)]
        lows = values.min(axis=0)
        highs = values.max(axis=0)
        spans = np.where(highs > lows, highs - lows, 1.0)
        scaled = (values - lows) / spans * self.bins_per_dimension
        bin_indices = np.minimum(scaled.astype(int), self.bins_per_dimension - 1)
        self._lows = lows
        self._spans = spans
        self._cells = {}
        n_rows = bin_indices.shape[0]
        order = np.lexsort(bin_indices.T)
        sorted_bins = bin_indices[order]
        sorted_objects = np.asarray(self.object_indices, dtype=int)[order]
        changed = np.any(sorted_bins[1:] != sorted_bins[:-1], axis=1)
        starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
        first_rows = order[starts]
        ends = np.concatenate((starts[1:], [n_rows]))
        for position in np.argsort(first_rows, kind="stable"):
            start, end = int(starts[position]), int(ends[position])
            cell = tuple(int(b) for b in bin_indices[first_rows[position]])
            self._cells[cell] = sorted_objects[start:end]

    @property
    def n_cells(self):
        return len(self._cells)

    def cell_members(self, cell):
        members = self._cells.get(tuple(cell))
        return np.empty(0, dtype=int) if members is None else members

    def cell_density(self, cell):
        return int(self.cell_members(cell).size)

    def cell_of(self, point):
        coords = np.asarray(point, dtype=float).ravel()[self.dimensions]
        scaled = (coords - self._lows) / self._spans * self.bins_per_dimension
        clipped = np.clip(scaled.astype(int), 0, self.bins_per_dimension - 1)
        return tuple(int(b) for b in clipped)

    def _result(self, cell):
        members = self.cell_members(cell)
        return GridSearchResult(cell, members, int(members.size), self.dimensions)

    def absolute_peak(self):
        return self._result(max(self._cells, key=lambda cell: len(self._cells[cell])))

    def hill_climb(self, start_point):
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

    def _neighbours(self, cell):
        for offset in itertools.product((-1, 0, 1), repeat=len(cell)):
            if all(delta == 0 for delta in offset):
                continue
            neighbour = tuple(c + delta for c, delta in zip(cell, offset))
            if all(0 <= c < self.bins_per_dimension for c in neighbour):
                yield neighbour


def one_dimensional_density(data, dimension, anchor_value, *, bins=10, restrict_to=None):
    """Oracle: the share of the (restricted) objects in the anchor's bin of one dimension."""
    column = data[:, dimension] if restrict_to is None else data[restrict_to, dimension]
    low, high = float(column.min()), float(column.max())
    span = high - low if high > low else 1.0
    scaled = (column - low) / span * bins
    bin_indices = np.minimum(scaled.astype(int), bins - 1)
    anchor_scaled = (float(anchor_value) - low) / span * bins
    anchor_bin = int(np.clip(anchor_scaled, 0, bins - 1))
    return int(np.count_nonzero(bin_indices == anchor_bin)) / float(column.shape[0])


def one_dimensional_density_profile(data, anchor, *, bins=10, restrict_to=None):
    """Oracle: :func:`one_dimensional_density` of every dimension, binned in one pass."""
    block = data if restrict_to is None else data[restrict_to]
    lows = block.min(axis=0)
    highs = block.max(axis=0)
    spans = np.where(highs > lows, highs - lows, 1.0)
    bin_indices = np.minimum(((block - lows) / spans * bins).astype(int), bins - 1)
    anchor_bins = np.clip(((anchor - lows) / spans * bins).astype(int), 0, bins - 1)
    return np.count_nonzero(bin_indices == anchor_bins, axis=0) / float(block.shape[0])


def assert_same_result(result, expected):
    assert result.cell == expected.cell
    assert result.density == expected.density
    assert result.members.dtype.kind == "i"
    np.testing.assert_array_equal(result.members, expected.members)


@pytest.fixture()
def clustered_data():
    """200 objects in 10 dims; objects 0-49 concentrated on dims 0-2."""
    rng = np.random.default_rng(21)
    data = rng.uniform(0, 100, size=(200, 10))
    data[:50, 0] = rng.normal(25, 2.0, size=50)
    data[:50, 1] = rng.normal(60, 2.0, size=50)
    data[:50, 2] = rng.normal(80, 2.0, size=50)
    return data


def make_grid(data, dimensions, bins, restrict_to=None):
    return Grid(GridBinning(data, bins_per_dimension=bins, restrict_to=restrict_to), dimensions)


def all_cells(grid):
    return itertools.product(range(grid.bins_per_dimension), repeat=grid.dimensions.size)


class TestGridConstruction:
    def test_all_objects_fall_in_some_cell(self, clustered_data):
        grid = make_grid(clustered_data, [0, 1, 2], 4)
        densities = [grid.cell_density(cell) for cell in all_cells(grid)]
        assert sum(densities) == clustered_data.shape[0]
        assert grid.n_cells == np.count_nonzero(densities)

    def test_restrict_to_limits_objects(self, clustered_data):
        subset = np.arange(50, 200)
        grid = make_grid(clustered_data, [0, 1], 4, restrict_to=subset)
        members = np.concatenate([grid.cell_members(cell) for cell in all_cells(grid)])
        assert members.size == subset.size
        np.testing.assert_array_equal(np.sort(members), subset)

    def test_cell_of_point_consistent_with_membership(self, clustered_data):
        grid = make_grid(clustered_data, [0, 1, 2], 5)
        for index in (0, 10, 199):
            cell = grid.cell_of(clustered_data[index])
            assert index in grid.cell_members(cell)

    def test_invalid_dimension_rejected(self, clustered_data):
        with pytest.raises(ValueError):
            make_grid(clustered_data, [0, 99], 4)

    def test_requires_at_least_two_bins(self, clustered_data):
        with pytest.raises(ValueError):
            make_grid(clustered_data, [0], 1)

    def test_constant_dimension_handled(self):
        data = np.column_stack([np.ones(30), np.linspace(0, 1, 30)])
        grid = make_grid(data, [0, 1], 3)
        assert grid.n_cells >= 1

    def test_grid_past_the_dense_limit_is_refused(self, clustered_data):
        # 8 ** 7 possible cells, twice the limit; the binning stays usable.
        binning = GridBinning(clustered_data, bins_per_dimension=8)
        assert 8 ** 7 > DENSE_CELL_LIMIT
        with pytest.raises(ValueError, match="DENSE_CELL_LIMIT = %d" % DENSE_CELL_LIMIT):
            Grid(binning, range(7))
        assert Grid(binning, [0, 1, 2]).n_cells >= 1

    def test_cells_outside_the_grid_are_empty(self, clustered_data):
        grid = make_grid(clustered_data, [0, 1], 4)
        for cell in [(4, 0), (-1, 0), (0,), (0, 0, 0)]:
            assert grid.cell_density(cell) == 0
            assert grid.cell_members(cell).size == 0


class TestGridBinning:
    def test_grids_share_the_binning(self, clustered_data):
        binning = GridBinning(clustered_data, bins_per_dimension=4, restrict_to=np.arange(10, 90))
        first = Grid(binning, [0, 1, 2])
        second = Grid(binning, [2, 5])
        assert first.object_indices is binning.object_indices
        assert second.object_indices is binning.object_indices
        # Dimension 2 is binned once and shared by both grids.
        assert binning.column(2)[0] is binning.column(2)[0]

    def test_restrict_to_is_copied(self, clustered_data):
        subset = np.arange(20, 60)
        binning = GridBinning(clustered_data, restrict_to=subset)
        subset[0] = 199
        assert binning.object_indices[0] == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bins_per_dimension": 1},
            {"bins_per_dimension": 2.5},
            {"restrict_to": []},
            {"restrict_to": [0, 0]},
            {"restrict_to": [200]},
            {"restrict_to": [-1]},
        ],
    )
    def test_invalid_binning_rejected(self, clustered_data, kwargs):
        with pytest.raises((ValueError, TypeError)):
            GridBinning(clustered_data, **kwargs)

    def test_invalid_data_rejected(self):
        with pytest.raises(ValueError):
            GridBinning(np.array([[0.0, np.nan]]))

    @pytest.mark.parametrize("dimensions", [[], [0, 0], [10]])
    def test_invalid_dimensions_rejected(self, clustered_data, dimensions):
        with pytest.raises(ValueError):
            Grid(GridBinning(clustered_data), dimensions)


class TestPeakSearches:
    def test_absolute_peak_finds_cluster_core(self, clustered_data):
        grid = make_grid(clustered_data, [0, 1, 2], 4)
        peak = grid.absolute_peak()
        # The dense region is the 50-object cluster; most peak members belong to it.
        assert peak.density >= 10
        assert np.mean(peak.members < 50) >= 0.85

    def test_peak_density_lower_with_irrelevant_dimension(self, clustered_data):
        relevant = make_grid(clustered_data, [0, 1, 2], 4).absolute_peak()
        mixed = make_grid(clustered_data, [0, 1, 7], 4).absolute_peak()
        assert relevant.density > mixed.density

    def test_hill_climb_from_cluster_median(self, clustered_data):
        grid = make_grid(clustered_data, [0, 1, 2], 4)
        anchor = np.median(clustered_data[:50], axis=0)
        result = grid.hill_climb(anchor)
        assert result.density >= grid.cell_density(grid.cell_of(anchor))
        assert np.mean(result.members < 50) > 0.8

    def test_hill_climb_reaches_local_maximum(self, clustered_data):
        grid = make_grid(clustered_data, [0, 1], 5)
        result = grid.hill_climb(clustered_data[100])
        for neighbour in ReferenceGrid._neighbours(grid, result.cell):
            assert grid.cell_density(neighbour) <= result.density

    def test_hill_climb_from_biased_anchor_recovers_peak(self, clustered_data):
        # Start from a point offset from the cluster centre (simulating a
        # labeled-object median biased to one side of the class).
        grid = make_grid(clustered_data, [0, 1, 2], 4)
        biased = np.median(clustered_data[:50], axis=0)
        biased[0] += 8.0
        result = grid.hill_climb(biased)
        assert np.mean(result.members < 50) > 0.5

    def test_empty_grid_absolute_peak(self, clustered_data):
        grid = make_grid(clustered_data, [0], 3, restrict_to=[5])
        peak = grid.absolute_peak()
        assert peak.density == 1

    def test_absolute_peak_ties_go_to_the_earliest_row(self):
        # Cells (1,) and (0,) both hold two objects; row 0 lies in cell (1,).
        data = np.array([[1.0], [0.0], [1.0], [0.0]])
        peak = make_grid(data, [0], 2).absolute_peak()
        assert peak.cell == (1,)
        np.testing.assert_array_equal(peak.members, [0, 2])


def _oracle_cases():
    """(seed, c, bins, data kind, restrict kind) for the oracle comparison."""
    kinds = ("continuous", "integer", "constant", "decimal")
    restricts = (None, "sorted", "unsorted")
    cases = []
    for round_, (c, bins) in itertools.product(
        range(2), itertools.product(range(1, 5), range(2, 9))
    ):
        seed = 100 * round_ + 7 * c + bins
        position = len(cases)
        cases.append((seed, c, bins, kinds[(position + round_) % 4], restricts[(position // 4) % 3]))
    return cases


def _oracle_data(rng, kind, n=300, d=8):
    if kind == "integer":
        # Few distinct values: many cells share one density (peak ties).
        return rng.integers(0, 4, size=(n, d)).astype(float)
    if kind == "decimal":
        # Many values sit on bin edges (0.6 of a 3.0 span is 1/5 of it), where
        # a differently ordered bin formula rounds to the neighbouring bin.
        return rng.integers(0, 31, size=(n, d)) / 10.0
    data = rng.uniform(-5.0, 5.0, size=(n, d))
    data[: n // 3, :4] = rng.normal(1.0, 0.3, size=(n // 3, 4))
    return data


def _cell_point(data, reference, cell):
    """A full-width point inside ``cell`` of the reference grid."""
    point = data[0].copy()
    point[reference.dimensions] = reference._lows + (
        (np.asarray(cell) + 0.5) / reference.bins_per_dimension * reference._spans
    )
    return point


def _climb_starts(rng, data, reference):
    """Hill-climb starts: 4 rows, a point clipped into the grid, every corner, 8 random cells.

    With up to 8 ** 4 cells over 300 objects most random cells are empty.
    """
    n, d = data.shape
    starts = [data[i] for i in rng.choice(n, size=4, replace=False)]
    starts.append(rng.uniform(-20.0, 20.0, size=d))
    bins, c = reference.bins_per_dimension, reference.dimensions.size
    cells = list(itertools.product((0, bins - 1), repeat=c))
    cells += [tuple(rng.integers(0, bins, size=c)) for _ in range(8)]
    starts += [_cell_point(data, reference, cell) for cell in cells]
    return starts


class TestAgainstReferenceGrid:
    # ``at_limit`` runs the grid with DENSE_CELL_LIMIT lowered to its own
    # bins ** c: the limit counts possible cells, so the grid still numbers
    # every one of them, and one possible cell more is refused.  (Its ids
    # keep the name of the occupied-cell numbering such grids once took.)
    @pytest.mark.parametrize(
        "at_limit", [pytest.param(False, id="dense"), pytest.param(True, id="occupied")]
    )
    @pytest.mark.parametrize("seed,c,bins,kind,restrict", _oracle_cases())
    def test_matches_reference(self, monkeypatch, at_limit, seed, c, bins, kind, restrict):
        if at_limit:
            monkeypatch.setattr(grid_module, "DENSE_CELL_LIMIT", bins ** c)
        rng = np.random.default_rng(seed)
        data = _oracle_data(rng, kind)
        n, d = data.shape
        restrict_to = None
        if restrict is not None:
            restrict_to = rng.choice(n, size=n // 2, replace=False)
            if restrict == "sorted":
                restrict_to = np.sort(restrict_to)
        dims = rng.choice(d, size=c, replace=False)
        if kind == "constant":
            data[:, dims[0]] = 2.5
        binning = GridBinning(data, bins_per_dimension=bins, restrict_to=restrict_to)
        grid = Grid(binning, dims)
        reference = ReferenceGrid(binning, dims)

        assert grid.n_cells == reference.n_cells
        for cell in all_cells(grid):
            assert grid.cell_density(cell) == reference.cell_density(cell)
            np.testing.assert_array_equal(grid.cell_members(cell), reference.cell_members(cell))
        assert_same_result(grid.absolute_peak(), reference.absolute_peak())
        for start in _climb_starts(rng, data, reference):
            assert_same_result(grid.hill_climb(start), reference.hill_climb(start))
        if at_limit:
            monkeypatch.setattr(grid_module, "DENSE_CELL_LIMIT", bins ** c - 1)
            with pytest.raises(ValueError, match="DENSE_CELL_LIMIT"):
                Grid(binning, dims)

    @pytest.mark.parametrize("seed,c,bins,kind,restrict", _oracle_cases())
    def test_climb_without_the_neighbour_table_matches_reference(
        self, monkeypatch, seed, c, bins, kind, restrict
    ):
        # Every grid computes the row of each cell it steps on.
        monkeypatch.setattr(grid_module, "NEIGHBOUR_TABLE_LIMIT", 0)
        rng = np.random.default_rng(seed + 1)
        data = _oracle_data(rng, kind)
        dims = rng.choice(data.shape[1], size=c, replace=False)
        restrict_to = None if restrict is None else np.sort(rng.choice(300, 150, replace=False))
        binning = GridBinning(data, bins_per_dimension=bins, restrict_to=restrict_to)
        grid, reference = Grid(binning, dims), ReferenceGrid(binning, dims)
        for start in _climb_starts(rng, data, reference):
            assert_same_result(grid.hill_climb(start), reference.hill_climb(start))


def _cells_data(cells):
    """One object at the centre of each listed cell of a grid over them.

    Each dimension's lowest and highest bin must be listed, so with ``b``
    bins the grid's range is ``[0.5, b - 0.5]`` and every centre falls in
    its cell.
    """
    return np.asarray(cells, dtype=float) + 0.5


class TestHillClimbCases:
    """Hand-built grids whose climb is known, checked against the oracle too."""

    def climb(self, data, bins, start_cell):
        binning = GridBinning(data, bins_per_dimension=bins)
        dims = np.arange(data.shape[1])
        grid, reference = Grid(binning, dims), ReferenceGrid(binning, dims)
        start = _cell_point(data, reference, start_cell)
        result = grid.hill_climb(start)
        assert_same_result(result, reference.hill_climb(start))
        return result

    def test_plateau_keeps_the_start_cell(self):
        cells = list(itertools.product(range(3), repeat=2))
        data = _cells_data(cells)
        for start in cells:
            result = self.climb(data, 3, start)
            assert result.cell == start
            assert result.density == 1

    def test_tied_neighbours_go_to_the_first_in_product_order(self):
        # (0, 2) is offset (-1, +1) from (1, 1), before (2, 0) at (+1, -1).
        cells = [(1, 1)] + [(0, 2)] * 3 + [(2, 0)] * 3
        result = self.climb(_cells_data(cells), 3, (1, 1))
        assert result.cell == (0, 2)
        np.testing.assert_array_equal(result.members, [1, 2, 3])

    def test_empty_start_cell_without_dense_neighbours_stays(self):
        cells = [(0, 0), (3, 3)]
        result = self.climb(_cells_data(cells), 4, (0, 3))
        assert result.cell == (0, 3)
        assert result.density == 0
        assert result.members.size == 0

    def test_empty_start_cell_climbs_to_a_dense_neighbour(self):
        cells = [(0, 0), (3, 3), (1, 2), (1, 2)]
        result = self.climb(_cells_data(cells), 4, (0, 3))
        assert result.cell == (1, 2)
        assert result.density == 2

    @pytest.mark.parametrize("corner", list(itertools.product((0, 2), repeat=3)))
    def test_corners_never_step_outside_the_grid(self, corner):
        # Only the corner and the centre hold objects; every corner's
        # out-of-range neighbours read as empty, so each stays put.
        cells = [corner, (1, 1, 1)] + [(0, 0, 0), (2, 2, 2)]
        result = self.climb(_cells_data(cells), 3, corner)
        assert result.cell == corner

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_climb_is_a_strict_ascent_to_a_local_peak(self, c):
        rng = np.random.default_rng(40 + c)
        data = rng.integers(0, 3, size=(200, c)).astype(float)
        binning = GridBinning(data, bins_per_dimension=3)
        grid = Grid(binning, np.arange(c))
        for start in data[:20]:
            result = grid.hill_climb(start)
            assert result.density >= grid.cell_density(grid.cell_of(start))
            for neighbour in ReferenceGrid._neighbours(grid, result.cell):
                assert grid.cell_density(neighbour) <= result.density


class TestNeighbourLookupMemory:
    def test_the_cached_tables_stay_small(self):
        for bins, c in [(8, 3), (4, 4), (2, 8)]:
            fits = bins ** c * (3 ** c - 1) <= NEIGHBOUR_TABLE_LIMIT
            table = grid_module._neighbour_table(bins, c) if fits else None
            if table is not None:
                assert table.shape == (bins ** c, 3 ** c - 1)
                assert not table.flags.writeable
        # The seed-group grids (c = 3, 2-8 bins) always read a table.
        assert 8 ** 3 * 26 <= NEIGHBOUR_TABLE_LIMIT

    def test_climb_near_the_dense_limit_builds_no_neighbour_table(self):
        # 32 ** 4 = 2 ** 20 possible cells: a table would hold 2 ** 20 rows of
        # 80 ids (640 MiB).  Bound: 1 MiB for the whole climb, far above
        # what its rows of 80 ids and one member mask over 2000 objects need.
        rng = np.random.default_rng(9)
        data = rng.uniform(0.0, 1.0, size=(2000, 4))
        data[:300] = rng.normal(0.5, 0.01, size=(300, 4))
        binning = GridBinning(data, bins_per_dimension=32)
        grid = Grid(binning, np.arange(4))
        assert 32 ** 4 == DENSE_CELL_LIMIT
        reference = ReferenceGrid(binning, np.arange(4))
        start = data[0] + 0.02
        tracemalloc.start()
        try:
            result = grid.hill_climb(start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert_same_result(result, reference.hill_climb(start))
        assert result.density > 1


@pytest.mark.parametrize("category", ["both", "objects", "dimensions", "none"])
def test_seed_groups_identical_with_reference_grid(small_dataset, monkeypatch, category):
    """The builder finds the same seeds with the dense grid and the oracle."""
    if category == "none":
        knowledge = Knowledge.empty()
    else:
        knowledge = sample_knowledge(
            small_dataset.labels,
            small_dataset.relevant_dimensions,
            category=category,
            input_size=3,
            coverage=1.0,
            random_state=11,
        )

    def build():
        objective = ObjectiveFunction(small_dataset.data, VarianceRatioThreshold(m=0.5))
        builder = SeedGroupBuilder(objective, small_dataset.n_clusters, knowledge)
        private, public = builder.build(np.random.default_rng(5))
        return [private[key] for key in sorted(private)] + public

    groups = build()
    monkeypatch.setattr(seed_groups_module, "Grid", ReferenceGrid)
    expected = build()
    assert len(groups) == len(expected) > 0
    for group, reference in zip(groups, expected):
        np.testing.assert_array_equal(group.seeds, reference.seeds)
        np.testing.assert_array_equal(group.dimensions, reference.dimensions)
        assert group.peak_density == reference.peak_density
        assert group.knowledge_kind == reference.knowledge_kind


class TestOneDimensionalDensity:
    """``GridBinning.anchor_density``: the share of the objects in the anchor's bin."""

    def test_density_higher_on_relevant_dimension(self, clustered_data):
        anchor = clustered_data[10]  # a cluster member
        densities = GridBinning(clustered_data).anchor_density(anchor, 10)
        assert densities[0] > densities[7]

    def test_density_is_a_fraction(self, clustered_data):
        densities = GridBinning(clustered_data).anchor_density(np.full(10, 50.0), 10)
        assert np.all((densities >= 0.0) & (densities <= 1.0))

    def test_restrict_to(self, clustered_data):
        # Restricted to the cluster members, the value range shrinks to the
        # cluster's own spread, so the anchor bin holds clearly more than the
        # uniform baseline (1/bins) but not necessarily a large fraction.
        binning = GridBinning(clustered_data, restrict_to=np.arange(50))
        anchor = np.full(10, 25.0)
        assert binning.anchor_density(anchor, 10)[0] > 1.0 / 10

    def test_anchor_of_the_wrong_length(self, clustered_data):
        with pytest.raises(ValueError):
            GridBinning(clustered_data).anchor_density(np.zeros(9), 10)

    @pytest.mark.parametrize("restrict", [None, "sorted", "unsorted"])
    @pytest.mark.parametrize("kind", ["continuous", "integer", "decimal"])
    @pytest.mark.parametrize("bins", [2, 3, 8, 9, 16])
    def test_matches_the_one_dimensional_histograms_bit_for_bit(self, restrict, kind, bins):
        rng = np.random.default_rng(bins)
        data = _oracle_data(rng, kind)
        data[:, 2] = 2.5  # a constant column: span 1, every object in bin 0
        restrict_to = None
        if restrict is not None:
            restrict_to = rng.choice(data.shape[0], size=120, replace=False)
            if restrict == "sorted":
                restrict_to = np.sort(restrict_to)
        binning = GridBinning(data, bins_per_dimension=4, restrict_to=restrict_to)
        for anchor in (data[7], data[7] + 100.0, data[7] - 100.0, np.full(8, 2.5)):
            densities = binning.anchor_density(anchor, bins)
            expected = one_dimensional_density_profile(
                data, anchor, bins=bins, restrict_to=restrict_to
            )
            assert densities.tobytes() == expected.tobytes()
            for dim in range(data.shape[1]):
                scalar = one_dimensional_density(
                    data, dim, anchor[dim], bins=bins, restrict_to=restrict_to
                )
                assert densities[dim] == scalar

    @pytest.mark.parametrize("kind", ["continuous", "integer", "decimal", "constant"])
    @pytest.mark.parametrize("bins", [2, 5, 8])
    def test_grid_columns_after_the_full_normalisation_match_lazy_ones(self, kind, bins):
        rng = np.random.default_rng(30 + bins)
        data = _oracle_data(rng, kind)
        if kind == "constant":
            data[:, 1] = -4.0
        restrict_to = rng.choice(data.shape[0], size=200, replace=False)
        normalised = GridBinning(data, bins_per_dimension=bins, restrict_to=restrict_to)
        normalised.anchor_density(data[3], 2 * bins)
        lazy = GridBinning(data, bins_per_dimension=bins, restrict_to=restrict_to)
        for dim in range(data.shape[1]):
            ours, theirs = normalised.column(dim), lazy.column(dim)
            np.testing.assert_array_equal(ours[0], theirs[0])
            assert ours[1] == theirs[1] and ours[2] == theirs[2]
        dims = [0, 1, 5]
        start = data[11]
        assert_same_result(
            Grid(normalised, dims).hill_climb(start), ReferenceGrid(lazy, dims).hill_climb(start)
        )
