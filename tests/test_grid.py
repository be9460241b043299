"""Tests for the grid (multi-dimensional histogram) engine."""

import itertools

import numpy as np
import pytest

import repro.core.grid as grid_module
import repro.core.seed_groups as seed_groups_module
from repro.core.grid import (
    DENSE_CELL_LIMIT,
    Grid,
    GridBinning,
    GridSearchResult,
    one_dimensional_density,
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
        for neighbour in grid._neighbours(result.cell):
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
        starts = [data[i] for i in rng.choice(n, size=4, replace=False)]
        starts.append(rng.uniform(-20.0, 20.0, size=d))  # clipped into the grid
        for start in starts:
            assert_same_result(grid.hill_climb(start), reference.hill_climb(start))
        if at_limit:
            monkeypatch.setattr(grid_module, "DENSE_CELL_LIMIT", bins ** c - 1)
            with pytest.raises(ValueError, match="DENSE_CELL_LIMIT"):
                Grid(binning, dims)


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
    def test_density_higher_on_relevant_dimension(self, clustered_data):
        anchor = clustered_data[10]  # a cluster member
        relevant = one_dimensional_density(clustered_data, 0, anchor[0], bins=10)
        irrelevant = one_dimensional_density(clustered_data, 7, anchor[7], bins=10)
        assert relevant > irrelevant

    def test_density_is_a_fraction(self, clustered_data):
        value = one_dimensional_density(clustered_data, 3, 50.0, bins=10)
        assert 0.0 <= value <= 1.0

    def test_restrict_to(self, clustered_data):
        # Restricted to the cluster members, the value range shrinks to the
        # cluster's own spread, so the anchor bin holds clearly more than the
        # uniform baseline (1/bins) but not necessarily a large fraction.
        value = one_dimensional_density(
            clustered_data, 0, 25.0, bins=10, restrict_to=np.arange(50)
        )
        assert value > 1.0 / 10

    def test_invalid_dimension(self, clustered_data):
        with pytest.raises(ValueError):
            one_dimensional_density(clustered_data, 99, 0.0)
