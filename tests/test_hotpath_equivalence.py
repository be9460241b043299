"""Equivalence suite: cached/fused hot paths versus the naive reference.

The optimised SSPC hot loop (shared statistics workspace + incremental
assignment engine + gain-matrix reuse) must be **bit-identical** to the
naive reference — the stateless
:func:`~repro.core.objective.grouped_assignment_gains` kernel and a
fresh statistics pass at every consumer — for the same
``random_state``.  These tests pin that
invariant end to end (labels, selected dimensions, ``phi``) and at the
individual kernel level.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.assignment as assignment_module
from repro.core.assignment import ClusterState, assign_objects, compute_gains_matrix
from repro.core.objective import ObjectiveFunction, grouped_assignment_gains
from repro.core.sspc import SSPC
from repro.core.stats_cache import ClusterStatsCache
from repro.core.thresholds import ChiSquareThreshold, VarianceRatioThreshold
from repro.data.generator import SyntheticDataGenerator
from repro.semisupervision.constraints import PairwiseConstraints
from repro.semisupervision.knowledge import (
    Knowledge,
    LabeledDimensions,
    LabeledObjects,
)


class NaiveSSPC(SSPC):
    """SSPC with the statistics cache disabled (naive reference arm)."""

    _stats_cache_factory = staticmethod(
        lambda data: ClusterStatsCache(data, max_entries=0)
    )


@pytest.fixture(scope="module")
def dataset():
    return SyntheticDataGenerator(
        n_objects=300,
        n_dimensions=40,
        n_clusters=3,
        avg_cluster_dimensionality=6,
        outlier_fraction=0.05,
        random_state=11,
    ).generate(11)


def _reference_gains(objective, states):
    """The stateless reference kernel over the states' current plan."""
    return grouped_assignment_gains(
        objective.data,
        [state.dimensions for state in states],
        [state.representative[state.dimensions] for state in states],
        [
            objective.threshold.values(max(state.size_hint, 2))[state.dimensions]
            for state in states
        ],
    )


def _random_states(objective, rng, n_clusters, *, equal_dim_counts=False):
    states = []
    for index in range(n_clusters):
        if equal_dim_counts:
            n_dims = 5
        else:
            n_dims = int(rng.integers(0, 9))  # includes empty dimension sets
        dims = np.sort(rng.choice(objective.n_dimensions, size=n_dims, replace=False))
        states.append(
            ClusterState(
                representative=objective.data[int(rng.integers(objective.n_objects))].copy(),
                dimensions=dims.astype(int),
                members=np.empty(0, dtype=int),
                size_hint=int(rng.integers(2, 60)),
            )
        )
    return states


@pytest.mark.parametrize("scheme", ["m", "p"])
@pytest.mark.parametrize("equal_dim_counts", [False, True])
def test_fused_gains_matrix_bit_identical(dataset, scheme, equal_dim_counts):
    threshold = VarianceRatioThreshold(m=0.4) if scheme == "m" else ChiSquareThreshold(p=0.05)
    objective = ObjectiveFunction(dataset.data, threshold)
    rng = np.random.default_rng(5)
    for trial in range(5):
        states = _random_states(objective, rng, n_clusters=4, equal_dim_counts=equal_dim_counts)
        fused = compute_gains_matrix(objective, states)
        reference = _reference_gains(objective, states)
        assert np.array_equal(fused, reference), "trial %d diverged" % trial


def test_fused_kernel_handles_all_empty_dimension_sets(dataset):
    objective = ObjectiveFunction(dataset.data, VarianceRatioThreshold(m=0.5))
    states = [
        ClusterState(
            representative=dataset.data[i].copy(),
            dimensions=np.empty(0, dtype=int),
            members=np.empty(0, dtype=int),
            size_hint=2,
        )
        for i in range(3)
    ]
    gains = compute_gains_matrix(objective, states)
    assert gains.shape == (dataset.data.shape[0], 3)
    assert np.all(np.isneginf(gains))


def test_assign_objects_return_gains_consistency(dataset):
    objective = ObjectiveFunction(dataset.data, VarianceRatioThreshold(m=0.5))
    states = _random_states(objective, np.random.default_rng(3), n_clusters=3)
    labels_only = assign_objects(objective, states)
    labels, gains = assign_objects(objective, states, return_gains=True)
    assert np.array_equal(labels_only, labels)
    assert gains.shape == (objective.n_objects, 3)
    # The labels follow from the returned matrix.
    assigned = labels >= 0
    assert np.array_equal(
        labels[assigned], np.argmax(gains, axis=1)[assigned]
    )


def test_force_assign_reuse_matches_recompute(dataset):
    """Gain-matrix reuse in ``_force_assign`` equals the per-cluster recompute."""
    objective = ObjectiveFunction(dataset.data, VarianceRatioThreshold(m=0.3))
    states = _random_states(objective, np.random.default_rng(9), n_clusters=4)
    labels, gains = assign_objects(objective, states, return_gains=True)
    outliers = np.flatnonzero(labels == -1)
    if outliers.size == 0:
        pytest.skip("no outliers produced by this configuration")

    model = SSPC(n_clusters=4)
    fast = model._force_assign(labels, gains)

    # Seed implementation: recompute every cluster's gains from scratch.
    reference = labels.copy()
    redone = _reference_gains(objective, states)[outliers]
    reference[outliers] = np.argmax(redone, axis=1)

    assert np.array_equal(fast, reference)
    assert np.all(fast >= 0)


def _knowledge_for(dataset):
    labels = dataset.labels
    object_pairs = [(int(i), int(labels[i])) for i in np.flatnonzero(labels >= 0)[:15]]
    dimension_pairs = [
        (int(dim), cluster)
        for cluster in range(2)
        for dim in dataset.relevant_dimensions[cluster][:3]
    ]
    return Knowledge(
        objects=LabeledObjects.from_pairs(object_pairs),
        dimensions=LabeledDimensions.from_pairs(dimension_pairs),
    )


def _constraints_for(dataset):
    labels = dataset.labels
    rng = np.random.default_rng(2)
    members = np.flatnonzero(labels >= 0)
    must, cannot = [], []
    for _ in range(12):
        a, b = rng.choice(members, size=2, replace=False)
        if labels[a] == labels[b]:
            must.append((int(a), int(b)))
        else:
            cannot.append((int(a), int(b)))
    return PairwiseConstraints.from_pairs(must, cannot)


def _fit_pair(dataset, monkeypatch, *, knowledge=None, constraints=None, **params):
    """Fit the optimised and the naive arm with identical seeds."""
    fast = SSPC(n_clusters=3, random_state=7, **params).fit(
        dataset.data, knowledge, constraints=constraints
    )

    # Naive arm: no statistics cache and the stateless reference kernel.
    monkeypatch.setattr(assignment_module, "compute_gains_matrix", _reference_gains)
    naive = NaiveSSPC(n_clusters=3, random_state=7, **params).fit(
        dataset.data, knowledge, constraints=constraints
    )
    monkeypatch.undo()
    return fast, naive


@pytest.mark.parametrize(
    "case",
    ["plain", "p_scheme", "no_outliers", "knowledge", "constraints"],
)
def test_full_fit_byte_identical_to_naive_reference(dataset, monkeypatch, case):
    params = {}
    knowledge = None
    constraints = None
    if case == "p_scheme":
        params["p"] = 0.05
    elif case == "no_outliers":
        params["allow_outliers"] = False
    elif case == "knowledge":
        knowledge = _knowledge_for(dataset)
    elif case == "constraints":
        constraints = _constraints_for(dataset)

    fast, naive = _fit_pair(
        dataset, monkeypatch, knowledge=knowledge, constraints=constraints, **params
    )

    assert np.array_equal(fast.labels_, naive.labels_)
    assert len(fast.selected_dimensions_) == len(naive.selected_dimensions_)
    for fast_dims, naive_dims in zip(fast.selected_dimensions_, naive.selected_dimensions_):
        assert np.array_equal(fast_dims, naive_dims)
    assert fast.objective_ == naive.objective_
    assert fast.n_iterations_ == naive.n_iterations_
    # The optimised arm actually used the cache; the naive arm never did.
    assert fast.stats_cache_.hits > 0
    assert naive.stats_cache_.hits == 0


def test_fit_records_fewer_statistics_passes(dataset):
    fast = SSPC(n_clusters=3, random_state=7).fit(dataset.data)
    naive = NaiveSSPC(n_clusters=3, random_state=7).fit(dataset.data)
    assert fast.stats_cache_.n_stat_passes * 2 <= naive.stats_cache_.n_stat_passes


def test_threshold_values_memoized():
    data = np.random.default_rng(1).normal(size=(50, 8))
    for threshold in (VarianceRatioThreshold(m=0.5), ChiSquareThreshold(p=0.05)):
        threshold.fit(data)
        first = threshold.values(10)
        second = threshold.values(10)
        assert first is second  # memoized, not recomputed
        assert not first.flags.writeable
        # ChiSquare keys on degrees of freedom; size-independent schemes
        # share one entry for every size.
        if isinstance(threshold, ChiSquareThreshold):
            assert threshold.values(11) is not first
            assert np.array_equal(threshold.values(10), first)
        else:
            assert threshold.values(37) is first
        # Refitting invalidates the memo.
        threshold.fit(data * 2.0)
        refreshed = threshold.values(10)
        assert refreshed is not first
        assert not np.array_equal(refreshed, first)


def test_allowed_clusters_with_partner_maps_identical(dataset):
    constraints = _constraints_for(dataset)
    maps = constraints.partner_maps()
    rng = np.random.default_rng(4)
    labels = rng.integers(-1, 3, size=dataset.data.shape[0])
    involved = sorted({i for pair in constraints.must_links + constraints.cannot_links for i in pair})
    for object_index in involved:
        with_maps = constraints.allowed_clusters(object_index, labels, 3, partner_maps=maps)
        without = constraints.allowed_clusters(object_index, labels, 3)
        assert np.array_equal(with_maps, without)


def test_grid_build_matches_per_row_reference(dataset):
    """The dense-cell grid reproduces the per-row dict build."""
    from repro.core.grid import Grid, GridBinning

    rng = np.random.default_rng(8)
    for trial in range(3):
        dims = np.sort(rng.choice(dataset.data.shape[1], size=3, replace=False))
        restrict = np.sort(
            rng.choice(dataset.data.shape[0], size=150, replace=False)
        )
        grid = Grid(GridBinning(dataset.data, bins_per_dimension=4, restrict_to=restrict), dims)

        # Reference: the seed implementation's row-order dictionary build.
        values = dataset.data[np.ix_(restrict, dims)]
        lows, highs = values.min(axis=0), values.max(axis=0)
        spans = np.where(highs > lows, highs - lows, 1.0)
        scaled = (values - lows) / spans * 4
        bins = np.minimum(scaled.astype(int), 3)
        reference = {}
        for row, obj in enumerate(restrict):
            key = tuple(int(b) for b in bins[row])
            reference.setdefault(key, []).append(int(obj))

        assert grid.n_cells == len(reference)
        for cell, members in reference.items():
            assert grid.cell_members(cell).tolist() == members
            assert grid.cell_density(cell) == len(members)
        # max() over the insertion-ordered dict: ties go to the first-seen cell.
        best = max(reference, key=lambda cell: len(reference[cell]))
        peak = grid.absolute_peak()
        assert peak.cell == best
        assert peak.members.tolist() == reference[best]


def test_grid_build_supports_many_building_dimensions(dataset):
    """bins ** c beyond the int64 range: only occupied cells are numbered."""
    from repro.core.grid import Grid, GridBinning

    dims = np.arange(min(30, dataset.data.shape[1]))  # 8 ** 30 >> 2 ** 63
    grid = Grid(GridBinning(dataset.data, bins_per_dimension=8), dims)
    assert grid.n_cells >= 1
    cells = {grid.cell_of(row) for row in dataset.data}
    assert grid.n_cells == len(cells)
    total = sum(grid.cell_density(cell) for cell in cells)
    assert total == dataset.data.shape[0]
    for index in range(dataset.data.shape[0]):
        assert index in grid.cell_members(grid.cell_of(dataset.data[index]))


def test_density_profile_matches_scalar_helper(dataset):
    from repro.core.grid import one_dimensional_density, one_dimensional_density_profile

    rng = np.random.default_rng(6)
    anchor = dataset.data[int(rng.integers(dataset.data.shape[0]))]
    restrict = np.sort(rng.choice(dataset.data.shape[0], size=120, replace=False))
    profile = one_dimensional_density_profile(
        dataset.data, anchor, bins=9, restrict_to=restrict
    )
    for dim in range(dataset.data.shape[1]):
        scalar = one_dimensional_density(
            dataset.data, dim, anchor[dim], bins=9, restrict_to=restrict
        )
        assert profile[dim] == scalar


def test_partner_maps_cover_every_link():
    constraints = PairwiseConstraints.from_pairs(
        must_links=[(0, 1), (1, 2)], cannot_links=[(0, 3), (4, 5)]
    )
    must, cannot = constraints.partner_maps()
    assert sorted(must[1]) == [0, 2]
    assert must[0] == [1] and must[2] == [1]
    assert cannot[0] == [3] and cannot[3] == [0]
    assert cannot[4] == [5] and cannot[5] == [4]
