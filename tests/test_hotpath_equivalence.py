"""Equivalence suite: cached/fused hot paths versus the naive reference.

The optimised SSPC hot loop (shared statistics workspace + incremental
assignment engine) must be **bit-identical** to the
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
    """The labels follow from the engine's gain matrix: best positive gain or outlier."""
    objective = ObjectiveFunction(dataset.data, VarianceRatioThreshold(m=0.5))
    states = _random_states(objective, np.random.default_rng(3), n_clusters=3)
    labels = assign_objects(objective, states)
    gains = compute_gains_matrix(objective, states)
    assert gains.shape == (objective.n_objects, 3)
    best = np.argmax(gains, axis=1)
    positive = gains[np.arange(objective.n_objects), best] > 0.0
    assert np.array_equal(labels, np.where(positive, best, -1))
    assert np.any(labels == -1) and np.any(labels >= 0)


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


def _fit_pair(dataset, monkeypatch, *, knowledge=None, **params):
    """Fit the optimised and the naive arm with identical seeds."""
    fast = SSPC(n_clusters=3, random_state=7, **params).fit(dataset.data, knowledge)

    # Naive arm: no statistics cache and the stateless reference kernel.
    monkeypatch.setattr(assignment_module, "compute_gains_matrix", _reference_gains)
    naive = NaiveSSPC(n_clusters=3, random_state=7, **params).fit(dataset.data, knowledge)
    monkeypatch.undo()
    return fast, naive


@pytest.mark.parametrize("case", ["plain", "p_scheme", "knowledge"])
def test_full_fit_byte_identical_to_naive_reference(dataset, monkeypatch, case):
    params = {}
    knowledge = None
    if case == "p_scheme":
        params["p"] = 0.05
    elif case == "knowledge":
        knowledge = _knowledge_for(dataset)

    fast, naive = _fit_pair(dataset, monkeypatch, knowledge=knowledge, **params)

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
