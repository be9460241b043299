"""Cross-module property-based tests on core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dimension_selection import select_dimensions
from repro.core.model import ClusteringResult
from repro.core.objective import ObjectiveFunction
from repro.core.sspc import SSPC
from repro.core.thresholds import ChiSquareThreshold, VarianceRatioThreshold
from repro.data.generator import make_projected_clusters
from repro.evaluation import adjusted_rand_index


class TestObjectiveInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), m=st.floats(0.2, 0.95))
    def test_phi_of_selected_dimensions_is_non_negative(self, seed, m):
        """phi_ij > 0 for every selected dimension (threshold exceeds dispersion)."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(50, 6)) * rng.uniform(0.5, 2.0, size=6)
        objective = ObjectiveFunction(data, VarianceRatioThreshold(m=m))
        members = rng.choice(50, size=int(rng.integers(3, 25)), replace=False)
        selected = select_dimensions(objective, members)
        if selected.size:
            scores = objective.phi_ij_all(members)
            assert np.all(scores[selected] > 0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_phi_scale_invariance_of_selection(self, seed):
        """Scaling every column by a constant leaves SelectDim unchanged."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(40, 5))
        members = rng.choice(40, size=10, replace=False)
        base = select_dimensions(ObjectiveFunction(data, VarianceRatioThreshold(m=0.5)), members)
        scaled = select_dimensions(
            ObjectiveFunction(data * 37.5, VarianceRatioThreshold(m=0.5)), members
        )
        np.testing.assert_array_equal(base, scaled)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000), p=st.floats(0.005, 0.3))
    def test_chi_square_threshold_below_global_variance(self, seed, p):
        """The p-scheme threshold never exceeds the global variance for p < 0.5."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(60, 4)) * rng.uniform(0.1, 5.0, size=4)
        threshold = ChiSquareThreshold(p=p).fit(data)
        for size in (3, 10, 50):
            assert np.all(threshold.values(size) <= threshold.global_variance + 1e-12)


def assert_valid_partition(model, n_dimensions):
    """Labels lie in ``[-1, k)``, the clusters partition the non-outliers, dims are valid."""
    k = model.n_clusters
    labels = model.labels_
    assert labels.min() >= -1 and labels.max() < k
    result = model.result_
    member_union = np.concatenate([c.members for c in result.clusters] or [np.empty(0, int)])
    assert len(set(member_union.tolist())) == member_union.size
    assert member_union.size == np.count_nonzero(labels >= 0)
    np.testing.assert_array_equal(result.labels(), labels)
    for dims in model.selected_dimensions_:
        if dims.size:
            assert dims.min() >= 0 and dims.max() < n_dimensions


class TestResultInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2000), k=st.integers(2, 4))
    def test_sspc_output_is_valid_partition(self, seed, k):
        dataset = make_projected_clusters(
            n_objects=80,
            n_dimensions=16,
            n_clusters=k,
            avg_cluster_dimensionality=3,
            random_state=seed,
        )
        model = SSPC(n_clusters=k, m=0.5, max_iterations=6, random_state=seed)
        model.fit(dataset.data)
        assert_valid_partition(model, dataset.n_dimensions)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), n=st.integers(4, 30))
    def test_without_objects_never_increases_cluster_sizes(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 3, size=n)
        result = ClusteringResult.from_labels(labels.tolist(), n_dimensions=4, n_clusters=3)
        drop = rng.choice(n, size=min(3, n), replace=False)
        stripped = result.without_objects(drop.tolist())
        for before, after in zip(result.clusters, stripped.clusters):
            assert after.size <= before.size


def _degenerate_data(case, rng):
    """``(data, k)`` of one degenerate fit input; n <= 300."""
    data = rng.normal(size=(300, 20))
    if case == "d=1":
        return data[:, :1], 3
    if case == "d=2":
        return data[:, :2], 3
    if case == "k=1":
        return data, 1
    if case == "constant column":
        data[:, 4] = 2.5
        return data, 3
    if case == "all constant":
        return np.full((300, 20), 2.5), 3
    if case == "10 rows x 30":
        return np.tile(data[:10], (30, 1)), 3
    if case == "integer":
        return rng.integers(0, 5, size=(300, 20)).astype(float), 3
    if case == "n=k":
        return data[:3], 3
    if case == "n=k+1":
        return data[:4], 3
    assert case == "n=10"
    return data[:10], 3


class TestDegenerateFits:
    """Inputs below the grids' ``c = 3``, without spread or with too few rows.

    Each either fits to a valid partition or raises a ``ValueError``; none
    may divide by zero or take a median of nothing on the way.
    """

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "case",
        [
            "d=1", "d=2", "k=1", "constant column", "all constant", "10 rows x 30",
            "integer", "n=k", "n=k+1", "n=10",
        ],
    )
    @pytest.mark.parametrize("threshold", [{"m": 0.5}, {"p": 0.05}], ids=["m", "p"])
    def test_fits_to_a_valid_partition_or_raises_value_error(self, case, threshold):
        data, k = _degenerate_data(case, np.random.default_rng(11))
        model = SSPC(n_clusters=k, random_state=3, **threshold)
        try:
            model.fit(data)
        except ValueError:
            return
        assert model.labels_.shape == (data.shape[0],)
        assert_valid_partition(model, data.shape[1])


class TestAriInvariant:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_merging_true_clusters_lowers_ari(self, seed):
        """Collapsing two real clusters into one cannot raise the ARI above 1."""
        true = np.repeat(np.arange(3), 10)
        merged = true.copy()
        merged[merged == 2] = 1
        assert adjusted_rand_index(true, merged) < 1.0
        assert adjusted_rand_index(true, true) == pytest.approx(1.0)
