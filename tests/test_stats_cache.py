"""Unit tests of the shared per-iteration statistics engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import ClusterStatistics, ObjectiveFunction
from repro.core.stats_cache import ClusterStatsCache
from repro.core.thresholds import VarianceRatioThreshold


@pytest.fixture()
def data():
    rng = np.random.default_rng(42)
    return rng.normal(size=(60, 12))


def test_statistics_bit_identical_to_direct_computation(data):
    cache = ClusterStatsCache(data)
    members = np.asarray([3, 17, 5, 40, 21])
    cached = cache.statistics(members)
    direct = ClusterStatistics.from_members(data, members)
    assert cached.size == direct.size
    assert np.array_equal(cached.mean, direct.mean)
    assert np.array_equal(cached.median, direct.median)
    assert np.array_equal(cached.variance, direct.variance)


def test_repeated_lookup_costs_one_pass(data):
    cache = ClusterStatsCache(data)
    members = np.arange(10)
    first = cache.statistics(members)
    second = cache.statistics(members)
    third = cache.statistics(list(range(10)))  # same set, different container
    assert first is second is third
    assert cache.misses == 1
    assert cache.hits == 2
    assert cache.n_stat_passes == 1


def test_membership_change_invalidates(data):
    """A changed member set must never be served a stale entry."""
    cache = ClusterStatsCache(data)
    old_members = np.asarray([0, 1, 2, 3])
    old_stats = cache.statistics(old_members)
    new_members = np.asarray([0, 1, 2, 4])  # one member swapped
    new_stats = cache.statistics(new_members)
    assert cache.misses == 2
    assert not np.array_equal(old_stats.mean, new_stats.mean)
    # The original entry is still served for the original member set.
    assert cache.statistics(old_members) is old_stats


def test_member_order_is_part_of_the_key(data):
    """Keys preserve order so cached results stay bit-identical."""
    cache = ClusterStatsCache(data)
    cache.statistics([5, 2, 9])
    cache.statistics([2, 5, 9])
    assert cache.misses == 2


def test_eviction_respects_max_entries(data):
    cache = ClusterStatsCache(data, max_entries=2)
    cache.statistics([0, 1])
    cache.statistics([2, 3])
    cache.statistics([4, 5])  # evicts [0, 1]
    assert cache.n_entries == 2
    cache.statistics([2, 3])
    assert cache.hits == 1
    cache.statistics([0, 1])  # was evicted -> recomputed
    assert cache.misses == 4


def test_disabled_cache_is_pass_through(data):
    cache = ClusterStatsCache(data, max_entries=0)
    members = np.arange(8)
    first = cache.statistics(members)
    second = cache.statistics(members)
    assert first is not second
    assert cache.hits == 0
    assert cache.misses == 2
    assert cache.n_entries == 0
    assert np.array_equal(first.median, second.median)


def test_empty_member_set(data):
    cache = ClusterStatsCache(data)
    stats = cache.statistics(np.empty(0, dtype=int))
    assert stats.size == 0
    assert np.array_equal(stats.mean, np.zeros(data.shape[1]))


def test_mean_light_path_matches_block_mean(data):
    cache = ClusterStatsCache(data)
    members = np.asarray([1, 4, 9, 16])
    assert np.array_equal(cache.mean(members), data[members].mean(axis=0))
    # Memoized: a second query is a hit and no full pass happened.
    cache.mean(members)
    assert cache.hits == 1
    assert cache.n_stat_passes == 0


def test_mean_reuses_full_statistics_entry(data):
    cache = ClusterStatsCache(data)
    members = np.asarray([2, 6, 10])
    stats = cache.statistics(members)
    assert cache.mean(members) is stats.mean
    assert cache.hits == 1


def test_median_shares_the_cached_pass(data):
    cache = ClusterStatsCache(data)
    members = np.asarray([7, 8, 9, 10])
    median = cache.median(members)
    assert np.array_equal(median, np.median(data[members], axis=0))
    assert cache.misses == 1
    cache.median(members)
    assert cache.misses == 1


def test_float32_input_coerced_to_float64(data):
    """Statistics must match the float64 path even for float32 input."""
    cache = ClusterStatsCache(data.astype(np.float32))
    assert cache.data.dtype == np.float64
    members = np.arange(6)
    expected = ClusterStatistics.from_members(data.astype(np.float32).astype(np.float64), members)
    assert np.array_equal(cache.statistics(members).variance, expected.variance)


def test_global_variance_skips_the_median(data):
    cache = ClusterStatsCache(data)
    assert np.array_equal(cache.global_variance, data.var(axis=0, ddof=1))
    assert cache._global is None  # no full (median-sorting) pass triggered
    # Once full global statistics exist they are reused.
    full = cache.global_statistics
    assert cache.global_variance is full.variance


def test_global_statistics_computed_once(data):
    cache = ClusterStatsCache(data)
    first = cache.global_statistics
    second = cache.global_statistics
    assert first is second
    assert np.array_equal(first.variance, data.var(axis=0, ddof=1))


def test_clear_resets_everything(data):
    cache = ClusterStatsCache(data)
    cache.statistics([0, 1, 2])
    cache.mean([3, 4])
    _ = cache.global_statistics
    cache.clear()
    assert cache.n_entries == 0
    assert cache.hits == 0 and cache.misses == 0
    cache.statistics([0, 1, 2])
    assert cache.misses == 1


def test_invalid_construction(data):
    with pytest.raises(ValueError):
        ClusterStatsCache(data, max_entries=-1)
    with pytest.raises(ValueError):
        ClusterStatsCache(np.arange(5))


def test_objective_function_uses_shared_cache(data):
    threshold = VarianceRatioThreshold(m=0.5)
    cache = ClusterStatsCache(data)
    objective = ObjectiveFunction(data, threshold, stats_cache=cache)
    assert objective.stats_cache is cache
    members = np.arange(12)
    objective.cluster_statistics(members)
    objective.phi_ij_all(members)
    objective.phi_i(members, [0, 1, 2])
    assert cache.n_stat_passes == 1


def test_objective_function_rejects_mismatched_cache(data):
    threshold = VarianceRatioThreshold(m=0.5)
    other = np.random.default_rng(0).normal(size=data.shape)
    with pytest.raises(ValueError):
        ObjectiveFunction(data, threshold, stats_cache=ClusterStatsCache(other))


def test_objective_function_accepts_equal_valued_cache(data):
    threshold = VarianceRatioThreshold(m=0.5)
    objective = ObjectiveFunction(data, threshold, stats_cache=ClusterStatsCache(data.copy()))
    assert objective.cluster_statistics(np.arange(4)).size == 4


# ---------------------------------------------------------------------- #
# merge_mean_variance (the serving-side partial_update primitive)
# ---------------------------------------------------------------------- #
class TestMergeMeanVariance:
    def _blocks(self, sizes, d=7, seed=3):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(size, d)) for size in sizes]

    @staticmethod
    def _stats(block):
        if block.shape[0] == 0:
            return 0, np.zeros(block.shape[1]), np.zeros(block.shape[1])
        variance = block.var(axis=0, ddof=1) if block.shape[0] > 1 else np.zeros(block.shape[1])
        return block.shape[0], block.mean(axis=0), variance

    def test_matches_from_scratch_pass(self):
        from repro.core.stats_cache import merge_mean_variance

        a, b = self._blocks([23, 11])
        size, mean, variance = merge_mean_variance(*self._stats(a), *self._stats(b))
        union = np.vstack([a, b])
        assert size == union.shape[0]
        np.testing.assert_allclose(mean, union.mean(axis=0), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(variance, union.var(axis=0, ddof=1), rtol=1e-11, atol=1e-14)

    def test_singleton_blocks(self):
        from repro.core.stats_cache import merge_mean_variance

        a, b = self._blocks([1, 1], seed=5)
        size, mean, variance = merge_mean_variance(*self._stats(a), *self._stats(b))
        union = np.vstack([a, b])
        assert size == 2
        np.testing.assert_allclose(mean, union.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(variance, union.var(axis=0, ddof=1), rtol=1e-11, atol=1e-14)

    def test_empty_block_is_identity(self):
        from repro.core.stats_cache import merge_mean_variance

        (a,) = self._blocks([9], seed=8)
        size_a, mean_a, var_a = self._stats(a)
        empty = np.zeros((0, a.shape[1]))
        for args in (
            self._stats(empty) + (size_a, mean_a, var_a),
            (size_a, mean_a, var_a) + self._stats(empty),
        ):
            size, mean, variance = merge_mean_variance(*args)
            assert size == size_a
            np.testing.assert_array_equal(mean, mean_a)
            np.testing.assert_array_equal(variance, var_a)

    def test_chained_merges_match_one_pass(self):
        from repro.core.stats_cache import merge_mean_variance

        blocks = self._blocks([5, 1, 17, 3], seed=11)
        size, mean, variance = self._stats(blocks[0])
        for block in blocks[1:]:
            size, mean, variance = merge_mean_variance(
                size, mean, variance, *self._stats(block)
            )
        union = np.vstack(blocks)
        assert size == union.shape[0]
        np.testing.assert_allclose(mean, union.mean(axis=0), rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(variance, union.var(axis=0, ddof=1), rtol=1e-10, atol=1e-14)

    def test_negative_sizes_rejected(self):
        from repro.core.stats_cache import merge_mean_variance

        with pytest.raises(ValueError):
            merge_mean_variance(-1, np.zeros(2), np.zeros(2), 1, np.zeros(2), np.zeros(2))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size_a=st.integers(0, 10**6),
        size_b=st.integers(0, 300),
        d=st.integers(0, 9),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e150]),
    )
    def test_bits_of_the_textbook_expressions(self, seed, size_a, size_b, d, scale):
        """The merge gives the bits of its docstring's formulas, evaluated as written."""
        from repro.core.stats_cache import merge_mean_variance

        rng = np.random.default_rng(seed)
        mean_a, mean_b = (scale * rng.normal(size=d) for _ in range(2))
        variance_a, variance_b = (scale * scale * rng.random(d) for _ in range(2))
        if size_a < 2:
            variance_a = np.zeros(d)
        if size_b < 2:
            variance_b = np.zeros(d)
        got = merge_mean_variance(size_a, mean_a, variance_a, size_b, mean_b, variance_b)
        expected = reference_merge(size_a, mean_a, variance_a, size_b, mean_b, variance_b)
        assert got[0] == expected[0]
        for got_array, expected_array in zip(got[1:], expected[1:]):
            assert got_array.tobytes() == expected_array.tobytes()
        for array in got[1:]:
            for given_array in (mean_a, mean_b, variance_a, variance_b):
                assert not np.shares_memory(array, given_array)

    def test_lists_and_float32_are_coerced(self):
        from repro.core.stats_cache import merge_mean_variance

        mean_a = np.asarray([1.5, -2.0], dtype=np.float32)
        got = merge_mean_variance(3, mean_a, [0.25, 1.0], 2, [0.5, 4.0], (2.0, 0.5))
        expected = reference_merge(
            3, mean_a.astype(float), np.asarray([0.25, 1.0]), 2,
            np.asarray([0.5, 4.0]), np.asarray([2.0, 0.5]),
        )
        assert got[1].dtype == got[2].dtype == np.float64
        assert got[1].tobytes() == expected[1].tobytes()
        assert got[2].tobytes() == expected[2].tobytes()


def reference_merge(size_a, mean_a, variance_a, size_b, mean_b, variance_b):
    """The merge as written before the serving fold used it per touched cluster."""
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
    return size, mean, m2 / (size - 1) if size > 1 else np.zeros_like(mean)


class TestEvictionAccounting:
    def test_evictions_counted_and_bound_respected(self, rng):
        data = rng.normal(size=(40, 6))
        cache = ClusterStatsCache(data, max_entries=4)
        for start in range(12):
            cache.statistics(np.arange(start, start + 5))
        assert cache.n_entries == 4
        assert cache.evictions == 8
        assert cache.hit_rate == 0.0

    def test_hit_rate_and_counters_snapshot(self, rng):
        data = rng.normal(size=(30, 5))
        cache = ClusterStatsCache(data)
        members = np.arange(10)
        cache.statistics(members)
        cache.statistics(members)
        cache.statistics(members)
        counters = cache.counters()
        assert counters["hits"] == 2
        assert counters["misses"] == 1
        assert counters["evictions"] == 0
        assert counters["hit_rate"] == pytest.approx(2 / 3)

    def test_clear_resets_eviction_counter(self, rng):
        data = rng.normal(size=(20, 4))
        cache = ClusterStatsCache(data, max_entries=1)
        cache.statistics(np.arange(3))
        cache.statistics(np.arange(4))
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0


class TestSSPCPlumbing:
    def test_max_entries_plumbed_from_the_estimator(self, tiny_dataset):
        """The estimator's ``_stats_cache_factory`` hook chooses the workspace bound."""
        from repro.core.sspc import SSPC

        class BoundedSSPC(SSPC):
            _stats_cache_factory = staticmethod(
                lambda data: ClusterStatsCache(data, max_entries=7)
            )

        model = BoundedSSPC(n_clusters=3, m=0.5, max_iterations=3, random_state=0)
        model.fit(tiny_dataset.data)
        assert model.stats_cache_.max_entries == 7
        assert model.stats_cache_.hits > 0

    def test_default_keeps_the_cache_default_and_parameters_clean(self, tiny_dataset):
        from repro.core.sspc import SSPC

        model = SSPC(n_clusters=3, m=0.5, max_iterations=3, random_state=0)
        model.fit(tiny_dataset.data)
        assert model.stats_cache_.max_entries == 128
        assert "stats_cache_max_entries" not in model.get_params()
