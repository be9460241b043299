"""Tests for seed-group construction (Section 4.2)."""

import numpy as np
import pytest

import repro.core.seed_groups as seed_groups_module
from repro.core.objective import ObjectiveFunction
from repro.core.seed_groups import SeedGroup, SeedGroupBuilder
from repro.core.thresholds import VarianceRatioThreshold
from repro.semisupervision.knowledge import Knowledge
from repro.semisupervision.sampling import sample_knowledge


@pytest.fixture()
def dataset_objective(small_dataset):
    return ObjectiveFunction(small_dataset.data, VarianceRatioThreshold(m=0.5))


class TestSeedGroup:
    def test_deduplicates_and_sorts(self):
        group = SeedGroup(seeds=[5, 2, 5], dimensions=[3, 1, 3])
        np.testing.assert_array_equal(group.seeds, [2, 5])
        np.testing.assert_array_equal(group.dimensions, [1, 3])

    def test_private_flag(self):
        assert SeedGroup(seeds=[1], dimensions=[0], cluster=2).is_private
        assert not SeedGroup(seeds=[1], dimensions=[0]).is_private

    def test_draw_medoid_without_replacement_then_recycles(self, rng):
        group = SeedGroup(seeds=[1, 2, 3], dimensions=[0])
        first_three = {group.draw_medoid(rng) for _ in range(3)}
        assert first_three == {1, 2, 3}
        # Exhausted -> recycles, still draws valid seeds.
        assert group.draw_medoid(rng) in {1, 2, 3}

    def test_draw_from_empty_group_raises(self, rng):
        group = SeedGroup(seeds=[], dimensions=[0])
        with pytest.raises(RuntimeError):
            group.draw_medoid(rng)


class TestPrivateGroups:
    def test_both_inputs_builds_accurate_group(self, small_dataset, dataset_objective, rng):
        knowledge = sample_knowledge(
            small_dataset.labels,
            small_dataset.relevant_dimensions,
            category="both",
            input_size=4,
            coverage=1.0,
            random_state=3,
        )
        builder = SeedGroupBuilder(dataset_objective, small_dataset.n_clusters, knowledge)
        private, _ = builder.build(rng)
        assert set(private) == set(range(small_dataset.n_clusters))
        for label, group in private.items():
            true_members = set(np.flatnonzero(small_dataset.labels == label).tolist())
            true_dims = set(small_dataset.relevant_dimensions[label].tolist())
            seed_accuracy = np.mean([seed in true_members for seed in group.seeds])
            assert seed_accuracy > 0.6
            assert len(set(group.dimensions.tolist()) & true_dims) >= 2
            assert group.knowledge_kind == "both"

    def test_labeled_dimensions_forced_into_group(self, small_dataset, dataset_objective, rng):
        labeled_dim = int(small_dataset.relevant_dimensions[0][0])
        knowledge = Knowledge.from_pairs(dimension_pairs=[(labeled_dim, 0)])
        builder = SeedGroupBuilder(dataset_objective, small_dataset.n_clusters, knowledge)
        private, _ = builder.build(rng)
        assert labeled_dim in private[0].dimensions
        assert private[0].knowledge_kind == "dimensions"

    def test_objects_only_group(self, small_dataset, dataset_objective, rng):
        members = np.flatnonzero(small_dataset.labels == 1)[:4]
        knowledge = Knowledge.from_pairs(object_pairs=[(int(o), 1) for o in members])
        builder = SeedGroupBuilder(dataset_objective, small_dataset.n_clusters, knowledge)
        private, _ = builder.build(rng)
        assert list(private) == [1]
        assert private[1].knowledge_kind == "objects"
        assert private[1].n_seeds >= 1


class TestPublicGroups:
    def test_public_groups_created_without_knowledge(self, small_dataset, dataset_objective, rng):
        builder = SeedGroupBuilder(
            dataset_objective, small_dataset.n_clusters, Knowledge.empty(), public_group_factor=2
        )
        private, public = builder.build(rng)
        assert private == {}
        assert len(public) >= small_dataset.n_clusters
        for group in public:
            assert group.n_seeds >= 1
            assert not group.is_private

    def test_public_groups_have_disjoint_seeds(self, small_dataset, dataset_objective, rng):
        builder = SeedGroupBuilder(dataset_objective, small_dataset.n_clusters, Knowledge.empty())
        _, public = builder.build(rng)
        seen = set()
        for group in public:
            overlap = seen & set(group.seeds.tolist())
            assert not overlap
            seen.update(group.seeds.tolist())

    def test_mixed_knowledge_creates_private_and_public(self, small_dataset, dataset_objective, rng):
        members = np.flatnonzero(small_dataset.labels == 0)[:3]
        knowledge = Knowledge.from_pairs(object_pairs=[(int(o), 0) for o in members])
        builder = SeedGroupBuilder(dataset_objective, small_dataset.n_clusters, knowledge)
        private, public = builder.build(rng)
        assert list(private) == [0]
        # Two knowledge-free clusters -> at least that many public groups.
        assert len(public) >= small_dataset.n_clusters - 1


def _claim_all_builder(object_pairs=(), dimension_pairs=()):
    """Two clusters over 40 objects whose dimensions 0-2 are constant.

    A grid over dimensions 0-2 is one cell.  Cluster 0 has both kinds of
    knowledge (object 0, dimensions 0-2), so its private group is built
    first and claims every object.
    """
    data = np.column_stack([np.ones((40, 3)), np.random.default_rng(0).random((40, 3))])
    objective = ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))
    knowledge = Knowledge.from_pairs(
        object_pairs=[(0, 0), *object_pairs],
        dimension_pairs=[(0, 0), (1, 0), (2, 0), *dimension_pairs],
    )
    return SeedGroupBuilder(objective, 2, knowledge)


class TestSeedGroupEdgeCases:
    def test_no_public_group_once_every_object_is_claimed(self):
        assert _claim_all_builder().build(0)[1] == []

    def test_public_peak_holding_only_the_anchor_is_the_group(self):
        cube = np.array([[a, b, c] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)])
        objective = ObjectiveFunction(cube, VarianceRatioThreshold(m=0.5))
        _, public = SeedGroupBuilder(objective, 1).build(0)
        assert [group.n_seeds for group in public] == [1, 1, 1]

    def test_public_search_finding_nothing_leaves_the_anchor(self, dataset_objective, monkeypatch):
        builder = SeedGroupBuilder(dataset_objective, 2)
        monkeypatch.setattr(builder, "_search_grids", lambda *args: (np.empty(0, dtype=int), 0))
        assert [group.n_seeds for group in builder.build(0)[1]] == [1] * 6

    def test_private_group_without_seeds_falls_back_to_labeled_objects(self):
        private, _ = _claim_all_builder(object_pairs=[(5, 1), (7, 1)]).build(0)
        np.testing.assert_array_equal(private[1].seeds, [5, 7])

    def test_private_group_without_seeds_keeps_labeled_dimensions(self):
        private, _ = _claim_all_builder(dimension_pairs=[(4, 1)]).build(0)
        assert private[1].n_seeds == 0
        np.testing.assert_array_equal(private[1].dimensions, [4])


class TestBuilderConfiguration:
    def test_initialisation_order_prefers_more_knowledge(self, small_dataset, dataset_objective):
        members0 = np.flatnonzero(small_dataset.labels == 0)[:2]
        members1 = np.flatnonzero(small_dataset.labels == 1)[:5]
        dims2 = small_dataset.relevant_dimensions[2][:2]
        knowledge = Knowledge.from_pairs(
            object_pairs=[(int(o), 0) for o in members0] + [(int(o), 1) for o in members1],
            dimension_pairs=[(int(d), 1) for d in dims2[:1]] + [(int(d), 2) for d in dims2],
        )
        builder = SeedGroupBuilder(dataset_objective, small_dataset.n_clusters, knowledge)
        order = builder._initialisation_order()
        # Cluster 1 has both kinds -> first; cluster 0 objects only -> second;
        # cluster 2 dimensions only -> third; cluster without knowledge last.
        assert order[0] == 1
        assert order[1] == 0
        assert order[2] == 2

    def test_auto_bins_scale_with_available_objects(self, dataset_objective):
        builder = SeedGroupBuilder(dataset_objective, 3, Knowledge.empty())
        assert builder._effective_bins(40) <= builder._effective_bins(5000)
        assert 2 <= builder._effective_bins(10) <= 8



def _full_broadcast_anchor(data, existing_groups, excluded_objects, rng):
    """Reference max-min anchor: every group's full distance broadcast."""
    mask = np.ones(data.shape[0], dtype=bool)
    mask[list(excluded_objects)] = False
    available = np.flatnonzero(mask)
    if available.size == 0:
        available = np.arange(data.shape[0])
    groups = [g for g in existing_groups if g.n_seeds > 0 and g.dimensions.size > 0]
    if not groups:
        return int(available[rng.integers(available.size)]), None
    min_distance = np.full(available.size, np.inf)
    for group in groups:
        dims = group.dimensions
        seeds = data[np.ix_(group.seeds, dims)]
        candidates = data[np.ix_(available, dims)]
        diffs = candidates[:, None, :] - seeds[None, :, :]
        distances = (diffs ** 2).sum(axis=2).min(axis=1) / dims.size
        min_distance = np.minimum(min_distance, distances)
    return int(available[int(np.argmax(min_distance))]), min_distance


class TestMaxMinAnchor:
    @pytest.mark.parametrize("block_elements", [None, 64, 1])
    @pytest.mark.parametrize("trial", range(4))
    def test_anchor_matches_full_broadcast(
        self, small_dataset, dataset_objective, monkeypatch, block_elements, trial
    ):
        if block_elements is not None:
            monkeypatch.setattr(seed_groups_module, "MAX_MIN_BLOCK_ELEMENTS", block_elements)
        data = small_dataset.data
        n, d = data.shape
        rng = np.random.default_rng(trial)
        builder = SeedGroupBuilder(dataset_objective, 3, Knowledge.empty())
        nearest = seed_groups_module._NearestSeedDistances(dataset_objective.data)
        groups, excluded = [], set()
        for step in range(6):
            if step or trial % 2:
                n_seeds = int(rng.integers(0, 12)) if step % 3 else int(rng.integers(1, 40))
                n_dims = int(rng.integers(0 if step == 2 else 1, 9))
                groups.append(
                    SeedGroup(
                        seeds=rng.choice(n, size=n_seeds, replace=False),
                        dimensions=rng.choice(d, size=n_dims, replace=False),
                    )
                )
            excluded.update(int(i) for i in rng.choice(n, size=15, replace=False))
            expected, distances = _full_broadcast_anchor(
                data, groups, excluded, np.random.default_rng(step)
            )
            incremental = builder._max_min_object(
                groups, excluded, np.random.default_rng(step), nearest
            )
            fresh = builder._max_min_object(groups, excluded, np.random.default_rng(step))
            assert incremental == fresh == expected
            if distances is not None:
                available = builder._available_objects(excluded)
                np.testing.assert_array_equal(nearest.distance[available], distances)

    def test_anchor_memory_is_bounded(self, rng):
        import tracemalloc

        data = np.random.default_rng(3).normal(size=(4000, 20))
        objective = ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))
        builder = SeedGroupBuilder(objective, 2, Knowledge.empty())
        group = SeedGroup(seeds=np.arange(0, 4000, 8), dimensions=np.arange(10))
        assert group.n_seeds == 500
        tracemalloc.start()
        try:
            builder._max_min_object([group], set(), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The full broadcast would hold two 4000 x 500 x 10 float64 arrays (160 MB each).
        assert peak < 32 * 2**20
