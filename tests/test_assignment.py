"""Tests for the object-assignment step (Listing 2, step 3)."""

import numpy as np
import pytest

from repro.core.assignment import ClusterState, assign_objects, members_from_labels
from repro.core.objective import ObjectiveFunction
from repro.core.thresholds import VarianceRatioThreshold
from repro.semisupervision.knowledge import Knowledge


@pytest.fixture()
def two_cluster_setup():
    """Two well-separated clusters on disjoint relevant dimensions."""
    rng = np.random.default_rng(33)
    data = rng.uniform(0, 100, size=(100, 10))
    data[:40, 0] = rng.normal(20, 1.0, size=40)
    data[:40, 1] = rng.normal(30, 1.0, size=40)
    data[40:80, 2] = rng.normal(70, 1.0, size=40)
    data[40:80, 3] = rng.normal(80, 1.0, size=40)
    objective = ObjectiveFunction(data, VarianceRatioThreshold(m=0.5))
    states = [
        ClusterState(
            representative=np.median(data[:40], axis=0),
            dimensions=np.asarray([0, 1]),
            members=np.empty(0, dtype=int),
            size_hint=40,
        ),
        ClusterState(
            representative=np.median(data[40:80], axis=0),
            dimensions=np.asarray([2, 3]),
            members=np.empty(0, dtype=int),
            size_hint=40,
        ),
    ]
    return objective, states


class TestAssignObjects:
    def test_members_assigned_to_their_cluster(self, two_cluster_setup):
        objective, states = two_cluster_setup
        labels = assign_objects(objective, states)
        assert np.mean(labels[:40] == 0) > 0.9
        assert np.mean(labels[40:80] == 1) > 0.9

    def test_background_objects_become_outliers(self, two_cluster_setup):
        objective, states = two_cluster_setup
        labels = assign_objects(objective, states)
        # Objects 80-99 match neither relevant subspace.  With only two
        # selected dimensions per cluster a background object near a
        # representative can still show a positive gain, so "most but not
        # necessarily all" of them end on the outlier list.
        assert np.mean(labels[80:] == -1) >= 0.4
        # And far fewer background objects are absorbed than real members.
        assert np.mean(labels[80:] == -1) > np.mean(labels[:80] == -1)

    def test_no_states_everything_outlier(self, two_cluster_setup):
        objective, _ = two_cluster_setup
        labels = assign_objects(objective, [])
        assert np.all(labels == -1)

    def test_empty_dimension_state_attracts_nothing(self, two_cluster_setup):
        objective, states = two_cluster_setup
        states[1].dimensions = np.empty(0, dtype=int)
        labels = assign_objects(objective, states)
        assert not np.any(labels == 1)

    def test_labeled_objects_pinned_to_their_class(self, two_cluster_setup):
        objective, states = two_cluster_setup
        # Claim two background objects for cluster 0; the knowledge is assumed
        # correct so the assignment must honour it.
        knowledge = Knowledge.from_pairs(object_pairs=[(90, 0), (95, 0)])
        labels = assign_objects(objective, states, knowledge=knowledge)
        assert labels[90] == 0 and labels[95] == 0

    def test_members_from_labels_partition(self, two_cluster_setup):
        objective, states = two_cluster_setup
        labels = assign_objects(objective, states)
        members = members_from_labels(labels, 2)
        assert len(members) == 2
        recombined = np.concatenate(members)
        assert len(set(recombined.tolist())) == recombined.size
        assert set(recombined.tolist()) == set(np.flatnonzero(labels >= 0).tolist())


class TestClusterState:
    def test_copy_is_deep(self):
        state = ClusterState(
            representative=np.zeros(3),
            dimensions=np.asarray([1]),
            members=np.asarray([2]),
            size_hint=5,
        )
        clone = state.copy()
        clone.representative[0] = 9.0
        clone.dimensions[0] = 2
        assert state.representative[0] == 0.0
        assert state.dimensions[0] == 1
