"""Tests of the streaming engine (:mod:`repro.stream.engine`)."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sspc import SSPC
from repro.data.streams import (
    ClusterBirth,
    ClusterDeath,
    DriftingStreamGenerator,
    MeanShift,
)
from repro.evaluation import adjusted_rand_index
from repro.reliability import IntegrityError, mmap_npz, stamp_checksum
from repro.serving import index as index_module
from repro.serving.index import ProjectedClusterIndex
from repro.stream import StreamConfig, StreamingSSPC, load_checkpoint
from repro.stream.checkpoint import ARRAYS_NAME, STATE_NAME, resolve_checkpoint_dir
from repro.bench.chaos import engine_fingerprint
from repro.stream.engine import DRIFT_WINDOW, RETIRED_CONFIG_FIELDS
from repro.stream.lifecycle import RowWindow, find_spawn_candidate

STREAM_SHAPE = dict(
    n_dimensions=40,
    n_clusters=3,
    avg_cluster_dimensionality=6,
    outlier_fraction=0.05,
    random_state=7,
)


def make_stream(events=()):
    return DriftingStreamGenerator(events=events, **STREAM_SHAPE)


@pytest.fixture(scope="module")
def stream_model():
    """A well-fitted initial model on the stream's pre-drift populations."""
    warmup = make_stream().warmup(900)
    model = SSPC(n_clusters=3, m=0.5, max_iterations=20, random_state=3).fit(warmup.data)
    # The engine contracts below assume the warmup fit actually found the
    # three generating clusters (a misfit model *should* trigger spawns).
    assert adjusted_rand_index(warmup.labels, model.labels_) > 0.95
    return model


def adaptive_config(**overrides):
    parameters = dict(seed=1, spawn_min_points=20, lifecycle_every=4, drift_check_every=2)
    parameters.update(overrides)
    return StreamConfig(**parameters)


class TestDriftFreeBitIdentity:
    def test_statistics_match_bare_partial_update_exactly(self, stream_model):
        """Acceptance: drift-free streaming == the PR-2 serving primitive."""
        engine = StreamingSSPC(stream_model.to_artifact(), config=StreamConfig(seed=1))
        index = ProjectedClusterIndex(stream_model.to_artifact())
        for batch in make_stream().batches(30, 150):
            result = engine.process_batch(batch.data)
            labels = index.partial_update(batch.data)
            # No lifecycle events -> stable ids coincide with positions.
            np.testing.assert_array_equal(result.labels, labels)
        assert engine.n_spawned == engine.n_retired == engine.n_drift_refreshes == 0
        assert not engine.adapted
        for position in range(index.n_clusters):
            ours = engine.index.cluster_statistics(position)
            theirs = index.cluster_statistics(position)
            assert ours.size == theirs.size
            assert np.array_equal(ours.mean, theirs.mean)
            assert np.array_equal(ours.variance, theirs.variance)
            assert np.array_equal(ours.median_selected, theirs.median_selected)

    def test_bit_identity_also_holds_with_adaptation_disabled(self, stream_model):
        engine = StreamingSSPC(
            stream_model.to_artifact(),
            config=StreamConfig(seed=1, lifecycle_every=0, drift_check_every=0),
        )
        index = ProjectedClusterIndex(stream_model.to_artifact())
        for batch in make_stream(events=[MeanShift(batch=3, cluster=0)]).batches(8, 150):
            engine.process_batch(batch.data)
            index.partial_update(batch.data)
        assert not engine.adapted
        for position in range(index.n_clusters):
            assert np.array_equal(
                engine.index.cluster_statistics(position).mean,
                index.cluster_statistics(position).mean,
            )


class TestOutlierBuffer:
    def test_buffer_is_bounded(self, stream_model):
        engine = StreamingSSPC(
            stream_model.to_artifact(),
            config=StreamConfig(seed=1, outlier_buffer_size=16, lifecycle_every=0,
                                drift_check_every=0),
        )
        for batch in make_stream().batches(10, 150):
            engine.process_batch(batch.data)
        assert len(engine.outliers) <= 16
        assert engine.outliers.n_dropped > 0
        assert engine.outliers.n_seen > 16


class TestRowWindow:
    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 24),
        width=st.integers(1, 3),
        operations=st.lists(
            st.tuples(st.sampled_from(["extend", "extend", "remove"]), st.integers(0, 60)),
            max_size=30,
        ),
        data=st.data(),
    )
    def test_matches_concatenate_then_trim(self, capacity, width, operations, data):
        """Extends of 0 rows, of at least ``capacity`` rows, and removes."""
        window = RowWindow(capacity, width)
        expected = np.empty((0, width))
        counter = 0
        for kind, size in operations:
            if kind == "extend":
                rows = np.arange(counter, counter + size * width, dtype=float).reshape(size, width)
                counter += size * width
                dropped = window.extend(rows)
                merged = np.concatenate([expected, rows], axis=0)
                assert dropped == merged.shape[0] - merged[-capacity:].shape[0]
                expected = merged[-capacity:]
            else:
                drop = data.draw(st.sets(st.integers(0, max(len(expected) - 1, 0))))
                drop = sorted(i for i in drop if i < len(expected))
                window.remove(np.asarray(drop, dtype=int))
                expected = np.delete(expected, drop, axis=0)
            assert len(window) == expected.shape[0]
            assert window.rows.flags.c_contiguous
            np.testing.assert_array_equal(window.rows, expected)
        assert window._block.shape[0] <= capacity + capacity // 4

    def test_full_window_appends_allocate_nothing(self):
        window = RowWindow(64, 5)
        rows = np.ones((7, 5))
        for _ in range(40):
            window.extend(rows)
        block = window._block
        for _ in range(40):
            window.extend(rows)
        assert window._block is block


class TestBatchValidation:
    """A batch is checked before anything changes, as the index checks it."""

    @staticmethod
    def state(engine):
        index = engine.index
        return (
            engine_fingerprint(engine),
            engine.n_batches,
            engine.n_points,
            index.n_updates,
            index.n_points_absorbed,
            [len(window) for window in engine._windows],
            [window.rows.tobytes() for window in engine._windows],
            list(engine._accepted_since_sweep),
        )

    def test_a_batch_is_checked_once(self, stream_model, monkeypatch):
        # The engine checks each batch, then folds and predicts the
        # checked block without checking it again.
        checks = []
        check = index_module.check_array_2d
        monkeypatch.setattr(
            index_module, "check_array_2d", lambda *a, **k: checks.append(1) or check(*a, **k)
        )
        config = StreamConfig(seed=1, lifecycle_every=0, drift_check_every=0)
        engine = StreamingSSPC(stream_model.to_artifact(), config=config)
        for batch in make_stream().batches(8, 150):
            engine.process_batch(batch.data)
        assert len(checks) == engine.n_batches == 8

    def test_a_1d_point_is_a_one_row_batch(self, stream_model):
        point = make_stream().batch(0, 20).data[3]
        as_point = StreamingSSPC(stream_model.to_artifact(), config=StreamConfig(seed=1))
        as_batch = StreamingSSPC(stream_model.to_artifact(), config=StreamConfig(seed=1))
        for _ in range(3):
            ours = as_point.process_batch(point)
            theirs = as_batch.process_batch(point[None, :])
            np.testing.assert_array_equal(ours.labels, theirs.labels)
            assert ours.labels.shape == (1,)
        assert as_point.n_points == 3 and as_point.index.n_updates == 3
        assert self.state(as_point) == self.state(as_batch)

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(np.empty((0, 40)), id="empty"),
            pytest.param(np.ones((5, 39)), id="wrong-width"),
            pytest.param(np.ones(39), id="wrong-width-point"),
            pytest.param(np.full((5, 40), np.nan), id="nan"),
            pytest.param(np.ones((2, 3, 40)), id="three-d"),
        ],
    )
    def test_a_rejected_batch_changes_nothing(self, stream_model, bad):
        engine = StreamingSSPC(stream_model.to_artifact(), config=StreamConfig(seed=1))
        for batch in make_stream().batches(3, 150):
            engine.process_batch(batch.data)
        before = self.state(engine)
        with pytest.raises(ValueError):
            engine.process_batch(bad)
        assert self.state(engine) == before


@pytest.fixture(scope="module")
def wide_stream():
    """A d=100 model and a stream half of whose rows fail the gate."""
    shape = dict(n_dimensions=100, n_clusters=3, avg_cluster_dimensionality=6, random_state=5)
    warmup = DriftingStreamGenerator(outlier_fraction=0.05, **shape).warmup(600)
    model = SSPC(3, m=0.5, max_iterations=10, random_state=0).fit(warmup.data)
    batches = list(DriftingStreamGenerator(outlier_fraction=0.5, **shape).batches(41, 128))
    return model, batches


def traced_peak(call):
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    def test_steady_state_batch_does_not_copy_the_buffers(self, wide_stream):
        model, batches = wide_stream
        config = StreamConfig(
            seed=0, lifecycle_every=0, drift_check_every=0, projection_window=256
        )
        engine = StreamingSSPC(model.to_artifact(), config=config)
        for batch in batches[:-1]:
            engine.process_batch(batch.data)
        assert len(engine.outliers) == engine.outliers.capacity == 1024
        assert all(len(window) == DRIFT_WINDOW for window in engine._windows)
        last = batches[-1].data
        _, peak = traced_peak(lambda: engine.process_batch(last))
        # A few batch-sized copies (the index's and the engine's split, the
        # variance temporaries), and nothing the size of the 1024 x 100
        # outlier buffer (800 KiB) or of the drift windows.
        bound = 4 * last.nbytes + (64 << 10)
        assert bound < engine.outliers.rows.nbytes
        assert peak < bound

    def test_spawn_search_is_linear_in_the_buffer(self, wide_stream):
        model, batches = wide_stream
        config = StreamConfig(seed=0, lifecycle_every=0, drift_check_every=0)
        engine = StreamingSSPC(model.to_artifact(), config=config)
        for batch in batches:
            engine.process_batch(batch.data)
        rows = engine.outliers.rows.copy()
        assert rows.shape == (1024, 100)
        threshold = engine._spawn_threshold()
        _, peak = traced_peak(
            lambda: find_spawn_candidate(rows, threshold, np.random.default_rng(0), min_points=24)
        )
        # O(buffer x d): the normalised copy of the buffer and its float
        # and 1-byte binned temporaries.  A (rows, seeds, dims) max-min
        # broadcast or a rows x rows distance matrix (8 MiB) would not fit.
        assert peak < 3 * rows.nbytes


class TestLifecycle:
    def test_cluster_birth_triggers_a_spawn_with_a_fresh_stable_id(self, stream_model):
        stream = make_stream(events=[ClusterBirth(batch=4)])
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        results = [engine.process_batch(batch.data) for batch in stream.batches(16, 150)]
        spawns = [event for event in engine.events if event.kind == "spawn"]
        assert spawns, "newborn cluster was never spawned"
        assert engine.n_clusters == 4
        assert engine.cluster_ids[-1] == 3  # fresh id, never a reused position
        # After the spawn, the newborn's rows map to exactly one engine id.
        last = results[-1]
        batch = stream.batch(15, 150)
        newborn_labels = last.labels[batch.labels == 3]
        values, counts = np.unique(newborn_labels, return_counts=True)
        assert values[np.argmax(counts)] == 3
        assert counts.max() / newborn_labels.size > 0.8

    def test_dead_cluster_is_retired_and_ids_stay_stable(self, stream_model):
        stream = make_stream(events=[ClusterDeath(batch=2, cluster=2)])
        engine = StreamingSSPC(
            stream_model.to_artifact(),
            config=adaptive_config(lifecycle_every=2),
        )
        for batch in stream.batches(14, 150):
            engine.process_batch(batch.data)
        retirements = [event for event in engine.events if event.kind == "retire"]
        assert retirements
        assert engine.n_clusters == 2
        assert len(engine.cluster_ids) == 2
        assert sorted(set(engine.cluster_ids)) == engine.cluster_ids  # still unique
        with pytest.raises(ValueError):
            engine.position_of(retirements[0].cluster_id)

    def test_leaked_members_do_not_spawn_a_duplicate(self, stream_model):
        """Borderline members of an existing cluster must not respawn it."""
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        for batch in make_stream().batches(30, 150):
            engine.process_batch(batch.data)
        assert engine.n_spawned == 0


class TestDriftAdaptation:
    def test_small_mean_shift_triggers_a_refresh_not_a_spawn(self, stream_model):
        # A shift small enough that points keep passing the gate: the
        # cluster's accepted-traffic mean moves, the detector fires, and
        # the cluster is re-anchored in place.
        stream = make_stream(events=[MeanShift(batch=4, cluster=0, magnitude=0.08)])
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        for batch in stream.batches(20, 150):
            engine.process_batch(batch.data)
        assert engine.n_drift_refreshes >= 1
        drift_events = [event for event in engine.events if event.kind == "drift"]
        assert all(event.details["score"] > 8.0 for event in drift_events)

    def test_refreshed_cluster_tracks_the_new_population(self, stream_model):
        stream = make_stream(events=[MeanShift(batch=4, cluster=0, magnitude=0.08)])
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        aris = []
        for batch in stream.batches(24, 150):
            result = engine.process_batch(batch.data)
            clustered = batch.labels >= 0
            aris.append(adjusted_rand_index(batch.labels[clustered], result.labels[clustered]))
        assert np.mean(aris[-6:]) > 0.9

    def test_mixed_event_gauntlet_recovers(self, stream_model):
        stream = make_stream(
            events=[
                MeanShift(batch=16, cluster=0, magnitude=0.35),
                ClusterBirth(batch=20),
                ClusterDeath(batch=24, cluster=2),
            ]
        )
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        aris = []
        for batch in stream.batches(56, 150):
            result = engine.process_batch(batch.data)
            clustered = batch.labels >= 0
            aris.append(adjusted_rand_index(batch.labels[clustered], result.labels[clustered]))
        assert np.mean(aris[:16]) > 0.95
        assert np.mean(aris[-10:]) > 0.9
        assert engine.n_spawned >= 1


class TestProjectionWindow:
    def test_projection_buffers_stay_bounded(self, stream_model):
        engine = StreamingSSPC(
            stream_model.to_artifact(),
            config=StreamConfig(seed=1, projection_window=64, lifecycle_every=0,
                                drift_check_every=0),
        )
        for batch in make_stream().batches(10, 150):
            engine.process_batch(batch.data)
        for position in range(engine.n_clusters):
            projections = engine.index._clusters[position].projections
            assert projections.shape[0] <= 64


class TestCheckpointRestore:
    def test_interrupted_run_is_bit_identical_to_uninterrupted(self, stream_model, tmp_path):
        stream = make_stream(
            events=[MeanShift(batch=10, cluster=0, magnitude=0.35), ClusterBirth(batch=14)]
        )
        config = adaptive_config()
        reference = StreamingSSPC(stream_model.to_artifact(), config=config)
        reference_labels = [
            reference.process_batch(batch.data).labels for batch in stream.batches(30, 150)
        ]

        interrupted = StreamingSSPC(stream_model.to_artifact(), config=config)
        for batch in stream.batches(18, 150):
            interrupted.process_batch(batch.data)
        assert interrupted.adapted  # the checkpoint exercises the export path
        interrupted.checkpoint(tmp_path / "ck")
        resumed = load_checkpoint(tmp_path / "ck")
        assert resumed.n_batches == 18
        resumed_labels = [
            resumed.process_batch(batch.data).labels
            for batch in stream.batches(12, 150, start=18)
        ]
        for left, right in zip(reference_labels[18:], resumed_labels):
            np.testing.assert_array_equal(left, right)
        assert resumed.cluster_ids == reference.cluster_ids
        assert len(resumed.events) == len(reference.events)
        for position in range(reference.n_clusters):
            ours = resumed.index.cluster_statistics(position)
            theirs = reference.index.cluster_statistics(position)
            assert ours.size == theirs.size
            assert np.array_equal(ours.dimensions, theirs.dimensions)
            assert np.array_equal(ours.mean, theirs.mean)
            assert np.array_equal(ours.variance, theirs.variance)
            assert np.array_equal(ours.median_selected, theirs.median_selected)

    def test_unadapted_checkpoint_preserves_training_payload(self, stream_model, tmp_path):
        """Without adaptation the checkpoint folds into the source artifact."""
        engine = StreamingSSPC(stream_model.to_artifact(), config=StreamConfig(seed=1))
        for batch in make_stream().batches(6, 150):
            engine.process_batch(batch.data)
        assert not engine.adapted
        engine.checkpoint(tmp_path / "ck")
        from repro.serving.artifact import load_artifact

        artifact = load_artifact(resolve_checkpoint_dir(tmp_path / "ck") / "model")
        assert artifact.n_objects == 900  # training labels/members survived
        assert artifact.metadata["serving_sizes"] == [
            int(size) for size in engine.index.cluster_sizes()
        ]

    def test_repeated_checkpoints_record_absolute_absorbed_counts(
        self, stream_model, tmp_path
    ):
        """Re-checkpointing an unadapted engine must not double-count."""
        from repro.serving.artifact import load_artifact

        engine = StreamingSSPC(stream_model.to_artifact(), config=StreamConfig(seed=1))
        stream = make_stream()
        for batch in stream.batches(3, 150):
            engine.process_batch(batch.data)
        engine.checkpoint(tmp_path / "ck")
        for batch in stream.batches(3, 150, start=3):
            engine.process_batch(batch.data)
        engine.checkpoint(tmp_path / "ck")
        artifact = load_artifact(resolve_checkpoint_dir(tmp_path / "ck") / "model")
        assert artifact.metadata["absorbed_points"] == engine.index.n_points_absorbed
        # ... and a restored engine keeps the running total correct.
        resumed = load_checkpoint(tmp_path / "ck")
        for batch in stream.batches(2, 150, start=6):
            resumed.process_batch(batch.data)
        resumed.checkpoint(tmp_path / "ck")
        artifact = load_artifact(resolve_checkpoint_dir(tmp_path / "ck") / "model")
        assert artifact.metadata["absorbed_points"] == (
            engine.index.n_points_absorbed + resumed.index.n_points_absorbed
        )

    def test_adapted_checkpoint_exports_serving_state(self, stream_model, tmp_path):
        stream = make_stream(events=[ClusterBirth(batch=2)])
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        for batch in stream.batches(12, 150):
            engine.process_batch(batch.data)
        assert engine.adapted
        engine.checkpoint(tmp_path / "ck")
        from repro.serving.artifact import load_artifact

        artifact = load_artifact(resolve_checkpoint_dir(tmp_path / "ck") / "model")
        assert artifact.n_objects == 0  # no training payload for adapted state
        assert artifact.n_clusters == engine.n_clusters

    def test_config_override_rebounds_windows_and_outlier_buffer(self, stream_model, tmp_path):
        # No spawns, so every rejected row is either buffered or dropped.
        config = StreamConfig(
            seed=1, lifecycle_every=0, drift_check_every=0, outlier_buffer_size=64
        )
        engine = StreamingSSPC(stream_model.to_artifact(), config=config)
        for batch in make_stream().batches(20, 150):
            engine.process_batch(batch.data)
        assert engine.outliers.n_dropped > 0
        assert all(len(window) == DRIFT_WINDOW for window in engine._windows)
        engine.checkpoint(tmp_path / "ck")

        smaller = dataclasses.replace(config, outlier_buffer_size=40)
        restored = load_checkpoint(tmp_path / "ck", config=smaller)
        for ours, theirs in zip(restored._windows, engine._windows):
            np.testing.assert_array_equal(ours.rows, theirs.rows)
        np.testing.assert_array_equal(restored.outliers.rows, engine.outliers.rows[-40:])
        assert restored.outliers.n_seen == engine.outliers.n_seen
        assert restored.outliers.n_dropped == engine.outliers.n_dropped + 64 - 40
        assert restored.outliers.n_seen == restored.outliers.n_dropped + len(restored.outliers)


class TestCheckpointFormat:
    """``stream_arrays.npz`` is a stored bundle; deflated ones still restore."""

    def test_stream_arrays_are_stored_and_mappable(self, stream_model, tmp_path):
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        for batch in make_stream(events=[ClusterBirth(batch=2)]).batches(12, 150):
            engine.process_batch(batch.data)
        engine.checkpoint(tmp_path / "ck")
        bundle = resolve_checkpoint_dir(tmp_path / "ck") / ARRAYS_NAME
        with zipfile.ZipFile(bundle) as archive:
            methods = {info.compress_type for info in archive.infolist()}
        assert methods == {zipfile.ZIP_STORED}
        mapped = mmap_npz(bundle)
        with np.load(bundle) as eager:
            assert sorted(mapped) == sorted(eager.files)
            for key in eager.files:
                assert mapped[key].dtype == eager[key].dtype
                assert mapped[key].shape == eager[key].shape
                assert mapped[key].tobytes() == eager[key].tobytes()

    def test_deflated_stream_arrays_restore_bit_identically(self, stream_model, tmp_path):
        stream = make_stream(
            events=[MeanShift(batch=4, cluster=0, magnitude=0.35), ClusterBirth(batch=6)]
        )
        config = adaptive_config()
        reference = StreamingSSPC(stream_model.to_artifact(), config=config)
        reference_labels = [
            reference.process_batch(batch.data).labels for batch in stream.batches(20, 150)
        ]
        interrupted = StreamingSSPC(stream_model.to_artifact(), config=config)
        for batch in stream.batches(12, 150):
            interrupted.process_batch(batch.data)
        interrupted.checkpoint(tmp_path / "ck")

        # Rewrite the committed bundle deflated, as older versions wrote
        # it; the arrays are the same, so the recorded checksums hold.
        generation = resolve_checkpoint_dir(tmp_path / "ck")
        with np.load(generation / ARRAYS_NAME) as stored:
            arrays = {key: stored[key] for key in stored.files}
        np.savez_compressed(generation / ARRAYS_NAME, **arrays)
        with zipfile.ZipFile(generation / ARRAYS_NAME) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}

        resumed = load_checkpoint(tmp_path / "ck")
        assert resumed.restored_from == str(generation)
        assert resumed.n_batches == 12
        resumed_labels = [
            resumed.process_batch(batch.data).labels
            for batch in stream.batches(8, 150, start=12)
        ]
        for left, right in zip(reference_labels[12:], resumed_labels):
            np.testing.assert_array_equal(left, right)

    def test_state_with_a_non_median_center_is_rejected(self, stream_model, tmp_path):
        engine = StreamingSSPC(stream_model.to_artifact(), config=StreamConfig(seed=1))
        for batch in make_stream().batches(2, 150):
            engine.process_batch(batch.data)
        engine.checkpoint(tmp_path / "ck")
        state_path = resolve_checkpoint_dir(tmp_path / "ck") / STATE_NAME
        state = json.loads(state_path.read_text())
        # Still written: readers of the schema-2 layout require the key.
        assert state["center"] == "median"
        state["center"] = "mean"
        state_path.write_text(json.dumps(stamp_checksum(state)))
        with pytest.raises(ValueError, match="center") as excinfo:
            load_checkpoint(tmp_path / "ck")
        assert not isinstance(excinfo.value, IntegrityError)


class TestRetiredConfigFields:
    """Checkpoints of versions that stored six more config fields still restore."""

    def _checkpoint_with(self, stream_model, tmp_path, **fields):
        stream = make_stream(events=[MeanShift(batch=6, cluster=0, magnitude=0.35)])
        engine = StreamingSSPC(stream_model.to_artifact(), config=adaptive_config())
        for batch in stream.batches(10, 150):
            engine.process_batch(batch.data)
        engine.checkpoint(tmp_path / "ck")
        state_path = resolve_checkpoint_dir(tmp_path / "ck") / STATE_NAME
        state = json.loads(state_path.read_text())
        assert not RETIRED_CONFIG_FIELDS.keys() & state["config"].keys()
        state["config"].update(fields)
        state_path.write_text(json.dumps(stamp_checksum(state)))
        return stream, engine

    def test_fields_at_their_fixed_values_restore_and_continue(self, stream_model, tmp_path):
        stream, engine = self._checkpoint_with(stream_model, tmp_path, **RETIRED_CONFIG_FIELDS)
        assert sorted(RETIRED_CONFIG_FIELDS) == [
            "drift_min_points", "drift_window", "refresh_thresholds", "retire_patience",
            "spawn_grids", "stats_cache_max_entries",
        ]
        restored = load_checkpoint(tmp_path / "ck")
        assert restored.config == engine.config
        for batch in stream.batches(14, 150, start=10):
            expected = engine.process_batch(batch.data).labels
            np.testing.assert_array_equal(restored.process_batch(batch.data).labels, expected)
        assert restored.n_drift_refreshes == engine.n_drift_refreshes > 0

    def test_a_field_at_another_value_names_the_field(self, stream_model, tmp_path):
        self._checkpoint_with(stream_model, tmp_path, retire_patience=5)
        with pytest.raises(ValueError, match="retire_patience") as excinfo:
            load_checkpoint(tmp_path / "ck")
        assert not isinstance(excinfo.value, IntegrityError)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"outlier_buffer_size": 0},
            {"spawn_min_points": 1},
            {"projection_window": 0},
            {"lifecycle_every": -1},
            {"drift_check_every": -1},
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            StreamConfig(**overrides)

    def test_config_round_trips_through_dict(self):
        config = StreamConfig(seed=5, max_clusters=7, projection_window=32)
        assert StreamConfig.from_dict(config.to_dict()) == config
