"""Compute backends: in-process, worker pool, ownership and failure paths."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import obs
from repro.reliability import FaultPlan, FaultSpec, GenerationStore, active
from repro.serving.artifact import MODEL_DIR, load_artifact
from repro.serving.index import ProjectedClusterIndex
from repro.server.pool import (
    BackendError,
    InProcessBackend,
    WorkerPoolBackend,
    build_serving_index,
    make_backend,
)


@pytest.fixture(scope="module")
def dataset():
    from repro.data.generator import make_projected_clusters

    return make_projected_clusters(
        n_objects=240,
        n_dimensions=40,
        n_clusters=3,
        avg_cluster_dimensionality=6,
        random_state=1234,
    )


@pytest.fixture(scope="module")
def artifact_dir(dataset, tmp_path_factory):
    from repro.core.sspc import SSPC

    model = SSPC(n_clusters=3, m=0.5, random_state=0).fit(dataset.data)
    path = tmp_path_factory.mktemp("pool") / "model"
    model.to_artifact().save(path)
    return path


@pytest.fixture(scope="module")
def query_points():
    rng = np.random.default_rng(77)
    return rng.normal(size=(25, 40))


@pytest.fixture(scope="module")
def reference_labels(artifact_dir, query_points):
    return ProjectedClusterIndex(load_artifact(artifact_dir)).predict(query_points)


class TestBuildServingIndex:
    def test_mmap_path_is_bit_identical_to_eager(self, artifact_dir, query_points):
        eager = ProjectedClusterIndex(load_artifact(artifact_dir))
        mapped = build_serving_index(artifact_dir)
        np.testing.assert_array_equal(
            mapped.predict(query_points), eager.predict(query_points)
        )
        np.testing.assert_array_equal(
            mapped.gains_matrix(query_points), eager.gains_matrix(query_points)
        )


class TestInProcessBackend:
    def test_index_requires_start(self, artifact_dir):
        backend = InProcessBackend(artifact_dir)
        with pytest.raises(BackendError):
            backend.index
        assert backend.alive_workers == 0

    def test_lifecycle_and_bit_identity(
        self, artifact_dir, query_points, reference_labels
    ):
        async def drive():
            backend = InProcessBackend(artifact_dir)
            await backend.start()
            try:
                assert backend.alive_workers == 1
                assert backend.parallelism == 1
                assert backend.describe()["workers"] == 0
                labels, kernel_s, pid = await backend.predict(query_points)
                assert kernel_s >= 0.0 and pid is None
                soft_labels, clusters, gains = await backend.predict_soft(
                    query_points, 2
                )
                return labels, soft_labels, clusters, gains
            finally:
                await backend.stop()

        labels, soft_labels, clusters, gains = asyncio.run(drive())
        np.testing.assert_array_equal(labels, reference_labels)
        np.testing.assert_array_equal(soft_labels, reference_labels)
        assert clusters.shape == (query_points.shape[0], 2)
        assert gains.shape == (query_points.shape[0], 2)

    def test_partial_update_persists_a_generation(
        self, artifact_dir, query_points, tmp_path
    ):
        reference = ProjectedClusterIndex(load_artifact(artifact_dir))
        expected_applied = reference.partial_update(query_points)
        state_dir = tmp_path / "state"

        async def drive():
            backend = InProcessBackend(artifact_dir)
            await backend.start()
            try:
                return await backend.partial_update(
                    query_points, None, str(state_dir)
                )
            finally:
                await backend.stop()

        applied, absorbed = asyncio.run(drive())
        np.testing.assert_array_equal(applied, expected_applied)
        assert absorbed >= 0
        # The committed generation serves exactly what the folded index does.
        generation = GenerationStore(state_dir).current()
        folded = ProjectedClusterIndex(load_artifact(generation / MODEL_DIR))
        np.testing.assert_array_equal(
            folded.predict(query_points), reference.predict(query_points)
        )

    def test_a_cancelled_writer_keeps_reads_out_until_its_fold_settles(
        self, artifact_dir, query_points, tmp_path, monkeypatch
    ):
        holding, release = threading.Event(), threading.Event()
        original_commit = GenerationStore.commit

        def held_commit(self):
            holding.set()
            assert release.wait(timeout=30)
            return original_commit(self)

        monkeypatch.setattr(GenerationStore, "commit", held_commit)
        reference = ProjectedClusterIndex(load_artifact(artifact_dir))
        reference.partial_update(query_points)

        async def drive():
            backend = InProcessBackend(artifact_dir)
            await backend.start()
            try:
                update = asyncio.ensure_future(
                    backend.partial_update(query_points, None, str(tmp_path / "state"))
                )
                for _ in range(2000):
                    if holding.is_set():
                        break
                    await asyncio.sleep(0.005)
                assert holding.is_set(), "the update never reached its commit"
                # The caller gives up while the commit is held; the fold
                # runs on, so a read must still wait for it.
                update.cancel()
                read = asyncio.ensure_future(backend.predict(query_points))
                try:
                    await asyncio.sleep(0.1)
                    assert update.cancelled() and not read.done()
                finally:
                    release.set()
                labels, _, _ = await read
                assert backend._write is None
                return labels
            finally:
                await backend.stop()

        np.testing.assert_array_equal(asyncio.run(drive()), reference.predict(query_points))


class TestFailedCommit:
    """A commit that fails undoes the owner's fold: no state that no generation holds."""

    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_owner_and_replicas_keep_the_last_committed_state(
        self, n_workers, artifact_dir, dataset, query_points, tmp_path
    ):
        folds = [dataset.data[40 * i : 40 * (i + 1)] for i in range(5)]
        reference = ProjectedClusterIndex(load_artifact(artifact_dir))
        before = reference.top_assignments(query_points, 3)
        state_dir = str(tmp_path / "state")
        # The first write of the first commit fails with ENOSPC; pool
        # workers inherit the plan when they fork.
        plan = FaultPlan(specs=[FaultSpec(op="write", index=0, kind="enospc")])

        async def answers(backend):
            if n_workers == 0:
                return [await backend.predict_soft(query_points, 3)]
            handles = backend._handles
            return [await backend._call(h, ("predict_soft", query_points, 3)) for h in handles]

        async def drive():
            backend = make_backend(artifact_dir, n_workers=n_workers)
            try:
                with active(plan):
                    await backend.start()
                    with pytest.raises((BackendError, OSError), match="ENOSPC"):
                        await backend.partial_update(folds[0], None, state_dir)
                after_failure = await answers(backend)
                absorbed = []
                for fold in folds[1:]:
                    absorbed.append((await backend.partial_update(fold, None, state_dir))[1])
                    await backend.reload_replicas(state_dir)
                return after_failure, absorbed, await answers(backend)
            finally:
                await backend.stop()

        after_failure, absorbed, after_updates = asyncio.run(drive())
        assert len(after_failure) == max(n_workers, 1)
        for answer in after_failure:
            for got, want in zip(answer, before):
                assert got.tobytes() == want.tobytes()
        assert min(absorbed) > 0
        for fold in folds[1:]:
            reference.partial_update(fold)
        expected = reference.top_assignments(query_points, 3)
        assert expected[2].tobytes() != before[2].tobytes()
        for answer in after_updates:
            for got, want in zip(answer, expected):
                assert got.tobytes() == want.tobytes()
        assert len(GenerationStore(state_dir).generations()) == 2


class TestMakeBackend:
    def test_zero_workers_is_in_process(self, artifact_dir):
        assert isinstance(make_backend(artifact_dir, n_workers=0), InProcessBackend)

    def test_positive_workers_is_a_pool(self, artifact_dir):
        backend = make_backend(artifact_dir, n_workers=2)
        assert isinstance(backend, WorkerPoolBackend)
        assert backend.n_workers == 2

    def test_pool_rejects_zero_workers(self, artifact_dir):
        with pytest.raises(ValueError):
            WorkerPoolBackend(artifact_dir, n_workers=0)


class TestWorkerPoolBackend:
    def test_predict_and_write_path(
        self, artifact_dir, query_points, reference_labels, tmp_path
    ):
        state_dir = tmp_path / "state"
        reference = ProjectedClusterIndex(load_artifact(artifact_dir))
        expected_applied = reference.partial_update(query_points)
        worker_pids = set()

        async def drive():
            backend = WorkerPoolBackend(artifact_dir, n_workers=2)
            await backend.start()
            try:
                assert backend.alive_workers == 2
                assert backend.parallelism == 2
                worker_pids.update(handle.process.pid for handle in backend._handles)
                # Several predicts so round-robin touches both workers.
                batches = [await backend.predict(query_points) for _ in range(4)]
                soft = await backend.predict_soft(query_points, 3)
                # The owner commits a generation to the state_dir store;
                # replicas reload the one its CURRENT names.
                applied, absorbed = await backend.partial_update(
                    query_points, None, str(state_dir)
                )
                await backend.reload_replicas(str(state_dir))
                assert backend.alive_workers == 2
                post_reload = [await backend.predict(query_points) for _ in range(4)]
                return batches, soft, applied, absorbed, post_reload
            finally:
                await backend.stop()

        batches, soft, applied, absorbed, post_reload = asyncio.run(drive())
        for labels, kernel_s, pid in batches:
            np.testing.assert_array_equal(labels, reference_labels)
            assert kernel_s >= 0.0 and pid in worker_pids
        np.testing.assert_array_equal(soft[0], reference_labels)
        np.testing.assert_array_equal(applied, expected_applied)
        assert absorbed >= 0
        # After fold + rebroadcast every worker serves the folded model.
        for labels, _, _ in post_reload:
            np.testing.assert_array_equal(labels, reference.predict(query_points))
        assert GenerationStore(state_dir).current() == state_dir / "gen-00000001"
        assert (state_dir / "gen-00000001" / MODEL_DIR / "manifest.json").is_file()

    def test_a_replica_that_fails_to_reload_leaves_rotation(
        self, artifact_dir, query_points, tmp_path
    ):
        reference = ProjectedClusterIndex(load_artifact(artifact_dir))
        reference.partial_update(query_points)

        async def drive():
            backend = WorkerPoolBackend(artifact_dir, n_workers=2)
            await backend.start()
            try:
                await backend.partial_update(query_points, None, str(tmp_path / "state"))
                # The owner holds the new generation; the replica cannot
                # find it and would go on serving the boot artifact.
                await backend.reload_replicas(str(tmp_path / "missing"))
                replica = backend._handles[1]
                assert not replica.alive and backend.alive_workers == 1
                replica.process.join(timeout=10.0)
                assert not replica.process.is_alive()
                return [await backend.predict_soft(query_points, 3) for _ in range(4)]
            finally:
                await backend.stop()

        with obs.recording() as recorder:
            answers = asyncio.run(drive())
        expected = reference.top_assignments(query_points, 3)
        for answer in answers:
            for got, want in zip(answer, expected):
                assert got.tobytes() == want.tobytes()
        events = [event for event in recorder.events if event["kind"] == "replica_reload_failed"]
        assert [event["details"]["worker"] for event in events] == [1]
        assert "missing" in events[0]["details"]["error"]

    def test_dead_owner_is_detected_and_routed_around(
        self, artifact_dir, query_points, reference_labels
    ):
        async def drive():
            backend = WorkerPoolBackend(artifact_dir, n_workers=2)
            await backend.start()
            try:
                backend.owner.process.kill()
                backend.owner.process.join(timeout=5.0)
                # The first call routed to the dead owner poisons it...
                with pytest.raises(BackendError):
                    for _ in range(4):
                        await backend.predict(query_points)
                assert backend.owner.alive is False
                assert backend.alive_workers == 1
                assert backend.parallelism == 1
                # ...after which routing skips it and reads still work...
                labels, _, _ = await backend.predict(query_points)
                # ...but the write path is gone with the owner.
                with pytest.raises(BackendError):
                    await backend.partial_update(query_points, None, None)
                return labels
            finally:
                await backend.stop()

        np.testing.assert_array_equal(asyncio.run(drive()), reference_labels)

    def test_all_workers_dead_raises(self, artifact_dir, query_points):
        async def drive():
            backend = WorkerPoolBackend(artifact_dir, n_workers=1)
            await backend.start()
            try:
                for handle in backend._handles:
                    handle.alive = False
                with pytest.raises(BackendError, match="no live workers"):
                    await backend.predict(query_points)
            finally:
                for handle in backend._handles:
                    handle.alive = True
                await backend.stop()

        asyncio.run(drive())

    def test_boot_failure_surfaces_as_backend_error(self, tmp_path):
        async def drive():
            backend = WorkerPoolBackend(tmp_path / "missing", n_workers=1)
            try:
                with pytest.raises(BackendError, match="failed to boot"):
                    await backend.start()
            finally:
                await backend.stop()

        asyncio.run(drive())
