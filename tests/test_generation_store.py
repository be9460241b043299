"""The generation store shared by stream checkpoints and the daemon's ``state_dir``.

Naming by number, pruning of a directory an older daemon filled, the
strict ``current()`` replicas follow, and the daemon's commit through
the store: no freeing call per update once the spare exists, and crash
safety at every write-path operation of a commit.
"""

from __future__ import annotations

import asyncio
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.reliability import (
    FaultPlan,
    FaultSpec,
    GenerationStore,
    active,
    atomic_write_bytes,
)
from repro.reliability.atomic import SPARE_SUFFIX
from repro.reliability.generations import CURRENT_NAME, SPARE_NAME
from repro.serving.artifact import MODEL_DIR, load_artifact
from repro.serving.index import ProjectedClusterIndex
from tests.test_checkpoint_recycling import _FreeingCalls
from tests.test_server_app import request, running_server


def _commit(store, content=b"v"):
    with store.commit() as (generation, staging):
        atomic_write_bytes(staging / "payload.bin", content)
    return generation


def _entries(directory):
    return sorted(path.name for path in directory.iterdir())


class TestNaming:
    def test_generations_are_ordered_by_number_not_by_name(self, tmp_path):
        for name in ("gen-000050", "gen-00000009", "gen-abc", "gen-00000010.tmp-1-2"):
            (tmp_path / name).mkdir()
        (tmp_path / "gen-00000011").write_bytes(b"a file, not a generation")
        store = GenerationStore(tmp_path)
        assert [p.name for p in store.generations()] == ["gen-00000009", "gen-000050"]
        assert _commit(store).name == "gen-00000051"
        assert (tmp_path / CURRENT_NAME).read_bytes() == b"gen-00000051\n"
        # The temp debris is swept, the oldest generation retired to the
        # spare; the file and the junk name are not generations.
        assert _entries(tmp_path) == sorted(
            [CURRENT_NAME, "gen-000050", "gen-00000051", "gen-00000011", "gen-abc", SPARE_NAME]
        )

    def test_a_directory_an_older_daemon_filled_is_pruned_on_its_first_commit(self, tmp_path):
        # The older layout: gen-%06d directories holding the artifact files
        # at their root, and CURRENT without a newline.
        for number in range(1, 6):
            legacy = tmp_path / ("gen-%06d" % number)
            legacy.mkdir()
            for name in ("manifest.json", "arrays.npz"):
                (legacy / name).write_bytes(b"old %d" % number)
        (tmp_path / CURRENT_NAME).write_bytes(b"gen-000005")
        store = GenerationStore(tmp_path)
        _commit(store)
        assert _entries(tmp_path) == sorted(
            [CURRENT_NAME, CURRENT_NAME + SPARE_SUFFIX, "gen-000005", "gen-00000006"]
        )
        for number in range(7, 10):
            _commit(store, b"v%d" % number)
        assert _entries(tmp_path) == [
            CURRENT_NAME, CURRENT_NAME + SPARE_SUFFIX, "gen-00000008", "gen-00000009",
            SPARE_NAME,
        ]
        # No generation was staged in an older one: none keeps its files.
        for directory in ("gen-00000008", "gen-00000009", SPARE_NAME):
            assert _entries(tmp_path / directory) == ["payload.bin"]

    def test_current_is_exactly_the_committed_generation(self, tmp_path):
        store = GenerationStore(tmp_path / "state")
        with pytest.raises(FileNotFoundError):
            store.current()
        for _ in range(3):
            generation = _commit(store)
        assert store.current() == generation
        # No rollback: a reader following the writer must not fall back.
        shutil.rmtree(generation)
        with pytest.raises(FileNotFoundError):
            store.current()

    def test_an_undecodable_current_counts_as_no_pointer(self, tmp_path):
        store = GenerationStore(tmp_path / "state")
        older, newest = _commit(store, b"old"), _commit(store, b"new")
        (store.root / CURRENT_NAME).write_bytes(b"gen-0000\xff002\n")
        with pytest.raises(FileNotFoundError):
            store.current()
        # load falls back to the newest intact generation, newest first.
        seen = []

        def read(generation):
            seen.append(generation)
            return (generation / "payload.bin").read_bytes()

        assert store.load(read) == (newest, b"new")
        assert seen == [newest] and older.is_dir()


# ---------------------------------------------------------------------------
# the daemon's commits
# ---------------------------------------------------------------------------


def _batches(count, seed=0):
    return np.random.default_rng(seed).normal(size=(count, 5, 40))


async def _post_updates(artifact, state_dir, batches):
    """Boot an in-process daemon on ``state_dir`` and post each batch."""
    statuses = []
    async with running_server(artifact, state_dir=str(state_dir)) as (server, host, port):
        for batch in batches:
            status, _ = await request(
                host, port, "POST", "/partial_update", {"points": batch.tolist()}
            )
            statuses.append(status)
    return statuses


def test_an_update_frees_nothing_once_the_spare_exists(artifact_on_disk, tmp_path, monkeypatch):
    state_dir = tmp_path / "state"
    freeing = _FreeingCalls(monkeypatch)

    async def drive():
        async with running_server(
            artifact_on_disk, state_dir=str(state_dir)
        ) as (server, host, port):
            for number, batch in enumerate(_batches(8), 1):
                inodes = {p.stat().st_ino for p in state_dir.rglob("*")}
                freeing.calls.clear()
                status, update = await request(
                    host, port, "POST", "/partial_update", {"points": batch.tolist()}
                )
                assert status == 200, update
                if number >= 4:
                    assert freeing.calls == [], "update %d freed %s" % (number, freeing.calls)
                    assert {p.stat().st_ino for p in state_dir.rglob("*")} == inodes

    asyncio.run(drive())


def test_a_crash_at_every_op_of_a_commit_keeps_old_or_new(artifact_on_disk, tmp_path):
    batches = _batches(5, seed=1)
    base = tmp_path / "base"
    assert asyncio.run(_post_updates(artifact_on_disk, base, batches[:3])) == [200] * 3
    assert (base / SPARE_NAME).is_dir()
    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    plan = FaultPlan()
    with active(plan):
        assert asyncio.run(_post_updates(artifact_on_disk, probe, batches[3:4])) == [200]
    trace = plan.operations
    names = [(op, Path(path).name) for op, path in trace]
    commit = names.index(("rename", CURRENT_NAME))
    assert [op for op, _ in trace].count("write") == 3  # two model files and the pointer

    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    reference.partial_update(batches[4])
    query = np.random.default_rng(2).normal(size=(30, 40))
    cases = [(position, "crash") for position in range(len(trace))]
    cases += [(position, "torn") for position, (op, _) in enumerate(trace) if op == "write"]
    for position, kind in cases:
        op = trace[position][0]
        occurrence = sum(1 for other, _ in trace[:position] if other == op)
        target = tmp_path / ("crash-%d-%s" % (position, kind))
        shutil.copytree(base, target)
        plan = FaultPlan(specs=[FaultSpec(op=op, index=occurrence, kind=kind, after_bytes=7)])
        with active(plan):
            statuses = asyncio.run(_post_updates(artifact_on_disk, target, batches[3:4]))
        # A failed commit is a backend failure: 503, as from a pool owner.
        assert plan.fired and statuses == [503], (position, kind, statuses)
        committed = "gen-00000004" if position > commit else "gen-00000003"
        assert (target / CURRENT_NAME).read_bytes() == committed.encode() + b"\n"
        # The daemon restarts on the same state_dir; its next update commits.
        assert asyncio.run(_post_updates(artifact_on_disk, target, batches[4:])) == [200]
        store = GenerationStore(target)
        current = store.current()
        assert current == store.generations()[-1] and current.name > committed
        assert _entries(target) == sorted(
            [CURRENT_NAME, CURRENT_NAME + SPARE_SUFFIX, SPARE_NAME]
            + [generation.name for generation in store.generations()]
        ), (position, kind)
        assert len(store.generations()) == 2
        served = ProjectedClusterIndex(load_artifact(current / MODEL_DIR))
        np.testing.assert_array_equal(served.predict(query), reference.predict(query))
