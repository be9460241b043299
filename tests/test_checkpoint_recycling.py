"""Checkpoints that free nothing: staged in-place writes, the recycled
spare generation and the pointer flip that keeps its replaced inode.

A checkpoint that deletes its retired generation pays for every freed
inode and block on a filesystem that discards them online.  These tests
pin the protocol that avoids it: the on-disk layout and content, zero
freeing calls in steady state, crash safety at every write-path
operation of a recycling save and of a pointer flip, and restore across
checkpoints written with and without a spare.
"""

from __future__ import annotations

import builtins
import mmap
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.reliability import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    IntegrityError,
    active,
    atomic_write_bytes,
    atomic_write_dir,
    flip_pointer,
    retire_dir,
)
from repro.reliability.atomic import KEEP_SUFFIX, SPARE_SUFFIX
from repro.stream import StreamConfig, StreamingSSPC
from repro.stream.checkpoint import (
    ARRAYS_NAME,
    CURRENT_NAME,
    GENERATION_PREFIX,
    MODEL_DIR,
    RETAIN_GENERATIONS,
    SPARE_NAME,
    STATE_NAME,
    resolve_checkpoint_dir,
)

#: Checkpoints a fresh directory takes before a save recycles the spare.
FIRST_RECYCLING_SAVE = RETAIN_GENERATIONS + 2


def _engine(fitted_sspc):
    return StreamingSSPC(fitted_sspc.to_artifact(), config=StreamConfig(seed=7))


def _batches(fitted_sspc, count, seed=0):
    rng = np.random.default_rng(seed)
    n_dim = fitted_sspc.to_artifact().n_dimensions
    return [rng.normal(size=(40, n_dim)) for _ in range(count)]


def _reference_labels(fitted_sspc, batches):
    engine = _engine(fitted_sspc)
    return [engine.process_batch(batch).labels for batch in batches]


class _FreeingCalls:
    """Counts every call that frees a file or directory while installed.

    ``os.unlink`` / ``os.remove`` count only when the inode dies with the
    name (one link), and ``os.replace`` / ``os.rename`` only when they
    land on a path whose inode dies with it: a directory, or a file with
    one link.  An open that truncates an existing non-empty file frees
    its blocks and counts too.
    """

    def __init__(self, monkeypatch):
        self.calls = []
        for module, name in ((os, "rmdir"), (shutil, "rmtree")):
            monkeypatch.setattr(module, name, self._wrap(name, getattr(module, name)))
        for name in ("unlink", "remove"):
            monkeypatch.setattr(os, name, self._wrap_unlink(name, getattr(os, name)))
        for name in ("replace", "rename"):
            monkeypatch.setattr(os, name, self._wrap_rename(name, getattr(os, name)))
        monkeypatch.setattr(builtins, "open", self._wrap_open(builtins.open))
        monkeypatch.setattr(os, "open", self._wrap_os_open(os.open))

    def _truncating(self, name, path, truncates):
        if truncates and os.path.isfile(path) and os.path.getsize(path) > 0:
            self.calls.append((name, str(path)))

    def _wrap_open(self, original):
        def counted(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                self._truncating("open", file, "w" in mode)
            return original(file, mode, *args, **kwargs)

        return counted

    def _wrap_os_open(self, original):
        def counted(path, flags, *args, **kwargs):
            self._truncating("os.open", path, flags & os.O_TRUNC)
            return original(path, flags, *args, **kwargs)

        return counted

    def _wrap(self, name, original):
        def counted(path, *args, **kwargs):
            self.calls.append((name, str(path)))
            return original(path, *args, **kwargs)

        return counted

    def _wrap_unlink(self, name, original):
        def counted(path, *args, **kwargs):
            if os.lstat(path, dir_fd=kwargs.get("dir_fd")).st_nlink == 1:
                self.calls.append((name, str(path)))
            return original(path, *args, **kwargs)

        return counted

    def _wrap_rename(self, name, original):
        def counted(source, destination, *args, **kwargs):
            try:
                target = os.lstat(destination)
            except FileNotFoundError:
                target = None
            if target is not None and (os.path.isdir(destination) or target.st_nlink == 1):
                self.calls.append((name, str(destination)))
            return original(source, destination, *args, **kwargs)

        return counted


# ---------------------------------------------------------------------------
# repro.reliability.atomic: staged writes, retiring, the pointer flip
# ---------------------------------------------------------------------------


class TestStagedWrites:
    def test_recycled_directory_is_overwritten_in_place(self, tmp_path):
        target, spare = tmp_path / "gen-2", tmp_path / "spare"
        with atomic_write_dir(tmp_path / "gen-1") as staging:
            atomic_write_bytes(staging / "long.bin", b"x" * 5000)
            atomic_write_bytes(staging / "short.bin", b"y")
        retire_dir(tmp_path / "gen-1", spare)
        inodes = {name: os.stat(spare / name).st_ino for name in ("long.bin", "short.bin")}
        with atomic_write_dir(target, recycle=spare) as staging:
            atomic_write_bytes(staging / "long.bin", b"ab")
            atomic_write_bytes(staging / "short.bin", b"z" * 3000)
            assert not target.exists()
        assert not spare.exists()
        assert (target / "long.bin").read_bytes() == b"ab"  # truncated to the new length
        assert (target / "short.bin").read_bytes() == b"z" * 3000
        for name, inode in inodes.items():
            assert os.stat(target / name).st_ino == inode

    def test_a_hard_linked_copy_is_never_overwritten(self, tmp_path, monkeypatch):
        spare, backup = tmp_path / "spare", tmp_path / "backup.bin"
        with atomic_write_dir(tmp_path / "old") as staging:
            atomic_write_bytes(staging / "v.bin", b"old")
        os.link(tmp_path / "old" / "v.bin", backup)
        retire_dir(tmp_path / "old", spare)
        freeing = _FreeingCalls(monkeypatch)
        with atomic_write_dir(tmp_path / "new", recycle=spare) as staging:
            atomic_write_bytes(staging / "v.bin", b"new")
        assert (tmp_path / "new" / "v.bin").read_bytes() == b"new"
        assert backup.read_bytes() == b"old"
        pointer = tmp_path / "CURRENT"
        for content in (b"one", b"two"):
            flip_pointer(pointer, content)
        os.link(pointer, tmp_path / "CURRENT.backup")
        for content in (b"three", b"four", b"five"):
            flip_pointer(pointer, content)
        assert pointer.read_bytes() == b"five"
        assert (tmp_path / "CURRENT.backup").read_bytes() == b"two"
        assert freeing.calls == []

    def test_nested_directory_commits_with_its_parent(self, tmp_path):
        plan = FaultPlan()
        with active(plan):
            with atomic_write_dir(tmp_path / "outer") as staging:
                with atomic_write_dir(staging / "inner") as inner:
                    assert inner == staging / "inner"  # no temp sibling of its own
                    atomic_write_bytes(inner / "a.bin", b"a")
                atomic_write_bytes(staging / "b.bin", b"b")
        # One commit rename; every file is written and fsynced in place.
        assert [op for op, _ in plan.operations] == ["write", "fsync", "write", "fsync", "rename"]
        assert (tmp_path / "outer" / "inner" / "a.bin").read_bytes() == b"a"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outer"]

    def test_failure_in_a_recycled_staging_keeps_the_committed_target(self, tmp_path):
        spare = tmp_path / "spare"
        with atomic_write_dir(tmp_path / "old") as staging:
            atomic_write_bytes(staging / "v.bin", b"old")
        retire_dir(tmp_path / "old", spare)
        with atomic_write_dir(tmp_path / "live") as staging:
            atomic_write_bytes(staging / "v.bin", b"live")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write_dir(tmp_path / "live", recycle=spare) as staging:
                atomic_write_bytes(staging / "v.bin", b"new")
                raise RuntimeError("boom")
        assert (tmp_path / "live" / "v.bin").read_bytes() == b"live"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["live"]

    def test_retire_keeps_one_spare_and_deletes_the_rest(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        retire_dir(tmp_path / "a", tmp_path / "spare")
        retire_dir(tmp_path / "b", tmp_path / "spare")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spare"]


class TestFlipPointer:
    def _probe(self, tmp_path):
        """The op trace of a flip over an existing pointer with a spare."""
        probe = tmp_path / "probe"
        probe.mkdir()
        flip_pointer(probe / "CURRENT", b"one")
        flip_pointer(probe / "CURRENT", b"two")
        plan = FaultPlan()
        with active(plan):
            flip_pointer(probe / "CURRENT", b"three")
        return plan.operations

    def test_flips_alternate_two_inodes(self, tmp_path):
        pointer = tmp_path / "CURRENT"
        spare = tmp_path / ("CURRENT" + SPARE_SUFFIX)
        flip_pointer(pointer, b"gen-000001")
        flip_pointer(pointer, b"gen-000002")
        inodes = {os.stat(pointer).st_ino, os.stat(spare).st_ino}
        for number in range(3, 7):
            flip_pointer(pointer, b"gen-%06d" % number)
            assert pointer.read_bytes() == b"gen-%06d" % number
            assert {os.stat(pointer).st_ino, os.stat(spare).st_ino} == inodes
            assert os.stat(pointer).st_nlink == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["CURRENT", "CURRENT" + SPARE_SUFFIX]

    def test_crash_at_every_op_leaves_old_or_new_and_the_next_flip_recovers(self, tmp_path):
        trace = self._probe(tmp_path)
        assert [op for op, _ in trace] == ["write", "fsync", "rename", "rename"]
        for position, (op, path) in enumerate(trace):
            occurrence = sum(1 for other, _ in trace[:position] if other == op)
            directory = tmp_path / ("crash-%d" % position)
            directory.mkdir()
            pointer = directory / "CURRENT"
            flip_pointer(pointer, b"one")
            flip_pointer(pointer, b"two")
            plan = FaultPlan(specs=[FaultSpec(op=op, index=occurrence, kind="crash")])
            with active(plan):
                with pytest.raises(InjectedCrash):
                    flip_pointer(pointer, b"three")
            assert plan.fired
            committed = op == "rename" and Path(path).name != "CURRENT"
            assert pointer.read_bytes() == (b"three" if committed else b"two")
            flip_pointer(pointer, b"four")
            spare = directory / ("CURRENT" + SPARE_SUFFIX)
            assert pointer.read_bytes() == b"four"
            assert not (directory / ("CURRENT" + KEEP_SUFFIX)).exists()
            # The spare is overwritten in place next time: it must never
            # share the live pointer's inode.
            assert not os.path.samefile(pointer, spare)

    def test_blocked_rename_after_the_commit_does_not_fail_the_flip(self, tmp_path):
        pointer = tmp_path / "CURRENT"
        flip_pointer(pointer, b"one")
        flip_pointer(pointer, b"two")
        plan = FaultPlan(specs=[FaultSpec(op="rename", index=1, kind="rename_blocked")])
        with active(plan):
            flip_pointer(pointer, b"three")
        assert plan.fired and pointer.read_bytes() == b"three"
        assert (tmp_path / ("CURRENT" + KEEP_SUFFIX)).exists()
        flip_pointer(pointer, b"four")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["CURRENT", "CURRENT" + SPARE_SUFFIX]

    def test_without_hard_links_it_falls_back_to_a_replace(self, tmp_path, monkeypatch):
        def no_links(source, destination):
            raise OSError(1, "hard links not supported")

        monkeypatch.setattr(os, "link", no_links)
        pointer = tmp_path / "CURRENT"
        for content in (b"one", b"two", b"three"):
            flip_pointer(pointer, content)
            assert pointer.read_bytes() == content
        assert sorted(p.name for p in tmp_path.iterdir()) == ["CURRENT"]


# ---------------------------------------------------------------------------
# repro.stream.checkpoint: the spare generation
# ---------------------------------------------------------------------------


class TestCheckpointLayout:
    def test_two_generations_one_spare_and_the_same_files(self, fitted_sspc, tmp_path):
        engine = _engine(fitted_sspc)
        checkpoint = tmp_path / "ck"
        for batch in _batches(fitted_sspc, RETAIN_GENERATIONS + 3):
            engine.process_batch(batch)
            engine.checkpoint(checkpoint)
        generations = sorted(
            p.name for p in checkpoint.iterdir() if p.name.startswith(GENERATION_PREFIX)
        )
        assert len(generations) == RETAIN_GENERATIONS
        assert sorted(p.name for p in checkpoint.iterdir()) == sorted(
            [CURRENT_NAME, CURRENT_NAME + SPARE_SUFFIX, SPARE_NAME] + generations
        )
        # What a reader that knows only CURRENT and gen-* sees is the
        # layout of a checkpoint that deletes its retired generations.
        assert (checkpoint / CURRENT_NAME).read_bytes() == (generations[-1] + "\n").encode()
        assert resolve_checkpoint_dir(checkpoint) == checkpoint / generations[-1]
        for directory in [checkpoint / name for name in generations] + [checkpoint / SPARE_NAME]:
            assert sorted(p.name for p in directory.iterdir()) == sorted(
                [MODEL_DIR, ARRAYS_NAME, STATE_NAME]
            )
            assert sorted(p.name for p in (directory / MODEL_DIR).iterdir()) == [
                "arrays.npz",
                "manifest.json",
            ]

    def test_a_save_frees_nothing(self, fitted_sspc, tmp_path, monkeypatch):
        engine = _engine(fitted_sspc)
        checkpoint = tmp_path / "ck"
        freeing = _FreeingCalls(monkeypatch)
        for number, batch in enumerate(_batches(fitted_sspc, FIRST_RECYCLING_SAVE + 3), 1):
            engine.process_batch(batch)
            inodes = {p.stat().st_ino for p in checkpoint.rglob("*")} if number > 1 else set()
            freeing.calls.clear()
            engine.checkpoint(checkpoint)
            # A fresh directory frees nothing either; from the first
            # recycling save on, no file is even created.
            assert freeing.calls == [], "checkpoint %d freed %s" % (number, freeing.calls)
            if number >= FIRST_RECYCLING_SAVE:
                assert {p.stat().st_ino for p in checkpoint.rglob("*")} == inodes

    def test_spare_is_never_a_restore_candidate(self, fitted_sspc, tmp_path):
        engine = _engine(fitted_sspc)
        checkpoint = tmp_path / "ck"
        for batch in _batches(fitted_sspc, FIRST_RECYCLING_SAVE):
            engine.process_batch(batch)
            engine.checkpoint(checkpoint)
        for generation in checkpoint.glob(GENERATION_PREFIX + "*"):
            (generation / ARRAYS_NAME).write_bytes(b"rotten")
        with pytest.raises(IntegrityError) as excinfo:
            StreamingSSPC.restore(checkpoint)
        assert SPARE_NAME + ":" not in str(excinfo.value)


class TestRecyclingCrashSafety:
    """Crash at every write-path op of a save that recycles the spare."""

    def _committed(self, fitted_sspc, tmp_path, batches):
        engine = _engine(fitted_sspc)
        base = tmp_path / "base"
        for batch in batches[: FIRST_RECYCLING_SAVE - 1]:
            engine.process_batch(batch)
            engine.checkpoint(base)
        engine.process_batch(batches[FIRST_RECYCLING_SAVE - 1])
        assert (base / SPARE_NAME).is_dir()
        return engine, base

    def test_crash_at_every_op_restores_the_last_commit_and_continues(
        self, fitted_sspc, tmp_path
    ):
        batches = _batches(fitted_sspc, FIRST_RECYCLING_SAVE + 2, seed=3)
        expected = _reference_labels(fitted_sspc, batches)
        engine, base = self._committed(fitted_sspc, tmp_path, batches)
        probe = tmp_path / "probe"
        shutil.copytree(base, probe)
        plan = FaultPlan()
        with active(plan):
            engine.checkpoint(probe)
        trace = plan.operations
        names = [(op, Path(path).name) for op, path in trace]
        commit = names.index(("rename", CURRENT_NAME))
        assert names[-1] == ("rename", CURRENT_NAME + SPARE_SUFFIX)

        before = FIRST_RECYCLING_SAVE - 1
        cases = [(position, "crash") for position in range(len(trace))]
        cases += [(position, "torn") for position, (op, _) in enumerate(trace) if op == "write"]
        for position, kind in cases:
            op = trace[position][0]
            occurrence = sum(1 for other, _ in trace[:position] if other == op)
            target = tmp_path / ("crash-%d-%s" % (position, kind))
            shutil.copytree(base, target)
            plan = FaultPlan(specs=[FaultSpec(op=op, index=occurrence, kind=kind, after_bytes=7)])
            with active(plan):
                with pytest.raises(InjectedCrash):
                    engine.checkpoint(target)
            assert plan.fired, (position, kind)
            restored = StreamingSSPC.restore(target)
            committed = before + (1 if position > commit else 0)
            assert restored.n_batches == committed, (position, kind, names[position])
            for index in range(committed, len(batches)):
                labels = restored.process_batch(batches[index]).labels
                np.testing.assert_array_equal(labels, expected[index])
            restored.checkpoint(target)
            assert StreamingSSPC.restore(target).n_batches == len(batches)
            entries = sorted(p.name for p in target.iterdir())
            assert entries == sorted(
                [CURRENT_NAME, CURRENT_NAME + SPARE_SUFFIX, SPARE_NAME]
                + [p.name for p in target.glob(GENERATION_PREFIX + "*")]
            ), (position, kind, entries)
            assert len(list(target.glob(GENERATION_PREFIX + "*"))) == RETAIN_GENERATIONS


class TestRestoreAcrossLayouts:
    def test_restored_engine_maps_no_checkpoint_file(self, fitted_sspc, tmp_path):
        engine = _engine(fitted_sspc)
        checkpoint = tmp_path / "ck"
        for batch in _batches(fitted_sspc, FIRST_RECYCLING_SAVE):
            engine.process_batch(batch)
            engine.checkpoint(checkpoint)
        restored = StreamingSSPC.restore(checkpoint)
        # Generations past retention are overwritten in place, so a
        # mapping of one would change under the engine.
        maps = Path("/proc/self/maps")
        if maps.exists():
            assert str(checkpoint.resolve()) not in maps.read_text()
        mapped = [
            name for name, array in _reachable_arrays(restored) if _is_mapped(array)
        ]
        assert mapped == []

    def test_checkpoint_without_a_spare_restores_and_recycles(self, fitted_sspc, tmp_path):
        """The layout a writer that deletes retired generations leaves."""
        batches = _batches(fitted_sspc, 8, seed=5)
        expected = _reference_labels(fitted_sspc, batches)
        engine = _engine(fitted_sspc)
        checkpoint = tmp_path / "ck"
        for batch in batches[:4]:
            engine.process_batch(batch)
            engine.checkpoint(checkpoint)
        shutil.rmtree(checkpoint / SPARE_NAME)
        (checkpoint / (CURRENT_NAME + SPARE_SUFFIX)).unlink()
        restored = StreamingSSPC.restore(checkpoint)
        assert restored.n_batches == 4
        for index in range(4, 8):
            np.testing.assert_array_equal(
                restored.process_batch(batches[index]).labels, expected[index]
            )
            restored.checkpoint(checkpoint)
        assert (checkpoint / SPARE_NAME).is_dir()
        assert (checkpoint / (CURRENT_NAME + SPARE_SUFFIX)).is_file()
        assert StreamingSSPC.restore(checkpoint).n_batches == 8


def _reachable_arrays(root, limit=4):
    """``(path, array)`` for every ndarray reachable from ``root`` within ``limit`` hops."""
    seen, found = set(), []

    def visit(value, path, depth):
        if id(value) in seen or depth > limit:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append((path, value))
        elif isinstance(value, dict):
            for key, item in value.items():
                visit(item, "%s[%r]" % (path, key), depth + 1)
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                visit(item, "%s[%d]" % (path, index), depth + 1)
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            for key, item in vars(value).items():
                visit(item, "%s.%s" % (path, key), depth + 1)

    visit(root, "engine", 0)
    return found


def _is_mapped(array):
    while array is not None:
        if isinstance(array, (np.memmap, mmap.mmap)):
            return True
        array = getattr(array, "base", None)
    return False
