"""Checkpoints that free nothing: staged in-place writes, the recycled
spare generation and the pointer flip that keeps its replaced inode.

A checkpoint that deletes its retired generation pays for every freed
inode and block on a filesystem that discards them online.  These tests
pin the protocol that avoids it: the on-disk layout and content, zero
freeing calls in steady state, recycled files that never get shorter
(and the memory their padding costs), crash safety at every write-path
operation of a recycling save and of a pointer flip, and restore across
checkpoints written with and without a spare.
"""

from __future__ import annotations

import builtins
import mmap
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.bench.chaos import engine_fingerprint
from repro.core.sspc import SSPC
from repro.data.streams import DriftingStreamGenerator, make_drift_schedule
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


def _buffered_engine(fitted_sspc, rows):
    """An engine whose outlier buffer holds ``rows`` rows, which sets its state size."""
    artifact = fitted_sspc.to_artifact()
    engine = StreamingSSPC(artifact, config=StreamConfig(seed=7, outlier_buffer_size=8192))
    engine.outliers.extend(np.random.default_rng(rows).normal(size=(rows, artifact.n_dimensions)))
    return engine


def _file_stats(checkpoint):
    """``(st_size, st_blocks)`` of every file under ``checkpoint``, by inode."""
    stats = [path.stat() for path in checkpoint.rglob("*") if path.is_file()]
    return {stat.st_ino: (stat.st_size, stat.st_blocks) for stat in stats}


def _generation_bytes(checkpoint):
    files = resolve_checkpoint_dir(checkpoint).rglob("*")
    return sum(path.stat().st_size for path in files if path.is_file())


@pytest.fixture(scope="module")
def drifting_stream():
    """A model fitted on a stream's warmup, and that stream's drifting batches."""
    stream = DriftingStreamGenerator(
        n_dimensions=24,
        n_clusters=3,
        avg_cluster_dimensionality=5,
        outlier_fraction=0.05,
        events=make_drift_schedule("mixed", drift_batch=4),
        random_state=11,
    )
    warmup = stream.warmup(360)
    model = SSPC(3, random_state=11).fit(warmup.data)
    return model.to_artifact(), [batch.data for batch in stream.batches(14, 60)]


class TestRecycledFilesNeverShrink:
    """From the first recycling save on, a checkpoint frees no block."""

    def _save_and_check(self, engine, checkpoint, number, history):
        engine.checkpoint(checkpoint)
        # Every restore is the engine saved last, padding or not.
        assert engine_fingerprint(StreamingSSPC.restore(checkpoint)) == engine_fingerprint(engine)
        stats = _file_stats(checkpoint)
        if number >= FIRST_RECYCLING_SAVE:
            before = history[-1]
            assert set(stats) == set(before), "save %d created or freed an inode" % number
            shrunk = {
                inode: (before[inode], now)
                for inode, now in stats.items()
                if now[0] < before[inode][0] or now[1] < before[inode][1]
            }
            assert not shrunk, "save %d shrank %s" % (number, shrunk)
        history.append(stats)

    def test_alternating_state_sizes_free_no_block(self, fitted_sspc, tmp_path):
        engines = [_buffered_engine(fitted_sspc, 150), _buffered_engine(fitted_sspc, 2000)]
        checkpoint, history = tmp_path / "ck", []
        for number in range(1, FIRST_RECYCLING_SAVE + 10):
            self._save_and_check(engines[number % 2], checkpoint, number, history)
        # Once each of the generations and the spare has held the larger
        # state, no file's length changes again.
        settled = 2 * (RETAIN_GENERATIONS + 1)
        assert all(stats == history[settled] for stats in history[settled:])
        # No file exceeds its largest payload plus one padding member.
        largest = {}
        for rows in (150, 2000):
            fresh = tmp_path / ("fresh-%d" % rows)
            _buffered_engine(fitted_sspc, rows).checkpoint(fresh)
            generation = resolve_checkpoint_dir(fresh)
            for path in generation.rglob("*"):
                if path.is_file():
                    name = str(path.relative_to(generation))
                    largest[name] = max(largest.get(name, 0), path.stat().st_size)
        for generation in [resolve_checkpoint_dir(checkpoint), checkpoint / SPARE_NAME]:
            for name, length in largest.items():
                limit = length + (256 if name.endswith(".npz") else 0)
                assert (generation / name).stat().st_size <= limit, name

    def test_a_drifting_stream_frees_no_block(self, drifting_stream, tmp_path):
        artifact, batches = drifting_stream
        engine = StreamingSSPC(
            artifact,
            config=StreamConfig(
                seed=3,
                lifecycle_every=2,
                drift_check_every=2,
                spawn_min_points=16,
                outlier_buffer_size=300,
            ),
        )
        checkpoint, history = tmp_path / "ck", []
        for number, batch in enumerate(batches, 1):
            engine.process_batch(batch)
            self._save_and_check(engine, checkpoint, number, history)
        # Spawns and a retire reshape the exported model between saves.
        assert engine.n_spawned > 0 and engine.n_retired > 0

    def test_padding_holds_no_second_copy_of_the_bundle(self, fitted_sspc, tmp_path):
        big, small = _buffered_engine(fitted_sspc, 8000), _buffered_engine(fitted_sspc, 100)
        checkpoint = tmp_path / "ck"
        for _ in range(FIRST_RECYCLING_SAVE - 1):
            big.checkpoint(checkpoint)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            small.checkpoint(checkpoint)  # recycles the big spare: ~2.5 MB of padding
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        generation_bytes = _generation_bytes(checkpoint)
        assert generation_bytes > 2_000_000
        # The padded bundle is built once, in place: one copy plus the
        # buffer's growth slack, never two.
        assert peak < 1.5 * generation_bytes, (peak, generation_bytes)

    def test_checkpoint_span_counts_the_padding(self, fitted_sspc, tmp_path):
        engines = [_buffered_engine(fitted_sspc, 2000), _buffered_engine(fitted_sspc, 150)]
        checkpoint = tmp_path / "ck"
        with obs.recording() as recorder:
            for number in range(1, FIRST_RECYCLING_SAVE + 2):
                engines[number % 2].checkpoint(checkpoint)
        spans = [s["args"] for s in recorder.spans if s["name"] == "stream.checkpoint"]
        small = tmp_path / "fresh"
        engines[1].checkpoint(small)
        # Fresh generations are not padded; the 5th save writes the small
        # state over the spare of the 2nd (large) one.
        fresh_saves = FIRST_RECYCLING_SAVE - 1
        assert [span["pad_bytes"] for span in spans[:fresh_saves]] == [0] * fresh_saves
        assert spans[-1]["pad_bytes"] == _generation_bytes(checkpoint) - _generation_bytes(small)
        assert spans[-1]["pad_bytes"] > 0
        assert recorder.counters["reliability.pad_bytes"] == sum(s["pad_bytes"] for s in spans)


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
