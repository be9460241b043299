"""The reliability layer: atomic writes, integrity checks, fault injection.

Covers the durability contract end to end: checksum primitives, the
temp + fsync + rename write path (including kill-at-every-write-syscall
via seeded fault plans), seeded corruption fuzzing over every durable
payload, checkpoint generation rollback, the fault-tolerant process
executor, and the chaos scenario's plumbing.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest
from numpy.lib import format as npy_format

from repro.reliability import (
    CHECKSUM_KEY,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    IntegrityError,
    PADDING_KEY,
    TEMP_MARKER,
    active,
    array_checksum,
    atomic_write_bytes,
    atomic_write_dir,
    atomic_write_json,
    checksum_arrays,
    overwrite_length,
    read_bundle,
    read_json,
    remove_stale_temps,
    require_key,
    retire_dir,
    stamp_checksum,
    verify_array_checksums,
    verify_stamp,
    write_bundle,
)
from repro.utils.executor import ExecutorTaskError, ProcessExecutor, TaskFault

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# integrity primitives
# ---------------------------------------------------------------------------


class TestIntegrity:
    def test_array_checksum_covers_dtype_shape_and_bytes(self):
        base = np.arange(6, dtype=np.float64)
        assert array_checksum(base) == array_checksum(base.copy())
        assert array_checksum(base) != array_checksum(base.astype(np.float32))
        assert array_checksum(base) != array_checksum(base.reshape(2, 3))
        mutated = base.copy()
        mutated[3] += 1e-12
        assert array_checksum(base) != array_checksum(mutated)

    def test_checksum_is_layout_independent(self):
        square = np.arange(9, dtype=np.float64).reshape(3, 3)
        assert array_checksum(square) == array_checksum(np.asfortranarray(square))

    def test_checksum_hashes_the_buffer_without_copying_it(self, tmp_path):
        """Same digest as hashing ``.tobytes()``, with no copy of the array."""

        def copying_checksum(array):
            array = np.asarray(array)
            digest = hashlib.sha256()
            digest.update(str(array.dtype.str).encode("ascii"))
            digest.update(repr(tuple(array.shape)).encode("ascii"))
            digest.update(np.ascontiguousarray(array).tobytes())
            return digest.hexdigest()

        base = np.random.default_rng(0).normal(size=(40, 30))
        np.save(tmp_path / "mapped.npy", base)
        cases = [
            base,
            (base * 100).astype(np.int64),
            (base * 100).astype(np.int32),
            base > 0,
            (base * 10).astype(np.uint8),
            np.array(3.5),
            np.array(True),
            np.empty((0, 3)),
            base.T,
            base[::3, 1::2],
            np.load(tmp_path / "mapped.npy", mmap_mode="r"),
        ]
        for array in cases:
            assert array_checksum(array) == copying_checksum(array)

        large = np.ones(2_600_000 // 8)
        tracemalloc.start()
        try:
            array_checksum(large)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_verify_names_the_damaged_array(self):
        arrays = {"good": np.ones(3), "bad": np.zeros(3)}
        checksums = checksum_arrays(arrays)
        arrays["bad"][1] = 7.0
        with pytest.raises(IntegrityError, match="bad") as excinfo:
            verify_array_checksums(arrays, checksums, path="store")
        assert excinfo.value.payload == "bad"
        assert excinfo.value.path == "store"

    def test_verify_flags_recorded_array_gone_missing(self):
        checksums = checksum_arrays({"orphan": np.ones(2)})
        with pytest.raises(IntegrityError, match="orphan"):
            verify_array_checksums({}, checksums, path="store")
        # The reverse — an extra array with no recorded checksum — is a
        # legacy payload and verifies trivially.
        verify_array_checksums({"extra": np.ones(2)}, {}, path="store")

    def test_stamp_round_trip_and_tamper_detection(self):
        payload = stamp_checksum({"a": 1, "nested": {"b": [1, 2]}})
        assert CHECKSUM_KEY in payload
        assert verify_stamp(dict(payload), path="p") is True
        tampered = dict(payload)
        tampered["a"] = 2
        with pytest.raises(IntegrityError):
            verify_stamp(tampered, path="p")

    def test_unstamped_payload_is_legacy_accepted(self):
        assert verify_stamp({"a": 1}, path="p") is False

    def test_require_key_names_path_and_key(self):
        assert require_key({"k": 5}, "k", path="f", kind="field") == 5
        with pytest.raises(IntegrityError, match="missing"):
            require_key({}, "k", path="f", kind="field")


# ---------------------------------------------------------------------------
# atomic write path
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    def test_json_round_trip_strips_the_stamp(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_json(target, {"x": 1})
        on_disk = json.loads(target.read_text())
        assert CHECKSUM_KEY in on_disk
        assert read_json(target) == {"x": 1}

    def test_unparsable_json_raises_integrity_error(self, tmp_path):
        target = tmp_path / "broken.json"
        atomic_write_bytes(target, b"{not json")
        with pytest.raises(IntegrityError):
            read_json(target)

    def test_undecodable_json_raises_integrity_error(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_json(target, {"name": "value"})
        raw = bytearray(target.read_bytes())
        raw[raw.index(b"value")] = 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="payload.json"):
            read_json(target)

    def test_failed_write_leaves_no_temp_debris(self, tmp_path):
        target = tmp_path / "out.bin"
        plan = FaultPlan(specs=[FaultSpec(op="write", index=0, kind="enospc", after_bytes=2)])
        with active(plan):
            with pytest.raises(OSError):
                atomic_write_bytes(target, b"payload")
        assert not target.exists()
        # ENOSPC is an *orderly* failure: the temp file is cleaned up.
        assert remove_stale_temps(tmp_path) == 0

    def test_injected_crash_leaves_debris_for_recovery_sweep(self, tmp_path):
        target = tmp_path / "out.bin"
        plan = FaultPlan(specs=[FaultSpec(op="write", index=0, kind="torn", after_bytes=3)])
        with active(plan):
            with pytest.raises(InjectedCrash):
                atomic_write_bytes(target, b"payload")
        assert not target.exists()
        debris = [p for p in tmp_path.iterdir() if TEMP_MARKER in p.name]
        assert debris, "a simulated kill must leave the partial temp file behind"
        assert remove_stale_temps(tmp_path) == len(debris)
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_dir_commits_as_a_unit(self, tmp_path):
        target = tmp_path / "bundle"
        with atomic_write_dir(target) as staging:
            atomic_write_bytes(staging / "a.bin", b"a")
            atomic_write_bytes(staging / "b.bin", b"b")
            assert not target.exists()  # nothing visible before the rename
        assert (target / "a.bin").read_bytes() == b"a"
        assert (target / "b.bin").read_bytes() == b"b"

    def test_atomic_write_dir_replaces_previous_content_atomically(self, tmp_path):
        target = tmp_path / "bundle"
        with atomic_write_dir(target) as staging:
            atomic_write_bytes(staging / "v.bin", b"one")
        with atomic_write_dir(target) as staging:
            atomic_write_bytes(staging / "v.bin", b"two")
        assert (target / "v.bin").read_bytes() == b"two"

    def test_atomic_write_dir_failure_keeps_previous_content(self, tmp_path):
        target = tmp_path / "bundle"
        with atomic_write_dir(target) as staging:
            atomic_write_bytes(staging / "v.bin", b"one")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write_dir(target) as staging:
                atomic_write_bytes(staging / "v.bin", b"two")
                raise RuntimeError("boom")
        assert (target / "v.bin").read_bytes() == b"one"


# ---------------------------------------------------------------------------
# padding: a file rewritten in place under a recycled directory never shrinks
# ---------------------------------------------------------------------------


def _recycled_write(tmp_path, write, first, second, name="payload"):
    """``second`` written in place over ``first`` under a recycled directory.

    Returns the rewritten file and what ``write`` returned for it.
    """
    spare = tmp_path / "spare"
    with atomic_write_dir(spare) as staging:
        write(staging / name, first)
    with atomic_write_dir(tmp_path / "live", recycle=spare) as staging:
        result = write(staging / name, second)
    return tmp_path / "live" / name, result


def _fresh_length(tmp_path, write, payload):
    path = tmp_path / "fresh"
    write(path, payload)
    length = path.stat().st_size
    path.unlink()
    return length


def _padding_zeros(path):
    """Offset and length of the zeros in the bundle's padding member."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(PADDING_KEY + ".npy")
    with open(path, "rb") as handle:
        handle.seek(info.header_offset + 26)
        name_length, extra_length = struct.unpack("<HH", handle.read(4))
        handle.seek(info.header_offset + 30 + name_length + extra_length)
        npy_format.read_magic(handle)
        npy_format.read_array_header_1_0(handle)
        start = handle.tell()
    return start, info.header_offset + 30 + name_length + extra_length + info.file_size - start


class TestPadding:
    LONG = {"a": np.arange(4000.0), "b": np.ones((3, 3))}
    SHORT = {"a": np.arange(10.0), "b": np.ones((3, 3)), "c": np.array([], dtype=np.int64)}

    def _assert_reads(self, path, checksums, expected):
        for mode in (None, "r", "c"):
            arrays = read_bundle(path, checksums, kind="test arrays", mmap_mode=mode)
            assert sorted(arrays) == sorted(expected), mode
            for name, array in expected.items():
                assert arrays[name].dtype == array.dtype
                np.testing.assert_array_equal(arrays[name], array)

    def test_overwrite_length_counts_only_a_staged_single_link_file(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"x" * 10)
        assert overwrite_length(tmp_path / "plain") == 0  # replaced, not overwritten
        with atomic_write_dir(tmp_path / "spare") as staging:
            atomic_write_bytes(staging / "single", b"y" * 20)
            atomic_write_bytes(staging / "linked", b"z" * 30)
        os.link(tmp_path / "spare" / "linked", tmp_path / "backup")
        with atomic_write_dir(tmp_path / "live", recycle=tmp_path / "spare") as staging:
            assert overwrite_length(staging / "single") == 20
            assert overwrite_length(staging / "linked") == 0
            assert overwrite_length(staging / "missing") == 0

    def test_padded_bundle_keeps_its_length_and_reads_the_same(self, tmp_path):
        path, checksums = _recycled_write(tmp_path, write_bundle, self.LONG, self.SHORT)
        assert path.stat().st_size == _fresh_length(tmp_path, write_bundle, self.LONG)
        with zipfile.ZipFile(path) as archive:
            assert PADDING_KEY + ".npy" in archive.namelist()
        self._assert_reads(path, checksums, self.SHORT)
        assert PADDING_KEY not in checksums

    def test_unpadded_bundle_reads_unchanged(self, tmp_path):
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, **self.SHORT)  # what a writer without padding leaves
        self._assert_reads(legacy, checksum_arrays(self.SHORT), self.SHORT)
        fresh = tmp_path / "fresh.npz"
        checksums = write_bundle(fresh, self.SHORT)
        assert fresh.stat().st_size == legacy.stat().st_size
        with zipfile.ZipFile(fresh) as archive:
            assert sorted(archive.namelist()) == ["a.npy", "b.npy", "c.npy"]
        self._assert_reads(fresh, checksums, self.SHORT)

    def test_reserved_name_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_bundle(tmp_path / "x.npz", {PADDING_KEY: np.zeros(3), "a": np.ones(2)})
        assert not (tmp_path / "x.npz").exists()

    def test_a_flipped_padding_byte_changes_nothing(self, tmp_path):
        path, checksums = _recycled_write(tmp_path, write_bundle, self.LONG, self.SHORT)
        start, length = _padding_zeros(path)
        assert length > 0
        data = bytearray(path.read_bytes())
        for offset in (start, start + length // 2, start + length - 1):
            data[offset] ^= 0x40
        path.write_bytes(bytes(data))
        self._assert_reads(path, checksums, self.SHORT)

    def test_files_never_shrink_and_stop_growing(self, tmp_path):
        """A shortfall under the member's headers grows the file once or twice, then holds."""
        long, short = {"a": np.arange(100.0)}, {"a": np.arange(90.0)}
        lengths = {
            key: _fresh_length(tmp_path, write_bundle, arrays)
            for key, arrays in (("long", long), ("short", short))
        }
        spare, sizes = tmp_path / "spare", []
        with atomic_write_dir(spare) as staging:
            write_bundle(staging / "b.npz", long)
        for arrays in (short, short, long, short, long, short):
            with atomic_write_dir(tmp_path / "live", recycle=spare) as staging:
                checksums = write_bundle(staging / "b.npz", arrays)
            self._assert_reads(tmp_path / "live" / "b.npz", checksums, arrays)
            sizes.append((tmp_path / "live" / "b.npz").stat().st_size)
            retire_dir(tmp_path / "live", spare)
        overhead = sizes[0] - lengths["short"]  # the padding member's own bytes
        assert 0 < overhead < 256
        assert sizes == sorted(sizes)
        assert sizes[-1] == sizes[-2] == max(lengths.values()) + overhead

    def test_space_padded_stamped_json_passes_read_json(self, tmp_path):
        first, second = {"x": "long" * 100, "y": [1, 2]}, {"x": 1}
        path, _ = _recycled_write(tmp_path, atomic_write_json, first, second, "s.json")
        data = path.read_bytes()
        assert len(data) == _fresh_length(tmp_path, atomic_write_json, first)
        fresh = tmp_path / "fresh.json"
        atomic_write_json(fresh, second)
        assert data.rstrip(b" ") == fresh.read_bytes()
        assert data.endswith(b"\n" + b" " * (len(data) - fresh.stat().st_size))
        assert read_json(path) == second
        assert CHECKSUM_KEY in json.loads(data)


class TestKillAtEveryWriteSyscall:
    """Crash at *each* write-path operation of a save; atomicity must hold."""

    def _probe_trace(self, artifact, tmp_path):
        plan = FaultPlan()
        with active(plan):
            artifact.save(tmp_path / "probe")
        assert plan.operations, "the save path must be observable"
        return plan.operations

    def test_artifact_save_is_atomic_under_crash_at_every_op(self, fitted_sspc, tmp_path):
        from repro.serving.artifact import load_artifact

        artifact = fitted_sspc.to_artifact()
        trace = self._probe_trace(artifact, tmp_path)
        target = tmp_path / "model"
        artifact.save(target)
        baseline = load_artifact(target)
        for position, (op, _) in enumerate(trace):
            occurrence = sum(1 for other, _ in trace[:position] if other == op)
            plan = FaultPlan(specs=[FaultSpec(op=op, index=occurrence, kind="crash")])
            with active(plan):
                with pytest.raises((InjectedFault, OSError)):
                    artifact.save(target)
            assert plan.fired, "op %d (%s) never fired" % (position, op)
            # The committed artifact must load intact after every crash
            # point: either the old or the (fully) new content.
            survivor = load_artifact(target)
            np.testing.assert_array_equal(survivor.labels, baseline.labels)
            assert survivor.n_objects == baseline.n_objects


# ---------------------------------------------------------------------------
# seeded corruption fuzzing over every durable payload
# ---------------------------------------------------------------------------


def _mutate(path, seed):
    """Apply one seeded bit flip or truncation; return a description."""
    rng = np.random.default_rng(seed)
    data = bytearray(path.read_bytes())
    offset = int(rng.integers(len(data)))
    if rng.integers(2) and offset > 0:
        path.write_bytes(bytes(data[:offset]))
        return "truncate@%d" % offset
    bit = int(rng.integers(8))
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))
    return "bitflip@%d.%d" % (offset, bit)


class TestCorruptionFuzz:
    """No seeded mutation of a durable payload may alter loaded state silently."""

    @pytest.mark.parametrize("payload", ["manifest.json", "arrays.npz"])
    @pytest.mark.parametrize("seed", range(6))
    def test_artifact_mutations_never_pass_silently(self, fitted_sspc, tmp_path, payload, seed):
        from repro.serving.artifact import load_artifact

        artifact = fitted_sspc.to_artifact()
        target = tmp_path / "model"
        artifact.save(target)
        baseline = load_artifact(target)
        mutation = _mutate(target / payload, seed)
        try:
            survivor = load_artifact(target)
        except ValueError:
            return  # typed detection (IntegrityError is a ValueError)
        # The mutation hit a dead byte (zip padding etc.): loaded state
        # must be bit-identical to the original — anything else is the
        # silent corruption the checksums exist to rule out.
        np.testing.assert_array_equal(
            survivor.labels, baseline.labels, err_msg="silent corruption via %s" % mutation
        )
        for ours, theirs in zip(survivor.clusters, baseline.clusters):
            np.testing.assert_array_equal(ours.mean, theirs.mean)
            np.testing.assert_array_equal(ours.variance, theirs.variance)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_generation_checkpoint_corruption_is_typed(self, fitted_sspc, tmp_path, seed):
        """With no rollback target, corruption must raise, never half-load."""
        from repro.stream.checkpoint import ARRAYS_NAME, STATE_NAME, resolve_checkpoint_dir
        from repro.stream.engine import StreamConfig, StreamingSSPC

        rng = np.random.default_rng(seed)
        engine = StreamingSSPC(fitted_sspc.to_artifact(), config=StreamConfig(seed=7))
        engine.process_batch(rng.normal(size=(40, engine.index.n_dimensions)))
        assert engine.n_batches == 1
        checkpoint = tmp_path / ("ck-%d" % seed)
        engine.checkpoint(checkpoint)
        generation = resolve_checkpoint_dir(checkpoint)
        victim = generation / (STATE_NAME if seed % 2 else ARRAYS_NAME)
        _mutate(victim, seed)
        with pytest.raises((IntegrityError, ValueError)):
            StreamingSSPC.restore(checkpoint)

    @pytest.mark.parametrize("seed", range(4))
    def test_store_record_corruption_is_quarantined_not_skipped(self, tmp_path, seed):
        from repro.bench.scenario import SCHEMA_VERSION, TaskSpec
        from repro.bench.store import RunStore

        store = RunStore(tmp_path / "run")
        task = TaskSpec(name="t0", params={"seed": seed})
        record = {
            "schema_version": SCHEMA_VERSION,
            "scenario_id": "demo",
            "task": "t0",
            "config_hash": task.config_hash("demo"),
            "params": dict(task.params),
            "seconds": 0.1,
            "payload": {"value": 1},
        }
        path = store.write_record(record)
        assert store.load_record("demo", task) is not None
        _mutate(path, seed)
        reloaded = RunStore(tmp_path / "run")
        loaded = reloaded.load_record("demo", task)
        if loaded is not None:
            assert loaded == record  # dead-byte mutation: content intact
            assert reloaded.n_quarantined == 0
        else:
            assert reloaded.n_quarantined == 1
            entry = reloaded.quarantined[0]
            assert entry["payload"] == "demo/t0"
            assert not path.exists()  # moved aside, not silently skipped
            assert entry["quarantined_to"]


# ---------------------------------------------------------------------------
# checkpoint generations: commit point + rollback
# ---------------------------------------------------------------------------


class TestCheckpointRecovery:
    def _engine(self, fitted_sspc, seed=7):
        from repro.stream.engine import StreamConfig, StreamingSSPC

        return StreamingSSPC(fitted_sspc.to_artifact(), config=StreamConfig(seed=seed))

    def test_mid_save_kill_resumes_from_previous_generation(self, fitted_sspc, tmp_path):
        from repro.stream.engine import StreamingSSPC

        rng = np.random.default_rng(0)
        n_dim = fitted_sspc.to_artifact().n_dimensions
        batches = [rng.normal(size=(40, n_dim)) for _ in range(3)]
        engine = self._engine(fitted_sspc)
        checkpoint = tmp_path / "ck"
        engine.process_batch(batches[0])
        engine.checkpoint(checkpoint)
        engine.process_batch(batches[1])
        plan = FaultPlan(specs=[FaultSpec(op="fsync", index=1, kind="crash")])
        with active(plan):
            with pytest.raises(InjectedFault):
                engine.checkpoint(checkpoint)
        assert plan.fired
        restored = StreamingSSPC.restore(checkpoint)
        assert restored.n_batches == 1  # the last *committed* boundary
        # Continuing from the restore is bit-identical to never crashing.
        reference = self._engine(fitted_sspc)
        for batch in batches:
            expected = reference.process_batch(batch)
        for batch in batches[1:]:
            actual = restored.process_batch(batch)
        np.testing.assert_array_equal(actual.labels, expected.labels)

    def test_rollback_when_newest_generation_is_damaged(self, fitted_sspc, tmp_path):
        from repro.stream.checkpoint import ARRAYS_NAME, resolve_checkpoint_dir
        from repro.stream.engine import StreamingSSPC

        rng = np.random.default_rng(1)
        engine = self._engine(fitted_sspc)
        n_dim = engine.index.n_dimensions
        checkpoint = tmp_path / "ck"
        engine.process_batch(rng.normal(size=(40, n_dim)))
        engine.checkpoint(checkpoint)
        engine.process_batch(rng.normal(size=(40, n_dim)))
        engine.checkpoint(checkpoint)
        newest = resolve_checkpoint_dir(checkpoint)
        (newest / ARRAYS_NAME).write_bytes(b"rotten")
        restored = StreamingSSPC.restore(checkpoint)
        assert restored.n_batches == 1  # rolled back one generation

    def test_restore_counts_and_logs_its_rollback(self, fitted_sspc, tmp_path):
        from pathlib import Path

        from repro import obs
        from repro.stream.checkpoint import ARRAYS_NAME, CURRENT_NAME
        from repro.stream.engine import StreamingSSPC

        rng = np.random.default_rng(3)
        engine = self._engine(fitted_sspc)
        n_dim = engine.index.n_dimensions
        batches = [rng.normal(size=(40, n_dim)) for _ in range(4)]
        reference = self._engine(fitted_sspc)
        expected = [reference.process_batch(batch).labels for batch in batches]
        checkpoint = tmp_path / "ck"
        for batch in batches[:2]:
            engine.process_batch(batch)
            engine.checkpoint(checkpoint)
        damaged = (checkpoint / CURRENT_NAME).read_text().strip()
        (checkpoint / damaged / ARRAYS_NAME).write_bytes(b"rotten")
        with obs.recording() as recorder:
            restored = StreamingSSPC.restore(checkpoint)
        assert restored.n_batches == 1
        assert recorder.counters["reliability.rollbacks"] == 1
        events = [event for event in recorder.events if event["kind"] == "rollback"]
        assert len(events) == 1
        details = events[0]["details"]
        assert details["resolved"] == Path(restored.restored_from).name != damaged
        assert [problem.split(":")[0] for problem in details["damaged"]] == [damaged]
        for batch, labels in zip(batches[1:], expected[1:]):
            np.testing.assert_array_equal(restored.process_batch(batch).labels, labels)

    def test_generations_are_pruned(self, fitted_sspc, tmp_path):
        from repro.stream.checkpoint import GENERATION_PREFIX, RETAIN_GENERATIONS

        rng = np.random.default_rng(2)
        engine = self._engine(fitted_sspc)
        n_dim = engine.index.n_dimensions
        checkpoint = tmp_path / "ck"
        for _ in range(RETAIN_GENERATIONS + 3):
            engine.process_batch(rng.normal(size=(40, n_dim)))
            engine.checkpoint(checkpoint)
        generations = [p for p in checkpoint.iterdir() if p.name.startswith(GENERATION_PREFIX)]
        assert len(generations) == RETAIN_GENERATIONS


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    TRACE = [("write", "a"), ("fsync", "a"), ("rename", "a"), ("write", "b"), ("fsync", "b")]

    def test_seeding_is_deterministic(self):
        first = FaultPlan.seeded(11, self.TRACE, n_faults=2)
        second = FaultPlan.seeded(11, self.TRACE, n_faults=2)
        assert first.specs == second.specs
        assert FaultPlan.seeded(12, self.TRACE, n_faults=2).specs != first.specs

    def test_kinds_are_normalized_per_operation(self):
        for seed in range(40):
            plan = FaultPlan.seeded(seed, self.TRACE, n_faults=3)
            for spec in plan.specs:
                if spec.op == "fsync":
                    assert spec.kind == "crash"
                elif spec.op == "rename":
                    assert spec.kind in ("rename_blocked", "crash")
                else:
                    assert spec.kind in ("torn", "crash", "enospc")

    def test_fires_at_the_exact_occurrence(self):
        plan = FaultPlan(specs=[FaultSpec(op="write", index=1, kind="crash")])
        assert plan._observe("write", "first") is None
        assert plan._observe("fsync", "other") is None
        assert plan._observe("write", "second") is not None
        assert [spec.index for spec in plan.fired] == [1]

    def test_empty_trace_is_refused(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(1, [])

    def test_task_fault_latch_fires_once(self, tmp_path):
        plan = FaultPlan(specs=[FaultSpec(op="task", index=3, kind="stall", seconds=0.0)])
        assert plan.apply_task_fault(3, tmp_path) is True
        assert plan.apply_task_fault(3, tmp_path) is False  # latched
        assert plan.apply_task_fault(1, tmp_path) is False  # not planned


# ---------------------------------------------------------------------------
# fault-tolerant process executor
# ---------------------------------------------------------------------------


def _raise_value_error(item):
    raise ValueError("task %r is unhappy" % (item,))


def _kill_self_once(item):
    index, latch_dir = item
    plan = FaultPlan(specs=[FaultSpec(op="task", index=0, kind="sigkill")])
    plan.apply_task_fault(index, latch_dir)
    return index + 100


def _kill_if_index_one(item):
    index, latch_dir = item
    plan = FaultPlan(specs=[FaultSpec(op="task", index=1, kind="sigkill")])
    plan.apply_task_fault(index, latch_dir)
    return index + 100


def _sleep_forever(item):
    import time

    time.sleep(60.0)
    return item


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
class TestProcessExecutorFaults:
    def test_deterministic_error_yields_fault_with_original_exception(self):
        executor = ProcessExecutor(2)
        outcomes = dict(executor.imap_unordered(_raise_value_error, [1, 2]))
        assert all(isinstance(outcome, TaskFault) for outcome in outcomes.values())
        fault = outcomes[0]
        assert fault.kind == "error"
        assert isinstance(fault.error, ValueError)
        assert fault.attempts == 1

    def test_map_reraises_the_original_exception(self):
        with pytest.raises(ValueError, match="unhappy"):
            ProcessExecutor(2).map(_raise_value_error, [1])

    def test_sigkilled_worker_is_retried_and_recovers(self, tmp_path):
        executor = ProcessExecutor(2, max_retries=2, retry_backoff=0.02)
        items = [(index, str(tmp_path)) for index in range(3)]
        results = executor.map(_kill_self_once, items)
        assert results == [100, 101, 102]

    def test_crash_without_retry_budget_is_a_crash_fault(self, tmp_path):
        executor = ProcessExecutor(2, max_retries=0)
        items = [(0, str(tmp_path))]
        with pytest.raises(ExecutorTaskError, match="crash"):
            executor.map(_kill_self_once, items)

    def test_timeout_kills_and_reports(self):
        executor = ProcessExecutor(1, task_timeout=0.3, max_retries=0)
        outcomes = dict(executor.imap_unordered(_sleep_forever, ["stuck"]))
        fault = outcomes[0]
        assert isinstance(fault, TaskFault)
        assert fault.kind == "timeout"

    def test_healthy_tasks_unaffected_by_a_faulty_sibling(self, tmp_path):
        """With no retry budget, only the faulty task fails — crash isolation."""
        executor = ProcessExecutor(3, max_retries=0)
        items = [(index, str(tmp_path)) for index in range(4)]
        outcomes = dict(executor.imap_unordered(_kill_if_index_one, items))
        assert isinstance(outcomes[1], TaskFault)
        assert outcomes[1].kind == "crash"
        for index in (0, 2, 3):
            assert outcomes[index] == index + 100

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(1, task_timeout=0.0)
        with pytest.raises(ValueError):
            ProcessExecutor(1, max_retries=-1)
        with pytest.raises(ValueError):
            ProcessExecutor(1, retry_backoff=-0.5)


# ---------------------------------------------------------------------------
# durability lint + chaos plumbing
# ---------------------------------------------------------------------------


class TestDurabilityLint:
    def test_durability_paths_are_clean(self):
        import importlib.util
        from pathlib import Path

        tool = Path(__file__).resolve().parents[1] / "tools" / "check_durability.py"
        spec = importlib.util.spec_from_file_location("check_durability", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.run() == 0

    def test_lint_catches_a_bare_write(self, tmp_path):
        import importlib.util
        from pathlib import Path

        tool = Path(__file__).resolve().parents[1] / "tools" / "check_durability.py"
        spec = importlib.util.spec_from_file_location("check_durability_2", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def save(path, data):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(data)\n"
            "    path.write_bytes(b'x')\n"
        )
        violations = list(module.scan_file(bad))
        assert len(violations) == 2

    def test_lint_catches_a_freeing_call(self, tmp_path):
        import importlib.util
        from pathlib import Path

        tool = Path(__file__).resolve().parents[1] / "tools" / "check_durability.py"
        spec = importlib.util.spec_from_file_location("check_durability_4", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import os\n"
            "import shutil as sh\n"
            "from os import remove as drop\n"
            "from pathlib import Path\n"
            "def prune(path, names):\n"
            "    sh.rmtree(path)\n"
            "    os.unlink(path)\n"
            "    os.remove(path)\n"
            "    os.rmdir(path)\n"
            "    Path(path).unlink()\n"
            "    Path(path).rmdir()\n"
            "    drop(path)\n"
            "    names.remove(path)\n"
            "    os.rename(path, path)\n"
        )
        violations = list(module.scan_file(bad))
        assert [line for line, _ in violations] == [6, 7, 8, 9, 10, 11, 12]
        assert "shutil.rmtree" in violations[0][1]

    def test_lint_catches_a_truncate(self, tmp_path):
        import importlib.util
        from pathlib import Path

        tool = Path(__file__).resolve().parents[1] / "tools" / "check_durability.py"
        spec = importlib.util.spec_from_file_location("check_durability_5", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import os as system\n"
            "from os import ftruncate as cut\n"
            "def shrink(path, handle, length):\n"
            "    system.truncate(path, length)\n"
            "    system.ftruncate(handle.fileno(), length)\n"
            "    handle.truncate()\n"
            "    cut(handle.fileno(), length)\n"
            "    handle.seek(length)\n"
        )
        violations = list(module.scan_file(bad))
        assert [line for line, _ in violations] == [4, 5, 6, 7]
        assert "os.truncate" in violations[0][1] and "tail" in violations[0][1]

    def test_lint_catches_a_second_npz_writer(self, tmp_path):
        import importlib.util
        from pathlib import Path

        tool = Path(__file__).resolve().parents[1] / "tools" / "check_durability.py"
        spec = importlib.util.spec_from_file_location("check_durability_3", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "def save(path, arrays):\n"
            "    np.savez_compressed(path, **arrays)\n"
        )
        violations = list(module.scan_file(bad))
        assert [line for line, _ in violations] == [3]
        assert "savez_compressed" in violations[0][1]


class TestChaosScenario:
    def test_single_seed_durability_arms_pass(self, tmp_path):
        """A miniature chaos task: recovery + corruption arms, gated hard."""
        from repro.bench.chaos import chaos_aggregate, chaos_execute

        params = {
            "n_dimensions": 16,
            "n_clusters": 3,
            "cluster_dim": 4,
            "batch_size": 50,
            "n_batches": 4,
            "warmup": 240,
            "fit_iterations": 5,
            "n_write_faults": 1,
            "n_corruptions": 2,
            "executor_arm": False,  # covered directly above, keeps this fast
            "seed": 1234,
        }
        payload = chaos_execute(params)
        outcome = chaos_aggregate([payload])
        metrics = outcome["metrics"]
        assert metrics["recovered_bit_identical"] == 1.0
        assert metrics["silent_corruptions"] == 0.0
        assert metrics["corruption_detection_rate"] == 1.0
        assert payload["write_faults"][0]["fired"], "the planned fault must fire"

    def test_plan_is_deterministic_and_json_safe(self):
        from repro.bench import registry

        scenario = registry.get("chaos")
        first = scenario.build_tasks("smoke")
        second = scenario.build_tasks("smoke")
        assert [t.config_hash("chaos") for t in first] == [
            t.config_hash("chaos") for t in second
        ]
        for task in first:
            json.dumps(dict(task.params))
