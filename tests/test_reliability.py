"""The reliability layer: atomic writes, integrity checks, fault injection.

Covers the durability contract end to end: checksum primitives, the
temp + fsync + rename write path (including kill-at-every-write-syscall
via seeded fault plans), seeded corruption fuzzing over every durable
payload, checkpoint generation rollback, the fault-tolerant process
executor, and the chaos scenario's plumbing.
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.reliability import (
    CHECKSUM_KEY,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    IntegrityError,
    TEMP_MARKER,
    active,
    array_checksum,
    atomic_write_bytes,
    atomic_write_dir,
    atomic_write_json,
    checksum_arrays,
    read_json,
    remove_stale_temps,
    require_key,
    stamp_checksum,
    verify_array_checksums,
    verify_stamp,
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
