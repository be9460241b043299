"""Chaos benchmark: the durability contract demonstrated under injected faults.

Three arms, each driven by seeded, replayable :class:`FaultPlan`\\ s from
:mod:`repro.reliability.faults`:

* **write-fault recovery** — a streaming engine checkpoints after every
  batch; at a seeded batch a seeded fault (torn write, crash before
  fsync/rename, ENOSPC, blocked rename) is injected into the checkpoint
  save.  The in-memory engine is then discarded — exactly what a real
  ``kill -9`` leaves — and restored from the checkpoint directory.  The
  run must finish with every batch label and the final engine
  fingerprint **bit-identical** to an uninterrupted control run.
* **corruption detection** — a committed two-generation checkpoint is
  copied aside and one seeded mutation (bit flip or truncation) is
  applied to one durable payload of the current generation (state JSON,
  array buffers, model manifest/arrays, or the ``CURRENT`` pointer).
  Restoring must either raise a typed error, roll back to the previous
  generation (fingerprint-verified), or — when the mutation hit a dead
  byte — serve the current generation unchanged.  Anything else is a
  **silent corruption**, the one outcome the reliability layer exists
  to make impossible.
* **executor fault tolerance** — a :class:`ProcessExecutor` maps over
  tasks while a fault plan SIGKILLs one worker and stalls another past
  its deadline on their first attempts; the retried run must still
  return every result in order.

Every fault position, kind and mutation offset is drawn from seeded
generators, so a failing seed replays the identical failure on any
machine.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.bench.scenario import TaskSpec
from repro.core.sspc import SSPC
from repro.data.streams import DriftingStreamGenerator
from repro.reliability import FaultPlan, FaultSpec, GenerationStore, InjectedFault, active
from repro.serving.artifact import ARRAYS_NAME as MODEL_ARRAYS_NAME
from repro.serving.artifact import MANIFEST_NAME as MODEL_MANIFEST_NAME
from repro.stream.checkpoint import ARRAYS_NAME, CURRENT_NAME, MODEL_DIR, STATE_NAME
from repro.stream.engine import StreamConfig, StreamingSSPC
from repro.utils.executor import ProcessExecutor
from repro.utils.rng import random_seed_from, spawn_rngs

_STREAM_COMMON = {
    "n_dimensions": 24,
    "n_clusters": 3,
    "cluster_dim": 5,
    "batch_size": 60,
    "n_batches": 6,
    "warmup": 360,
    "fit_iterations": 6,
    "executor_arm": True,
}

#: Per-scale configurations shared with the ``chaos`` scenario registration.
SMOKE_CONFIG = {**_STREAM_COMMON, "n_tasks": 4, "n_write_faults": 3, "n_corruptions": 3, "seed": 29}
REDUCED_CONFIG = {
    **_STREAM_COMMON,
    "batch_size": 80,
    "n_batches": 8,
    "n_tasks": 6,
    "n_write_faults": 4,
    "n_corruptions": 5,
    "seed": 29,
}
PAPER_CONFIG = {
    **_STREAM_COMMON,
    "n_dimensions": 40,
    "batch_size": 100,
    "n_batches": 10,
    "warmup": 800,
    "fit_iterations": 10,
    "n_tasks": 8,
    "n_write_faults": 6,
    "n_corruptions": 8,
    "seed": 29,
}

#: Durable payloads of the current generation the corruption arm mutates.
CORRUPTION_TARGETS = (
    STATE_NAME,
    ARRAYS_NAME,
    MODEL_DIR + "/" + MODEL_MANIFEST_NAME,
    MODEL_DIR + "/" + MODEL_ARRAYS_NAME,
    CURRENT_NAME,
)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _build_stream(params: Mapping[str, object], seed: int) -> DriftingStreamGenerator:
    return DriftingStreamGenerator(
        n_dimensions=int(params["n_dimensions"]),
        n_clusters=int(params["n_clusters"]),
        avg_cluster_dimensionality=int(params["cluster_dim"]),
        outlier_fraction=0.05,
        events=(),
        random_state=seed,
    )


def _engine_config(params: Mapping[str, object], seed: int) -> StreamConfig:
    return StreamConfig(
        seed=seed,
        lifecycle_every=4,
        drift_check_every=2,
        spawn_min_points=max(int(params["batch_size"]) // 8, 16),
    )


def engine_fingerprint(engine: StreamingSSPC) -> str:
    """A SHA-256 digest of every bit of observable engine state.

    Two engines with equal fingerprints produce identical labels on any
    future batch: counters, stable cluster ids, every per-cluster
    statistic, the running global statistics and the outlier buffer all
    enter the digest at full precision.
    """
    hasher = hashlib.sha256()

    def _update(array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        hasher.update(str(array.dtype.str).encode("ascii"))
        hasher.update(repr(tuple(array.shape)).encode("ascii"))
        hasher.update(array.tobytes())

    hasher.update(
        repr(
            (
                engine.n_batches,
                engine.n_points,
                engine.n_spawned,
                engine.n_retired,
                engine.n_drift_refreshes,
                list(engine.cluster_ids),
                engine._global_size,
                engine.outliers.n_seen,
                engine.outliers.n_dropped,
            )
        ).encode("ascii")
    )
    _update(engine._global_mean)
    _update(engine._global_variance)
    _update(engine.outliers.rows)
    for position in range(len(engine.cluster_ids)):
        stats = engine.index.cluster_statistics(position)
        hasher.update(repr(int(stats.size)).encode("ascii"))
        _update(stats.dimensions)
        _update(stats.mean)
        _update(stats.variance)
        _update(stats.median_selected)
    return hasher.hexdigest()


def _control_run(
    artifact,
    config: StreamConfig,
    batches: Sequence,
    checkpoint_dir: Path,
) -> Tuple[Dict[int, np.ndarray], Dict[int, str]]:
    """The uninterrupted reference run: labels per batch + fingerprints.

    Checkpoints twice — at the second-to-last and the last batch — so
    ``checkpoint_dir`` ends up holding two committed generations (the
    corruption arm needs a rollback target with a known fingerprint).
    """
    engine = StreamingSSPC(artifact, config=config)
    labels: Dict[int, np.ndarray] = {}
    fingerprints: Dict[int, str] = {}
    for index, batch in enumerate(batches):
        labels[index] = engine.process_batch(batch.data).labels
        if index >= len(batches) - 2:
            engine.checkpoint(checkpoint_dir)
            fingerprints[index] = engine_fingerprint(engine)
    return labels, fingerprints


def _checkpoint_trace(artifact, config: StreamConfig, batches, scratch: Path):
    """The write-path operation trace of one clean checkpoint save."""
    engine = StreamingSSPC(artifact, config=config)
    engine.process_batch(batches[0].data)
    plan = FaultPlan()
    with active(plan):
        engine.checkpoint(scratch / "probe-checkpoint")
    return list(plan.operations)


# ---------------------------------------------------------------------------
# arm 1: write-fault recovery
# ---------------------------------------------------------------------------


def _write_fault_replay(
    artifact,
    config: StreamConfig,
    batches: Sequence,
    fault_seed: int,
    checkpoint_dir: Path,
    trace,
) -> Tuple[Dict[int, np.ndarray], StreamingSSPC, Dict[str, object]]:
    """One faulted run: checkpoint per batch, crash at a seeded save, restore.

    The fault batch is drawn from ``[1, n_batches)`` so the very first
    checkpoint always commits — recovery then has a committed generation
    to land on, which is exactly the guarantee under test (a deployment
    checkpoints once before trusting the directory).
    """
    rng = np.random.default_rng(int(fault_seed))
    fault_batch = int(rng.integers(1, len(batches)))
    plan = FaultPlan.seeded(int(fault_seed), trace, n_faults=1)
    engine = StreamingSSPC(artifact, config=config)
    labels: Dict[int, np.ndarray] = {}
    injected = False
    restores = 0
    index = 0
    while index < len(batches):
        labels[index] = engine.process_batch(batches[index].data).labels
        index += 1
        try:
            if index - 1 == fault_batch and not injected:
                injected = True
                with active(plan):
                    engine.checkpoint(checkpoint_dir)
            else:
                engine.checkpoint(checkpoint_dir)
        except (InjectedFault, OSError):
            # Simulated hard kill: the in-memory engine is gone.  Restore
            # from the last *committed* generation and replay from there.
            engine = StreamingSSPC.restore(checkpoint_dir)
            restores += 1
            index = engine.n_batches
    info = {
        "fault_seed": int(fault_seed),
        "fault_batch": fault_batch,
        "fired": [spec.kind for spec in plan.fired],
        "restores": restores,
    }
    return labels, engine, info


# ---------------------------------------------------------------------------
# arm 2: corruption detection
# ---------------------------------------------------------------------------


def _corrupt_once(
    control_checkpoint: Path,
    seed: int,
    scratch: Path,
    fingerprint_previous: str,
    fingerprint_current: str,
) -> Dict[str, object]:
    """Mutate one durable payload of a checkpoint copy and classify the load.

    Outcomes: ``detected`` (typed raise), ``rolled_back`` (previous
    generation restored, fingerprint-verified), ``served_current`` (the
    mutation hit a dead byte — e.g. zip padding or the pointer's
    trailing newline — and the current generation still verifies), or
    ``silent`` (loaded state matches *neither* known fingerprint: a
    corruption that slipped through, which must never happen).
    """
    rng = np.random.default_rng(int(seed))
    target_dir = scratch / ("corruption-%d" % int(seed))
    shutil.copytree(control_checkpoint, target_dir)
    current = GenerationStore(target_dir).current()
    choice = str(CORRUPTION_TARGETS[int(rng.integers(len(CORRUPTION_TARGETS)))])
    victim = target_dir / choice if choice == CURRENT_NAME else current / choice
    data = bytearray(victim.read_bytes())
    offset = int(rng.integers(len(data)))
    if rng.integers(2) and offset > 0:
        mutation = "truncate@%d" % offset
        data = data[:offset]
    else:
        bit = int(rng.integers(8))
        data[offset] ^= 1 << bit
        mutation = "bitflip@%d.%d" % (offset, bit)
    victim.write_bytes(bytes(data))
    result = {"seed": int(seed), "target": choice, "mutation": mutation}
    try:
        engine = StreamingSSPC.restore(target_dir)
    except (ValueError, OSError) as exc:  # IntegrityError is a ValueError
        result.update(outcome="detected", detail=type(exc).__name__)
        return result
    fingerprint = engine_fingerprint(engine)
    if fingerprint == fingerprint_current:
        outcome = "served_current"
    elif fingerprint == fingerprint_previous:
        outcome = "rolled_back"
    else:
        outcome = "silent"
    result.update(outcome=outcome, detail="generation=%s" % getattr(engine, "restored_from", ""))
    return result


# ---------------------------------------------------------------------------
# arm 3: executor fault tolerance
# ---------------------------------------------------------------------------


def _executor_task(item) -> int:
    """Worker body: fire the planned fault for this task (once), then work."""
    index, latch_dir, specs = item
    plan = FaultPlan(specs=[FaultSpec(**spec) for spec in specs])
    plan.apply_task_fault(index, latch_dir)
    return int(index) * int(index)


def _executor_arm(scratch: Path) -> Dict[str, object]:
    """SIGKILL one worker, stall another past its deadline; expect all results."""
    latch_dir = scratch / "latches"
    latch_dir.mkdir(parents=True, exist_ok=True)
    specs = [
        {"op": "task", "index": 1, "kind": "sigkill"},
        {"op": "task", "index": 2, "kind": "stall", "seconds": 30.0},
    ]
    executor = ProcessExecutor(2, task_timeout=1.0, max_retries=2, retry_backoff=0.05)
    items = [(index, str(latch_dir), specs) for index in range(4)]
    expected = [index * index for index in range(4)]
    try:
        results = executor.map(_executor_task, items)
        tolerant = results == expected
        detail = "" if tolerant else "results=%r" % (results,)
    except Exception as exc:
        tolerant = False
        detail = "%s: %s" % (type(exc).__name__, exc)
    return {"tolerant": bool(tolerant), "n_faults": len(specs), "detail": detail}


# ---------------------------------------------------------------------------
# scenario plumbing: plan / execute / aggregate
# ---------------------------------------------------------------------------


def chaos_plan(config: Mapping[str, object]) -> List[TaskSpec]:
    seeds = [random_seed_from(rng) for rng in spawn_rngs(int(config["seed"]), int(config["n_tasks"]))]
    params_base = {key: value for key, value in config.items() if key not in ("seed", "n_tasks")}
    return [
        TaskSpec(name="seed-%02d" % index, params={**params_base, "seed": int(seed)})
        for index, seed in enumerate(seeds)
    ]


def chaos_execute(params: Mapping[str, object]) -> Dict[str, object]:
    seed = int(params["seed"])
    n_write_faults = int(params["n_write_faults"])
    n_corruptions = int(params["n_corruptions"])
    scratch = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        stream = _build_stream(params, seed)
        model = SSPC(
            n_clusters=int(params["n_clusters"]),
            m=0.5,
            max_iterations=int(params["fit_iterations"]),
            random_state=seed,
        ).fit(stream.warmup(int(params["warmup"])).data)
        config = _engine_config(params, seed)
        batches = list(stream.batches(int(params["n_batches"]), int(params["batch_size"])))

        # Checkpointing folds updated statistics back into the engine's
        # *source* artifact in place, so every engine gets its own fresh
        # artifact — sharing one would leak state between replays.
        control_checkpoint = scratch / "control-checkpoint"
        control_labels, fingerprints = _control_run(
            model.to_artifact(), config, batches, control_checkpoint
        )
        fingerprint_previous = fingerprints[len(batches) - 2]
        fingerprint_current = fingerprints[len(batches) - 1]
        trace = _checkpoint_trace(model.to_artifact(), config, batches, scratch)

        fault_seeds = [
            random_seed_from(rng) for rng in spawn_rngs(seed, n_write_faults + n_corruptions)
        ]

        write_faults: List[Dict[str, object]] = []
        for index, fault_seed in enumerate(fault_seeds[:n_write_faults]):
            labels, engine, info = _write_fault_replay(
                model.to_artifact(),
                config,
                batches,
                fault_seed,
                scratch / ("fault-%02d" % index),
                trace,
            )
            recovered = all(
                np.array_equal(labels[position], control_labels[position])
                for position in range(len(batches))
            ) and engine_fingerprint(engine) == fingerprint_current
            write_faults.append({**info, "recovered": bool(recovered)})

        corruptions = [
            _corrupt_once(
                control_checkpoint, fault_seed, scratch, fingerprint_previous, fingerprint_current
            )
            for fault_seed in fault_seeds[n_write_faults:]
        ]

        executor = (
            _executor_arm(scratch)
            if params.get("executor_arm", True)
            else {"tolerant": True, "n_faults": 0, "detail": "disabled"}
        )

        return {
            "seed": seed,
            "trace_length": len(trace),
            "write_faults": write_faults,
            "corruptions": corruptions,
            "executor": executor,
            "n_faults_injected": len(write_faults) + len(corruptions) + int(executor["n_faults"]),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def chaos_aggregate(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    write_runs = [entry for payload in payloads for entry in payload["write_faults"]]
    corruption_runs = [entry for payload in payloads for entry in payload["corruptions"]]
    executor_runs = [payload["executor"] for payload in payloads]

    recovered = sum(1 for entry in write_runs if entry["recovered"])
    outcome_counts: Dict[str, int] = {}
    for entry in corruption_runs:
        outcome = str(entry["outcome"])
        outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
    silent = outcome_counts.get("silent", 0)
    tolerant = sum(1 for entry in executor_runs if entry["tolerant"])
    n_injected = sum(int(payload["n_faults_injected"]) for payload in payloads)

    header = "%-10s %18s %28s %10s" % ("seed", "write recovered", "corruption outcomes", "executor")
    lines = [header, "-" * len(header)]
    for payload in payloads:
        per_seed: Dict[str, int] = {}
        for entry in payload["corruptions"]:
            outcome = str(entry["outcome"])
            per_seed[outcome] = per_seed.get(outcome, 0) + 1
        summary = ",".join("%s:%d" % item for item in sorted(per_seed.items()))
        lines.append(
            "%-10d %15d/%-2d %28s %10s"
            % (
                int(payload["seed"]),
                sum(1 for entry in payload["write_faults"] if entry["recovered"]),
                len(payload["write_faults"]),
                summary,
                "ok" if payload["executor"]["tolerant"] else "FAILED",
            )
        )
    lines.append(
        "%d faults injected: %d/%d recoveries bit-identical, %d silent corruption(s)"
        % (n_injected, recovered, len(write_runs), silent)
    )

    return {
        "metrics": {
            "recovered_bit_identical": recovered / len(write_runs) if write_runs else 1.0,
            "corruption_detection_rate": (
                1.0 - silent / len(corruption_runs) if corruption_runs else 1.0
            ),
            "silent_corruptions": float(silent),
            "executor_fault_tolerant": tolerant / len(executor_runs) if executor_runs else 1.0,
            "n_faults_injected": float(n_injected),
        },
        "table": "\n".join(lines),
        "details": {
            "corruption_outcomes": outcome_counts,
            "write_faults": write_runs,
            "corruptions": corruption_runs,
            "executor": executor_runs,
        },
    }
