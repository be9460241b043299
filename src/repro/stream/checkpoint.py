"""Checkpoint / restore for the streaming engine.

A checkpoint directory holds *generations* plus a commit pointer::

    <checkpoint>/
        CURRENT                 # name of the committed generation (written last)
        gen-00000007/
            model/              # ModelArtifact (manifest + arrays)
            stream_state.json   # engine state, self-checksummed, written last
            stream_arrays.npz   # float buffers, checksummed in the state
        gen-00000008/

Each generation is a complete, self-contained checkpoint:

* ``model/`` — the live clustering as a standard
  :class:`~repro.serving.artifact.ModelArtifact` (the same format
  ``repro-serve`` fits, inspects and serves).  While the engine has not
  adapted (no spawn / retire / drift refresh), the artifact is produced
  by folding the updated statistics back into the *source* artifact
  (:meth:`~repro.serving.index.ProjectedClusterIndex.fold_into` +
  ``save``), preserving the original training members and labels;
  after any adaptation the current serving state is exported fresh
  (:meth:`~repro.serving.index.ProjectedClusterIndex.export_artifact`).
* ``stream_state.json`` — schema-versioned engine state: configuration,
  stable cluster ids, counters, the event log, free-form metadata (the
  CLI records the stream recipe here so ``replay`` can resume) and a
  SHA-256 checksum per array buffer.
* ``stream_arrays.npz`` — every float buffer at full precision: the
  outlier buffer, each cluster's recent window and reference
  statistics, and the running global statistics.

Durability protocol: a generation is staged in a temp directory and
renamed into place as a unit; only then is ``CURRENT`` atomically
rewritten to point at it — the single commit point.  A kill anywhere
mid-save leaves ``CURRENT`` on the previous generation, so a restored
engine resumes bit-identically from the last *committed* batch
boundary.  :func:`load_checkpoint` verifies every checksum and
automatically rolls back to the newest intact generation when the
pointed-at one is damaged (raising a typed
:class:`~repro.reliability.integrity.IntegrityError` only when *no*
generation survives).  The last :data:`RETAIN_GENERATIONS` generations
are retained; older ones are pruned at save time.  Legacy flat
checkpoints (state files at the directory root, schema 1) still load.

Everything round-trips bit for bit, so a restored engine continues the
stream exactly as if it had never stopped — the streaming analogue of
:mod:`repro.bench`'s resumable run store.
"""

from __future__ import annotations

import io
import json
import shutil
import zipfile
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.reliability import (
    IntegrityError,
    TEMP_MARKER,
    atomic_write_bytes,
    atomic_write_dir,
    atomic_write_json,
    checksum_arrays,
    remove_stale_temps,
    require_key,
    verify_array_checksums,
    verify_stamp,
)
from repro.serving.artifact import load_artifact

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "repro-sspc-stream-checkpoint"
SCHEMA_VERSION = 2
MODEL_DIR = "model"
STATE_NAME = "stream_state.json"
ARRAYS_NAME = "stream_arrays.npz"
CURRENT_NAME = "CURRENT"
GENERATION_PREFIX = "gen-"
#: Committed generations kept on disk (current + rollback target).
RETAIN_GENERATIONS = 2

__all__ = [
    "CHECKPOINT_FORMAT",
    "CURRENT_NAME",
    "GENERATION_PREFIX",
    "RETAIN_GENERATIONS",
    "SCHEMA_VERSION",
    "checkpoint_metadata",
    "describe_checkpoint",
    "load_checkpoint",
    "resolve_checkpoint_dir",
    "save_checkpoint",
]


def _can_fold_into_source(engine) -> bool:
    """Whether the source artifact still matches the serving structure."""
    source = engine._source_artifact
    if engine.adapted or source is None:
        return False
    if len(source.clusters) != engine.index.n_clusters:
        return False
    for position, cluster in enumerate(source.clusters):
        served = engine.index.cluster_statistics(position)
        if not np.array_equal(cluster.dimensions, served.dimensions):
            return False
    return True


def _generation_dirs(directory: Path) -> List[Path]:
    """Committed generation directories, oldest first."""
    if not directory.is_dir():
        return []
    generations = [
        entry
        for entry in directory.iterdir()
        if entry.is_dir()
        and entry.name.startswith(GENERATION_PREFIX)
        and TEMP_MARKER not in entry.name
    ]
    return sorted(generations, key=lambda entry: entry.name)


def _generation_number(name: str) -> int:
    try:
        return int(name[len(GENERATION_PREFIX):])
    except ValueError:
        return -1


def _candidate_dirs(directory: Path) -> List[Path]:
    """Generation directories to try, in rollback order.

    The ``CURRENT``-pointed generation first (it is the committed one),
    then the remaining generations newest-first, then the directory
    root itself for legacy flat checkpoints.
    """
    candidates: List[Path] = []
    current_path = directory / CURRENT_NAME
    if current_path.is_file():
        try:
            name = current_path.read_text().strip()
        except OSError:
            name = ""
        pointed = directory / name
        if name and TEMP_MARKER not in name and pointed.is_dir():
            candidates.append(pointed)
    for generation in reversed(_generation_dirs(directory)):
        if generation not in candidates:
            candidates.append(generation)
    if (directory / STATE_NAME).is_file():
        candidates.append(directory)
    return candidates


def resolve_checkpoint_dir(path: PathLike) -> Path:
    """The committed generation directory of checkpoint ``path``.

    Follows ``CURRENT`` and falls back to the newest generation whose
    state verifies; for legacy flat checkpoints this is ``path`` itself.
    Raises :class:`FileNotFoundError` when ``path`` holds no checkpoint
    at all, :class:`IntegrityError` when every generation is damaged.
    """
    directory = Path(path)
    candidates = _candidate_dirs(directory)
    if not candidates:
        raise FileNotFoundError(
            "%s is not a stream checkpoint (missing %s)" % (directory, STATE_NAME)
        )
    problems: List[str] = []
    for candidate in candidates:
        try:
            _read_state(candidate)
            if problems:
                # A damaged newer generation was skipped: this resolve
                # is a rollback, worth surfacing in the event log.
                recorder = obs.get_recorder()
                if recorder is not None:
                    recorder.incr("reliability.rollbacks")
                    recorder.event(
                        "rollback",
                        checkpoint=str(directory),
                        resolved=candidate.name,
                        damaged=list(problems),
                    )
            return candidate
        except (IntegrityError, FileNotFoundError, OSError) as exc:
            problems.append("%s: %s" % (candidate.name, exc))
    raise IntegrityError(
        "no intact generation in checkpoint %s (%s)" % (directory, "; ".join(problems)),
        path=directory,
    )


def _prune_generations(directory: Path, *, keep: int) -> None:
    for generation in _generation_dirs(directory)[:-keep]:
        shutil.rmtree(generation, ignore_errors=True)


def save_checkpoint(engine, path: PathLike, *, metadata: Optional[Dict[str, object]] = None) -> Path:
    """Write ``engine`` as a new committed generation under ``path``.

    Crash-safe: the generation is staged and renamed into place, and the
    ``CURRENT`` pointer is rewritten (atomically) only afterwards — a
    kill at any step leaves the previous generation committed.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    remove_stale_temps(directory)

    if _can_fold_into_source(engine):
        artifact = engine.index.fold_into(engine._source_artifact)
    else:
        artifact = engine.index.export_artifact()
    # fold_into accumulates (+=) and a long-lived engine may checkpoint
    # the same source artifact repeatedly; record the absolute count.
    artifact.metadata["absorbed_points"] = (
        engine._source_absorbed_base + int(engine.index.n_points_absorbed)
    )

    arrays: Dict[str, np.ndarray] = {
        "outlier_buffer": engine.outliers.rows,
        "global_mean": engine._global_mean,
        "global_variance": engine._global_variance,
    }
    for position in range(engine.index.n_clusters):
        arrays["window_%d" % position] = engine._windows[position]
        reference = engine._references[position]
        if reference is not None:
            arrays["reference_mean_%d" % position] = reference[0]
            arrays["reference_variance_%d" % position] = reference[1]

    numbers = [_generation_number(entry.name) for entry in _generation_dirs(directory)]
    generation_name = "%s%08d" % (GENERATION_PREFIX, max(numbers, default=0) + 1)

    state = {
        "format": CHECKPOINT_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "generation": generation_name,
        "config": engine.config.to_dict(),
        "center": engine.center,
        "cluster_ids": [int(cluster_id) for cluster_id in engine.cluster_ids],
        "next_cluster_id": int(engine._next_cluster_id),
        "accepted_since_sweep": [int(count) for count in engine._accepted_since_sweep],
        "starved_sweeps": [int(count) for count in engine._starved_sweeps],
        "outliers_seen": int(engine.outliers.n_seen),
        "outliers_dropped": int(engine.outliers.n_dropped),
        "global_size": int(engine._global_size),
        "n_batches": int(engine.n_batches),
        "n_points": int(engine.n_points),
        "n_sweeps": int(engine._n_sweeps),
        "n_spawned": int(engine.n_spawned),
        "n_spawns_rejected": int(engine.n_spawns_rejected),
        "n_retired": int(engine.n_retired),
        "n_drift_refreshes": int(engine.n_drift_refreshes),
        "adapted": bool(engine.adapted),
        "events": [event.to_dict() for event in engine.events],
        "metadata": dict(metadata or {}),
        "array_checksums": checksum_arrays(arrays),
    }

    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    with atomic_write_dir(directory / generation_name) as staging:
        artifact.save(staging / MODEL_DIR)
        atomic_write_bytes(staging / ARRAYS_NAME, buffer.getvalue())
        atomic_write_json(staging / STATE_NAME, state)  # state commits the generation
    # The CURRENT rewrite is the checkpoint's single commit point.
    atomic_write_bytes(directory / CURRENT_NAME, (generation_name + "\n").encode("ascii"))
    _prune_generations(directory, keep=RETAIN_GENERATIONS)
    return directory


def _read_state(directory: Path) -> Dict[str, object]:
    state_path = directory / STATE_NAME
    if not state_path.is_file():
        raise FileNotFoundError(
            "%s is not a stream checkpoint (missing %s)" % (directory, STATE_NAME)
        )
    try:
        state = json.loads(state_path.read_text())
    except ValueError as exc:
        raise IntegrityError(
            "checkpoint state %s is not valid JSON (%s): the file is corrupt "
            "or truncated" % (state_path, exc),
            path=state_path,
        ) from exc
    if state.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            "unrecognised checkpoint format %r (expected %r)"
            % (state.get("format"), CHECKPOINT_FORMAT)
        )
    if int(state.get("schema_version", -1)) > SCHEMA_VERSION:
        raise ValueError(
            "checkpoint schema_version %r is newer than this library supports (%d)"
            % (state.get("schema_version"), SCHEMA_VERSION)
        )
    # Schema >= 2 states are self-checksummed; schema-1 (legacy flat
    # layout) states carry no stamp and are accepted unverified.
    verify_stamp(state, path=state_path)
    return state


def _read_arrays(arrays_path: Path, state: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Every buffer of ``stream_arrays.npz``, verified against ``state``'s checksums."""
    if not arrays_path.is_file():
        raise FileNotFoundError("checkpoint arrays file %s is missing" % arrays_path)
    try:
        with np.load(arrays_path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
        raise IntegrityError(
            "checkpoint arrays %s are unreadable (%s): the file is corrupt "
            "or truncated" % (arrays_path, exc),
            path=arrays_path,
        ) from exc
    verify_array_checksums(arrays, state.get("array_checksums") or {}, path=arrays_path)
    return arrays


def checkpoint_metadata(path: PathLike) -> Dict[str, object]:
    """Just the free-form metadata of a checkpoint (one small JSON read).

    The ``replay`` CLI fetches the recorded stream recipe through this
    instead of :func:`describe_checkpoint`, which re-reads the whole
    model artifact and array bundle.
    """
    return dict(_read_state(resolve_checkpoint_dir(path)).get("metadata", {}))


def describe_checkpoint(path: PathLike) -> Dict[str, object]:
    """Human-readable checkpoint summary (the ``inspect`` CLI payload)."""
    directory = Path(path)
    generation = resolve_checkpoint_dir(directory)
    state = _read_state(generation)
    artifact = load_artifact(generation / MODEL_DIR)
    arrays_path = generation / ARRAYS_NAME
    arrays = _read_arrays(arrays_path, state)
    outlier_buffer = require_key(
        arrays, "outlier_buffer", path=arrays_path, kind="checkpoint arrays"
    )
    return {
        "format": CHECKPOINT_FORMAT,
        "schema_version": int(state["schema_version"]),
        "generation": generation.name if generation != directory else "legacy",
        "n_batches": int(state["n_batches"]),
        "n_points": int(state["n_points"]),
        "cluster_ids": list(state["cluster_ids"]),
        "n_spawned": int(state["n_spawned"]),
        "n_retired": int(state["n_retired"]),
        "n_drift_refreshes": int(state["n_drift_refreshes"]),
        "adapted": bool(state["adapted"]),
        "outliers_buffered": int(outlier_buffer.shape[0]),
        "events": list(state["events"]),
        "config": dict(state["config"]),
        "metadata": dict(state.get("metadata", {})),
        "model": artifact.describe(),
    }


def load_checkpoint(path: PathLike, *, config=None):
    """Rebuild a :class:`~repro.stream.engine.StreamingSSPC` from ``path``.

    Tries the committed generation first and automatically rolls back
    to the newest intact one when it fails verification (corruption,
    torn write, half-deleted directory), so restore after a mid-write
    kill resumes from the last committed batch boundary.  Raises
    :class:`IntegrityError` naming every damaged generation when none
    survives.  The restored engine records which generation it came
    from in ``engine.restored_from``.

    ``config`` overrides the checkpointed :class:`StreamConfig` (e.g. to
    change adaptation knobs mid-stream); buffers sized by the old config
    are re-bounded under the new one.
    """
    directory = Path(path)
    candidates = _candidate_dirs(directory)
    if not candidates:
        raise FileNotFoundError(
            "%s is not a stream checkpoint (missing %s)" % (directory, STATE_NAME)
        )
    problems: List[str] = []
    for candidate in candidates:
        try:
            engine = _load_generation(candidate, config=config)
        except (IntegrityError, FileNotFoundError, OSError) as exc:
            problems.append("%s: %s" % (candidate.name, exc))
            continue
        engine.restored_from = str(candidate)
        return engine
    raise IntegrityError(
        "no intact generation in checkpoint %s (%s)" % (directory, "; ".join(problems)),
        path=directory,
    )


def _load_generation(directory: Path, *, config=None):
    """Restore one generation directory, verifying every checksum."""
    from repro.stream.engine import StreamConfig, StreamEvent, StreamingSSPC

    state = _read_state(directory)
    state_path = directory / STATE_NAME

    def _field(key):
        return require_key(state, key, path=state_path, kind="checkpoint state")

    artifact = load_artifact(directory / MODEL_DIR)
    engine_config = config if config is not None else StreamConfig.from_dict(_field("config"))
    engine = StreamingSSPC(artifact, config=engine_config, center=str(_field("center")))

    arrays_path = directory / ARRAYS_NAME
    arrays = _read_arrays(arrays_path, state)

    def _array(key):
        return require_key(arrays, key, path=arrays_path, kind="checkpoint arrays")

    cluster_ids = [int(cluster_id) for cluster_id in _field("cluster_ids")]
    if len(cluster_ids) != engine.index.n_clusters:
        raise IntegrityError(
            "checkpoint state %s names %d clusters but the model holds %d"
            % (state_path, len(cluster_ids), engine.index.n_clusters),
            path=state_path,
            payload="cluster_ids",
        )
    engine.cluster_ids = cluster_ids
    engine._next_cluster_id = int(_field("next_cluster_id"))
    engine._windows = [
        _array("window_%d" % position) for position in range(engine.index.n_clusters)
    ]
    engine._references = [
        (
            (arrays["reference_mean_%d" % position], arrays["reference_variance_%d" % position])
            if "reference_mean_%d" % position in arrays
            else None
        )
        for position in range(engine.index.n_clusters)
    ]
    engine._accepted_since_sweep = [int(count) for count in _field("accepted_since_sweep")]
    engine._starved_sweeps = [int(count) for count in _field("starved_sweeps")]
    engine.outliers.extend(_array("outlier_buffer"))
    engine.outliers.n_seen = int(_field("outliers_seen"))
    engine.outliers.n_dropped = int(_field("outliers_dropped"))
    engine._global_size = int(_field("global_size"))
    engine._global_mean = _array("global_mean")
    engine._global_variance = _array("global_variance")
    engine.n_batches = int(_field("n_batches"))
    engine.n_points = int(_field("n_points"))
    engine._n_sweeps = int(_field("n_sweeps"))
    engine.n_spawned = int(_field("n_spawned"))
    engine.n_spawns_rejected = int(state.get("n_spawns_rejected", 0))
    engine.n_retired = int(_field("n_retired"))
    engine.n_drift_refreshes = int(_field("n_drift_refreshes"))
    engine._adapted = bool(_field("adapted"))
    engine.events = [StreamEvent.from_dict(event) for event in _field("events")]
    return engine
