"""Checkpoint / restore for the streaming engine.

A checkpoint directory is a generation store
(:class:`~repro.reliability.generations.GenerationStore`)::

    <checkpoint>/
        CURRENT                 # name of the committed generation (written last)
        CURRENT.spare           # the previous CURRENT inode, rewritten by the next flip
        gen-00000007/
            model/              # ModelArtifact (manifest + arrays)
            stream_state.json   # engine state, self-checksummed, written last
            stream_arrays.npz   # float buffers, checksummed in the state
        gen-00000008/
        spare/                  # a retired generation, rewritten by the next save

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
  statistics, and the running global statistics.  Written and read by
  :mod:`repro.reliability.bundle`, the same array-bundle code as the
  model's ``arrays.npz``: members are stored, not deflated (zlib saves
  about 6% on these float64 buffers at several times the cost of the
  rest of the save), so the bundle can also be memory-mapped with
  :func:`~repro.reliability.bundle.mmap_npz`.  Bundles that older
  versions wrote deflated still load (eagerly).

Durability protocol: the store owns the generations — their naming,
the staged commit and the ``CURRENT`` flip (the single commit point),
:data:`RETAIN_GENERATIONS` generations plus the recycled
:data:`SPARE_NAME`, and rollback.  A kill anywhere mid-save leaves
``CURRENT`` on the previous generation, so a restored engine resumes
bit-identically from the last *committed* batch boundary.
:func:`load_checkpoint` verifies every checksum, and the store rolls
back to the newest intact generation when the pointed-at one is
damaged (raising a typed
:class:`~repro.reliability.integrity.IntegrityError` only when *no*
generation survives).  Legacy flat checkpoints (state files at the
directory root, schema 1) still load: the root is the last candidate.

A steady-state save frees no inode and no block: freeing is what a
save costs on a filesystem that discards freed blocks online.  The
store stages each save in the spare, so its files are overwritten in
place, and a file that would come out shorter than the spare's copy is
padded to its length instead of truncated: the bundles with a
zero-filled member their readers skip, the JSON files with trailing
spaces.  So no file gets shorter, and none grows past its largest
payload plus one padding member (234 bytes, for a bundle).  The layout
of every generation, and its content up to that padding, are those of
a checkpoint that deletes its retired generations, and either kind
restores the other.

Because a generation past retention is overwritten in place, files of
a running stream's checkpoint must not be memory-mapped: restore reads
every buffer eagerly, and so must any other reader that outlives the
next few saves.

Everything round-trips bit for bit, so a restored engine continues the
stream exactly as if it had never stopped — the streaming analogue of
:mod:`repro.bench`'s resumable run store.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

import numpy as np

from repro import obs
from repro.reliability import (
    GenerationStore,
    IntegrityError,
    atomic_write_json,
    read_bundle,
    require_key,
    verify_stamp,
    write_bundle,
)
from repro.reliability.generations import (
    CURRENT_NAME,
    GENERATION_PREFIX,
    RETAIN_GENERATIONS,
    SPARE_NAME,
)
from repro.serving.artifact import MODEL_DIR, ModelArtifact, load_artifact

PathLike = Union[str, Path]
T = TypeVar("T")

CHECKPOINT_FORMAT = "repro-sspc-stream-checkpoint"
SCHEMA_VERSION = 2
STATE_NAME = "stream_state.json"
ARRAYS_NAME = "stream_arrays.npz"

__all__ = [
    "CHECKPOINT_FORMAT",
    "CURRENT_NAME",
    "GENERATION_PREFIX",
    "RETAIN_GENERATIONS",
    "SCHEMA_VERSION",
    "SPARE_NAME",
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


def _resolve(path: PathLike, read: Callable[[Path], T]) -> Tuple[Path, T]:
    """``(generation, read(generation))`` for checkpoint ``path``, with rollback.

    The store's candidates, then the directory root itself for legacy
    flat checkpoints.
    """
    directory = Path(path)
    legacy = [directory] if (directory / STATE_NAME).is_file() else []
    return GenerationStore(directory).load(read, fallback=legacy)


def resolve_checkpoint_dir(path: PathLike) -> Path:
    """The committed generation directory of checkpoint ``path``.

    Follows ``CURRENT`` and falls back to the newest generation whose
    state verifies; for legacy flat checkpoints this is ``path`` itself.
    Raises :class:`FileNotFoundError` when ``path`` holds no checkpoint
    at all, :class:`IntegrityError` when every generation is damaged.
    """
    return _resolve(path, _read_state)[0]


def save_checkpoint(engine, path: PathLike, *, metadata: Optional[Dict[str, object]] = None) -> Path:
    """Write ``engine`` as a new committed generation under ``path``.

    Crash-safe: the store stages the generation (in the recycled spare,
    once there is one), renames it into place and flips the ``CURRENT``
    pointer only afterwards — a kill at any step leaves the previous
    generation committed.  Generations past :data:`RETAIN_GENERATIONS`
    are retired to the spare.

    Runs inside a ``stream.checkpoint`` span whose ``generation``,
    ``bytes`` and ``pad_bytes`` attributes name the committed
    generation, the bytes its files hold and how many of them are
    padding this save wrote.
    """
    recorder = obs.get_recorder()
    padded_before = recorder.counters.get("reliability.pad_bytes", 0.0) if recorder else 0.0
    with obs.span("stream.checkpoint", category="stream") as span:
        artifact, arrays, state = _checkpoint_payload(engine, metadata)
        with GenerationStore(path).commit() as (generation, staging):
            state["generation"] = generation.name
            artifact.save(staging / MODEL_DIR)
            state["array_checksums"] = write_bundle(staging / ARRAYS_NAME, arrays)
            atomic_write_json(staging / STATE_NAME, state)  # state commits the generation
        if recorder is not None:
            span.set(
                generation=generation.name,
                bytes=sum(f.stat().st_size for f in generation.rglob("*") if f.is_file()),
                pad_bytes=int(recorder.counters.get("reliability.pad_bytes", 0.0) - padded_before),
            )
    return Path(path)


def _checkpoint_payload(
    engine, metadata: Optional[Dict[str, object]]
) -> Tuple[ModelArtifact, Dict[str, np.ndarray], Dict[str, object]]:
    """The model, array buffers and state of one generation, before it is staged."""
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
        arrays["window_%d" % position] = engine._windows[position].rows
        reference = engine._references[position]
        if reference is not None:
            arrays["reference_mean_%d" % position] = reference[0]
            arrays["reference_variance_%d" % position] = reference[1]

    state = {
        "format": CHECKPOINT_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "config": engine.config.to_dict(),
        # The only scoring center; still written so readers of the
        # schema-2 layout that require the key keep restoring.
        "center": "median",
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
    }
    return artifact, arrays, state


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
    """Every buffer of ``stream_arrays.npz``, verified against ``state``'s checksums.

    Loaded eagerly, so bundles written deflated by older versions load
    too.
    """
    return read_bundle(
        arrays_path, state.get("array_checksums") or {}, kind="checkpoint arrays"
    )


def checkpoint_metadata(path: PathLike) -> Dict[str, object]:
    """Just the free-form metadata of a checkpoint (one small JSON read).

    The ``replay`` CLI fetches the recorded stream recipe through this
    instead of :func:`describe_checkpoint`, which re-reads the whole
    model artifact and array bundle.
    """
    return dict(_resolve(path, _read_state)[1].get("metadata", {}))


def describe_checkpoint(path: PathLike) -> Dict[str, object]:
    """Human-readable checkpoint summary (the ``inspect`` CLI payload)."""
    directory = Path(path)
    generation, state = _resolve(directory, _read_state)
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
    change adaptation knobs mid-stream); the outlier buffer is re-bounded
    under the new one, keeping its newest ``outlier_buffer_size`` rows and
    adding the rows it evicts to ``outliers.n_dropped``.  Each drift
    window keeps its newest :data:`~repro.stream.engine.DRIFT_WINDOW`
    rows.
    """
    generation, engine = _resolve(path, functools.partial(_load_generation, config=config))
    engine.restored_from = str(generation)
    return engine


def _load_generation(directory: Path, *, config=None):
    """Restore one generation directory, verifying every checksum."""
    from repro.stream.engine import StreamConfig, StreamEvent, StreamingSSPC

    state = _read_state(directory)
    state_path = directory / STATE_NAME

    def _field(key):
        return require_key(state, key, path=state_path, kind="checkpoint state")

    if _field("center") != "median":
        raise ValueError(
            "checkpoint state %s scores against center %r; only the median center "
            "is supported" % (state_path, _field("center"))
        )
    artifact = load_artifact(directory / MODEL_DIR)
    engine_config = config if config is not None else StreamConfig.from_dict(_field("config"))
    engine = StreamingSSPC(artifact, config=engine_config)

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
    for position, window in enumerate(engine._windows):
        window.extend(_array("window_%d" % position))
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
    # extend() counts the rows a smaller capacity evicts; add the stored
    # count to them instead of overwriting it.
    engine.outliers.extend(_array("outlier_buffer"))
    engine.outliers.n_seen = int(_field("outliers_seen"))
    engine.outliers.n_dropped += int(_field("outliers_dropped"))
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
