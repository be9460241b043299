"""Crash-safe durability primitives shared by every persistence layer.

Five pieces, layered:

* :mod:`repro.reliability.integrity` — SHA-256 content checksums for
  arrays and JSON payloads, and the typed :class:`IntegrityError`
  raised whenever a durable payload fails verification.
* :mod:`repro.reliability.atomic` — temp + fsync + rename writes for
  files and whole directories (manifest-last protocol; files under a
  staging directory are written in place, and JSON files are padded so
  a recycled one never gets shorter), recycling of retired
  directories, a pointer flip that frees no inode, plus
  checksum-verified JSON reads.
* :mod:`repro.reliability.generations` — the one generation store:
  ``gen-%08d`` naming, the staged commit and ``CURRENT`` flip, 2
  committed generations plus a recycled spare, the stale-temp sweep and
  the rollback loop, for every writer that keeps numbered generations.
* :mod:`repro.reliability.bundle` — the one NPZ array-bundle writer and
  reader: stored (uncompressed, mappable) members written atomically,
  padded by a reserved zero-filled member so a recycled bundle never
  gets shorter, per-array checksums returned to the caller's manifest
  and verified on every eager or memory-mapped load.
* :mod:`repro.reliability.faults` — seeded, replayable fault injection
  (torn writes, blocked renames, ENOSPC, crashes, worker SIGKILL, task
  stalls) threaded through the write path and the process executor, so
  the durability contract is *demonstrated* under failure, not assumed.

Consumed by :mod:`repro.serving.artifact` (model artifacts, through the
bundle module), :mod:`repro.stream.checkpoint` (checkpoint generations
with rollback, through the generation store and the bundle module),
:mod:`repro.server.pool` (the daemon's ``state_dir`` generations,
through the generation store), :mod:`repro.bench.store` (resumable run
records with quarantine) and :mod:`repro.utils.executor`
(fault-tolerant process execution).
"""

from repro.reliability.integrity import (
    CHECKSUM_KEY,
    IntegrityError,
    array_checksum,
    checksum_arrays,
    payload_checksum,
    require_key,
    sha256_hex,
    stamp_checksum,
    verify_array_checksums,
    verify_stamp,
)
from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    TASK_KINDS,
    WRITE_KINDS,
    active,
    active_plan,
)
from repro.reliability.atomic import (
    TEMP_MARKER,
    atomic_write_bytes,
    atomic_write_dir,
    atomic_write_json,
    atomic_write_text,
    flip_pointer,
    fsync_directory,
    overwrite_length,
    read_json,
    remove_stale_temps,
    retire_dir,
    stamp_json_file,
)
from repro.reliability.generations import GenerationStore
from repro.reliability.bundle import (
    PADDING_KEY,
    CompressedMemberError,
    mmap_npz,
    read_bundle,
    write_bundle,
)

__all__ = [
    "CHECKSUM_KEY",
    "CompressedMemberError",
    "FaultPlan",
    "FaultSpec",
    "GenerationStore",
    "InjectedCrash",
    "InjectedFault",
    "IntegrityError",
    "PADDING_KEY",
    "TASK_KINDS",
    "TEMP_MARKER",
    "WRITE_KINDS",
    "active",
    "active_plan",
    "array_checksum",
    "atomic_write_bytes",
    "atomic_write_dir",
    "atomic_write_json",
    "atomic_write_text",
    "checksum_arrays",
    "flip_pointer",
    "fsync_directory",
    "mmap_npz",
    "overwrite_length",
    "payload_checksum",
    "read_bundle",
    "read_json",
    "remove_stale_temps",
    "require_key",
    "retire_dir",
    "sha256_hex",
    "stamp_checksum",
    "stamp_json_file",
    "verify_array_checksums",
    "verify_stamp",
    "write_bundle",
]
