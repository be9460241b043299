"""Crash-safe file and directory writes (temp + fsync + rename).

Every durable write in this repository goes through this module, which
gives all of them the same contract:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` /
  :func:`atomic_write_json` — the payload is written to a same-directory
  temp file, flushed and fsynced, then renamed over the target.  A kill
  at *any* point leaves either the old content or the new content at the
  target path, never a truncated hybrid; the worst debris is a stale
  ``*.tmp-*`` file, which :func:`remove_stale_temps` clears.
* :func:`atomic_write_dir` — multi-file payloads (an artifact, a
  checkpoint generation) are staged in a temp sibling directory and
  renamed into place as a unit.  The staging directory is the unit of
  atomicity: while it is being populated, every file under it is
  written *in place* (opened without truncating, written, truncated to
  the new length and fsynced) and a nested :func:`atomic_write_dir`
  writes straight into its target, because nothing under the staging
  name is visible until the one commit rename.  Each staged directory
  gets one fsync before that rename.  Writers put the manifest last
  inside the staging block, so even the staging directory is never
  manifest-complete-but-arrays-torn.  The staging directory may start
  from a recycled one (``recycle=``, filled by :func:`retire_dir`), so
  a writer that keeps a fixed number of generations overwrites the
  blocks of a retired one instead of freeing them and allocating new
  ones.
* :func:`flip_pointer` — replaces a small pointer file (a generation
  store's ``CURRENT``) atomically without freeing the replaced inode:
  the new content is written in place into a spare, the spare is
  renamed over the pointer while a second hard link keeps the old inode
  alive, and that inode becomes the next flip's spare.
* :func:`atomic_write_json` stamps the payload with a self-checksum
  (:data:`~repro.reliability.integrity.CHECKSUM_KEY`); :func:`read_json`
  verifies and strips it, raising
  :class:`~repro.reliability.integrity.IntegrityError` on parse failure
  or mismatch.
* :func:`overwrite_length` tells a format writer how long the file a
  staged write will overwrite in place is.  A shorter payload would
  free that file's tail, so the writers whose readers can skip filler
  pad to it: :func:`atomic_write_json` with trailing spaces, and
  :func:`~repro.reliability.bundle.write_bundle` with a zero-filled
  member.  Opaque :func:`atomic_write_bytes` payloads are written as
  given and truncated to their length.

Freeing an inode or a block is the expensive part of a write on a
filesystem that discards freed blocks online (ext4 mounted with
``discard``): unlinking a fsynced file there costs tens to hundreds of
milliseconds against ~1 ms for overwriting it in place, and truncating
one shorter costs about as much as unlinking it.  The recycling and
padding above are why a steady-state checkpoint frees no inode and no
block.  Every call that frees a file, a directory or a file's tail
lives in this module (``tools/check_durability.py`` enforces it for
the durability paths).

The three fault hooks of :mod:`repro.reliability.faults` are threaded
through every step, which is how the corruption tests kill the write
path at each individual syscall and assert the invariant above.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Union

from repro import obs
from repro.reliability import faults
from repro.reliability.faults import InjectedCrash
from repro.reliability.integrity import (
    CHECKSUM_KEY,
    IntegrityError,
    stamp_checksum,
    verify_stamp,
)

PathLike = Union[str, Path]

#: Substring marking in-flight temp files/directories (safe to delete at rest).
TEMP_MARKER = ".tmp-"

_TEMP_COUNTER = itertools.count()

#: Name suffixes :func:`flip_pointer` keeps next to a pointer file: the
#: spare inode the next flip writes, and the second link to the replaced
#: inode while a flip is in flight.
SPARE_SUFFIX = ".spare"
KEEP_SUFFIX = ".keep"

#: Absolute paths of the directories :func:`atomic_write_dir` is staging
#: in this thread or task; files under them are written in place.
_STAGED: ContextVar[FrozenSet[Path]] = ContextVar("repro_staged_dirs", default=frozenset())

__all__ = [
    "TEMP_MARKER",
    "atomic_write_bytes",
    "atomic_write_dir",
    "atomic_write_json",
    "atomic_write_text",
    "flip_pointer",
    "fsync_directory",
    "overwrite_length",
    "read_json",
    "remove_stale_temps",
    "retire_dir",
    "stamp_json_file",
]


def _temp_sibling(path: Path) -> Path:
    return path.with_name("%s%s%d-%d" % (path.name, TEMP_MARKER, os.getpid(), next(_TEMP_COUNTER)))


def fsync_directory(path: PathLike) -> None:
    """Best-effort fsync of a directory (persists the rename itself)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse directory fsync; the rename is still atomic
    finally:
        os.close(fd)


def remove_stale_temps(directory: PathLike) -> int:
    """Delete leftover ``*.tmp-*`` debris from interrupted writes."""
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for entry in directory.iterdir():
        if TEMP_MARKER not in entry.name:
            continue
        try:
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def _is_staged(path: Path) -> bool:
    """Whether ``path`` lies under a directory :func:`atomic_write_dir` is staging."""
    staged = _STAGED.get()
    return bool(staged) and not staged.isdisjoint(Path(os.path.abspath(path)).parents)


def overwrite_length(path: PathLike) -> int:
    """Length of the file a write to ``path`` overwrites in place, else 0.

    Non-zero only for an existing file under a directory
    :func:`atomic_write_dir` is staging that no other name shares.  A
    fresh file, and a hard-linked one (replaced, not overwritten), free
    nothing whatever the new length.  A format writer pads a shorter
    payload to this length with bytes its readers ignore, so a recycled
    file never frees its tail.
    """
    path = Path(path)
    if not _is_staged(path):
        return 0
    try:
        info = os.stat(path)
    except OSError:
        return 0
    return info.st_size if info.st_nlink == 1 else 0


def _write_in_place(path: Path, data: bytes, *, fsync: bool = True) -> bool:
    """Overwrite ``path`` in place: no truncating open, so its blocks are reused.

    Only atomic where nothing reads ``path`` until a later rename
    publishes it (a staging directory, a pointer's spare).  Returns
    ``False``, writing nothing, when another name shares the inode (a
    hard-linked backup would change with it); replacing that name frees
    nothing either.
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        if os.fstat(handle.fileno()).st_nlink > 1:
            return False
        faults.guarded_write(handle, data, path)
        handle.truncate()
        handle.flush()
        if fsync:
            faults.before_fsync(path)
            os.fsync(handle.fileno())
    return True


def atomic_write_bytes(path: PathLike, data: bytes, *, fsync: bool = True) -> Path:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename).

    Under a directory :func:`atomic_write_dir` is staging, ``path`` is
    written in place instead (unless another name shares its inode): the
    staging directory's rename is the commit.
    """
    path = Path(path)
    if _is_staged(path) and _write_in_place(path, bytes(data), fsync=fsync):
        return path
    tmp = _temp_sibling(path)
    try:
        with open(tmp, "wb") as handle:
            faults.guarded_write(handle, bytes(data), path)
            handle.flush()
            if fsync:
                faults.before_fsync(path)
                os.fsync(handle.fileno())
        faults.before_rename(path)
        os.replace(tmp, path)
    except InjectedCrash:
        raise  # a simulated kill leaves its partial temp file behind, like a real one
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    if fsync:
        fsync_directory(path.parent)
    return path


def atomic_write_text(path: PathLike, text: str, *, fsync: bool = True) -> Path:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: PathLike,
    payload: Mapping[str, object],
    *,
    stamp: bool = True,
    fsync: bool = True,
) -> Path:
    """Atomically write a JSON payload, self-checksummed by default.

    A staged write that would leave a recycled file shorter is padded
    with trailing spaces, which JSON parsers skip, to the length it
    overwrites (:func:`overwrite_length`).
    """
    body: Mapping[str, object] = stamp_checksum(payload) if stamp else payload
    data = (json.dumps(body, indent=2, sort_keys=True) + "\n").encode("utf-8")
    pad = overwrite_length(path) - len(data)
    if pad > 0:
        data += b" " * pad
        obs.incr("reliability.pad_bytes", pad)
    return atomic_write_bytes(path, data, fsync=fsync)


def read_json(path: PathLike, *, verify: bool = True) -> Dict[str, object]:
    """Read a JSON payload, verifying and stripping its checksum stamp.

    Raises :class:`IntegrityError` when the file does not decode or parse
    or its stamp mismatches (``verify=True``); a payload without a stamp
    is a legacy write and is accepted unverified.  Missing files raise
    :class:`FileNotFoundError` as usual.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        if verify:
            raise IntegrityError(
                "%s is not valid JSON (%s): the file is corrupt or truncated" % (path, exc),
                path=path,
            ) from exc
        raise
    if not isinstance(payload, dict):
        raise IntegrityError("%s does not hold a JSON object" % path, path=path)
    if verify:
        verify_stamp(payload, path=path)
    payload.pop(CHECKSUM_KEY, None)
    return payload


def stamp_json_file(path: PathLike) -> Path:
    """Re-stamp a JSON file's self-checksum after an in-place edit.

    Test helper: corruption tests (and schema-migration tooling) edit
    manifests directly and then re-stamp so only the *intended* change
    is visible to verification.
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    payload.pop(CHECKSUM_KEY, None)
    return atomic_write_json(path, payload, stamp=True)


@contextmanager
def _staging(directory: Path) -> Iterator[None]:
    """Mark ``directory`` as staging while the block runs; fsync it after."""
    token = _STAGED.set(_STAGED.get() | {Path(os.path.abspath(directory))})
    try:
        yield
    finally:
        _STAGED.reset(token)
    fsync_directory(directory)


@contextmanager
def atomic_write_dir(path: PathLike, *, recycle: Optional[PathLike] = None) -> Iterator[Path]:
    """Stage a directory payload and rename it into place as a unit.

    Yields a temp sibling directory for the caller to populate; files
    written under it through this module are written in place, and the
    directory gets one fsync before, on clean exit, it replaces ``path``
    (an existing target is swapped out and removed).  ``recycle`` names
    a directory left by :func:`retire_dir`: when it exists, it becomes
    the staging directory, so same-named files overwrite its blocks.
    Files of it that the caller does not rewrite stay as they were.

    Inside a directory that is itself being staged, ``path`` is written
    in place and commits with that directory.  On error the staging
    directory is deleted — except under an :class:`InjectedCrash`,
    which leaves the debris a real kill would.
    """
    path = Path(path)
    if _is_staged(path):
        path.mkdir(exist_ok=True)
        with _staging(path):
            yield path
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = _temp_sibling(path)
    if recycle is not None and Path(recycle).is_dir():
        os.rename(recycle, staging)
        # Durable before any file of it is overwritten: after a power
        # loss no committed name may lead to a half-rewritten file.
        fsync_directory(path.parent)
    else:
        staging.mkdir()
    try:
        with _staging(staging):
            yield staging
    except InjectedCrash:
        raise
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    faults.before_rename(path)
    if path.exists():
        displaced = _temp_sibling(path)
        os.rename(path, displaced)
        try:
            os.rename(staging, path)
        except BaseException:
            os.rename(displaced, path)
            raise
        shutil.rmtree(displaced, ignore_errors=True)
    else:
        os.rename(staging, path)
    fsync_directory(path.parent)


def retire_dir(path: PathLike, spare: Optional[PathLike]) -> None:
    """Retire the directory ``path``, keeping it as ``spare`` when there is none.

    The next ``atomic_write_dir(..., recycle=spare)`` overwrites the
    spare's files in place, so retiring frees nothing in steady state.
    With a spare already there, or ``spare=None``, ``path`` is deleted.
    """
    path = Path(path)
    if spare is not None and not os.path.lexists(spare):
        try:
            os.rename(path, spare)
            return
        except OSError:
            pass
    shutil.rmtree(path, ignore_errors=True)


def _recover_keep(path: Path, spare: Path, keep: Path) -> None:
    """Finish or undo the flip a kill interrupted, from its leftover ``keep`` link."""
    if not os.path.lexists(keep):
        return
    if os.path.lexists(spare) or (os.path.lexists(path) and os.path.samefile(keep, path)):
        os.unlink(keep)  # stopped before the commit: keep is a second name of ``path``
    else:
        os.rename(keep, spare)  # stopped after the commit: keep is the next spare


def flip_pointer(path: PathLike, data: bytes) -> Path:
    """Atomically replace the small file ``path`` with ``data``, freeing no inode.

    1. ``data`` is written in place into ``<path>.spare`` and fsynced;
    2. ``<path>.keep`` is hard-linked to the current ``path``;
    3. the spare is renamed over ``path`` — the commit point; the old
       inode survives through ``keep``;
    4. ``keep`` is renamed to ``<path>.spare``, the next flip's spare;
    5. the directory is fsynced.

    A kill at any step leaves ``path`` holding the old or the new
    content; the next flip recovers a leftover ``keep``.  Where hard
    links fail, step 3 replaces ``path`` and frees the old inode, as
    :func:`atomic_write_bytes` does.
    """
    path = Path(path)
    spare = path.with_name(path.name + SPARE_SUFFIX)
    keep = path.with_name(path.name + KEEP_SUFFIX)
    _recover_keep(path, spare, keep)
    if not _write_in_place(spare, bytes(data)):
        os.unlink(spare)  # a second name of a shared inode: frees nothing
        _write_in_place(spare, bytes(data))
    linked = False
    if os.path.lexists(path):
        try:
            os.link(path, keep)
            linked = True
        except OSError:
            pass
    faults.before_rename(path)
    os.replace(spare, path)
    if linked:
        try:
            faults.before_rename(spare)
            os.rename(keep, spare)
        except OSError:
            pass  # committed already; the next flip recovers ``keep``
    fsync_directory(path.parent)
    return path
