"""Checksummed array bundles: the one NPZ writer and reader.

Model artifacts (``arrays.npz``) and stream checkpoints
(``stream_arrays.npz``) persist their arrays the same way, and this
module owns that format:

* :func:`write_bundle` checksums every array (SHA-256 over dtype, shape
  and bytes, see :mod:`repro.reliability.integrity`), writes them as
  *stored* NPZ members with :func:`numpy.savez` through
  :func:`~repro.reliability.atomic.atomic_write_bytes`, and returns the
  checksums for the caller to record in its manifest or state.
* :func:`read_bundle` loads a bundle eagerly or maps it with
  :func:`mmap_npz`, turns every way a damaged archive can fail to parse
  into :class:`~repro.reliability.integrity.IntegrityError`, and
  verifies the recorded checksums on both paths.

Members are stored, never deflated.  The arrays are raw float64
buffers, which zlib shrinks by only about 6% on a stream checkpoint at
several times the cost of the rest of the save; and a stored member is
a contiguous byte range of the archive, which is what makes it
mappable.  Bundles written deflated (``numpy.savez_compressed``, as
schema <= 2 artifacts and older checkpoints were) still load eagerly;
asking to map one raises :class:`CompressedMemberError`.

Padding
-------
A bundle written in place over a longer file (a recycled checkpoint
generation, see :func:`~repro.reliability.atomic.overwrite_length`)
would free that file's tail, which costs about as much as an unlink on
a filesystem that discards freed blocks online.  :func:`write_bundle`
appends one stored, zero-filled ``.npy`` member named
:data:`PADDING_KEY` instead, bringing the archive to exactly the old
length; when the shortfall is smaller than the member's own headers
(234 bytes), the member is empty and the file grows by less than that.
So a recycled bundle never gets shorter, and never longer than its
largest payload plus one padding member.  The padding holds no data,
gets no checksum, and neither :func:`read_bundle` nor :func:`mmap_npz`
returns it; ``numpy.load`` sees an ordinary ``uint8`` array of zeros,
which is how readers that predate it restore a padded bundle.

Memory mapping
--------------
``numpy.load`` silently ignores ``mmap_mode`` for ``.npz`` files: the
zip container is always read member by member into fresh allocations.
That is exactly wrong for a serving fleet — N worker processes each
paying a private copy of the same read-only model.  :func:`mmap_npz`
maps the stored members in place instead.  For each member it

1. reads the zip *local* file header to find where the member's bytes
   start (the central directory's ``header_offset`` plus the local
   header, whose name/extra lengths can differ from the central ones),
2. parses the ``.npy`` header inside the member (magic, version, dtype,
   shape, order) with :mod:`numpy.lib.format`, and
3. hands the absolute data offset to :class:`numpy.memmap`.

Every process that maps the same bundle shares one set of physical
pages through the page cache — loading is O(metadata) and the arrays
cost their footprint *once* per machine, not once per process.
``mode="r"`` returns read-only views; ``mode="c"`` (copy-on-write)
returns writable views whose modified pages are private to the process,
which is what lets an index build mutable assignment plans over a
shared artifact without a bulk copy.

Zip CRCs are *not* checked on the mapped path (they would force a full
read); :func:`read_bundle` runs the SHA-256 array checksums over the
mapped views instead, which is both stronger and explicit.
"""

from __future__ import annotations

import io
import struct
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np
from numpy.lib import format as npy_format

from repro import obs
from repro.reliability.atomic import atomic_write_bytes, overwrite_length
from repro.reliability.integrity import (
    IntegrityError,
    checksum_arrays,
    verify_array_checksums,
)

PathLike = Union[str, Path]

__all__ = [
    "MMAP_MODES",
    "PADDING_KEY",
    "CompressedMemberError",
    "mmap_npz",
    "read_bundle",
    "write_bundle",
]

#: Supported :func:`mmap_npz` modes — read-only and copy-on-write.
MMAP_MODES = ("r", "c")

#: Reserved name of the zero-filled member :func:`write_bundle` appends
#: so a bundle that overwrites a longer file keeps its length.
PADDING_KEY = "__padding__"
_PADDING_MEMBER = PADDING_KEY + ".npy"
#: Zeros written per chunk, so padding never allocates its own length.
_ZERO_CHUNK = 1 << 16

#: Fixed size of a zip local file header (before name + extra field).
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"

#: How a truncated, bit-flipped or otherwise damaged archive fails to
#: open or decode; :func:`read_bundle` reports each as an IntegrityError.
_UNREADABLE = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error)


class CompressedMemberError(ValueError):
    """Raised when an NPZ member is deflated and therefore not mappable.

    :func:`write_bundle` stores members uncompressed; older
    (``savez_compressed``) bundles must be loaded eagerly — the caller
    decides whether to fall back or to re-save the payload.
    """

    def __init__(self, path: PathLike, member: str) -> None:
        super().__init__(
            "NPZ member %r in %s is compressed and cannot be memory-mapped; "
            "re-save the artifact with the current library (uncompressed NPZ) "
            "or load it eagerly" % (member, path)
        )
        self.path = Path(path)
        self.member = member


def _append_padding(buffer: io.BytesIO, size: int) -> None:
    """Append the padding member, ``size`` zeros, to the archive in ``buffer``.

    Append mode writes the member where the central directory was and
    rewrites only the directory, so the arrays are serialised once.
    """
    header = io.BytesIO()
    npy_format.write_array_header_1_0(
        header, {"descr": "|u1", "fortran_order": False, "shape": (size,)}
    )
    info = zipfile.ZipInfo(_PADDING_MEMBER, date_time=(1980, 1, 1, 0, 0, 0))
    info.file_size = header.tell() + size
    zeros = memoryview(bytes(min(size, _ZERO_CHUNK)))
    with zipfile.ZipFile(buffer, "a") as archive, archive.open(info, "w") as member:
        member.write(header.getvalue())
        for start in range(0, size, _ZERO_CHUNK):
            member.write(zeros[: size - start])


def _padding_overhead() -> int:
    """Bytes an empty padding member adds to an archive (its headers)."""
    buffer = io.BytesIO()
    zipfile.ZipFile(buffer, "w").close()
    empty = buffer.seek(0, io.SEEK_END)
    _append_padding(buffer, 0)
    return buffer.seek(0, io.SEEK_END) - empty


_PADDING_OVERHEAD = _padding_overhead()


def write_bundle(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Dict[str, str]:
    """Atomically write ``arrays`` to ``path`` as a stored NPZ.

    Returns the per-array checksums, which the caller records in the
    manifest (or state) it writes *after* the bundle, so that payload
    commits the pair.  A bundle that would come out shorter than the
    file it overwrites in place is padded to that file's length (see
    the module docstring); :data:`PADDING_KEY` may not name an array.
    """
    if PADDING_KEY in arrays:
        raise ValueError("%r is reserved for the bundle's padding member" % PADDING_KEY)
    checksums = checksum_arrays(arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    shortfall = overwrite_length(path) - buffer.seek(0, io.SEEK_END)
    if shortfall > 0:
        zeros = max(shortfall - _PADDING_OVERHEAD, 0)
        _append_padding(buffer, zeros)
        obs.incr("reliability.pad_bytes", _PADDING_OVERHEAD + zeros)
    atomic_write_bytes(path, buffer.getvalue())
    return checksums


def read_bundle(
    path: PathLike,
    checksums: Mapping[str, str],
    *,
    kind: str,
    mmap_mode: Optional[str] = None,
) -> Dict[str, np.ndarray]:
    """Every array of the bundle at ``path``, verified against ``checksums``.

    ``kind`` names the payload in error messages (e.g. ``"artifact
    arrays"``).  ``mmap_mode`` ``None`` reads each array into a fresh
    allocation (stored and deflated bundles alike); ``"r"`` / ``"c"``
    maps them with :func:`mmap_npz`.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    CompressedMemberError
        If mapping was asked for and a member is deflated.
    IntegrityError
        If the archive does not parse (truncated, bit-flipped) or an
        array fails or misses its recorded checksum.  An empty
        ``checksums`` mapping (a legacy payload) verifies trivially.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError("%s file %s is missing" % (kind, path))
    try:
        if mmap_mode is None:
            # Our own handle: np.load leaks the one it opens when the
            # archive fails to parse.
            with open(path, "rb") as handle, np.load(handle) as bundle:
                arrays = {key: bundle[key] for key in bundle.files if key != PADDING_KEY}
        else:
            arrays = mmap_npz(path, mode=mmap_mode)
    except CompressedMemberError:
        # Not damage: the caller asked to map a deflated bundle and
        # decides whether to load it eagerly instead.
        raise
    except _UNREADABLE as exc:
        raise IntegrityError(
            "%s %s are unreadable (%s): the file is corrupt or truncated" % (kind, path, exc),
            path=path,
        ) from exc
    # On the mapped path this walks the views — pages are read (and
    # dropped back to the cache), never duplicated.
    verify_array_checksums(arrays, checksums, path=path)
    return arrays


def _member_data_offset(handle, header_offset: int, path: Path, member: str) -> int:
    """Absolute offset of a stored member's first payload byte.

    The central directory records where the member's *local header*
    starts; the payload follows the local header's fixed part plus its
    own (possibly different) file-name and extra-field lengths.
    """
    handle.seek(header_offset)
    local_header = handle.read(_LOCAL_HEADER_SIZE)
    if len(local_header) != _LOCAL_HEADER_SIZE or local_header[:4] != _LOCAL_HEADER_MAGIC:
        raise ValueError(
            "NPZ member %r in %s has a corrupt local header" % (member, path)
        )
    name_length, extra_length = struct.unpack("<HH", local_header[26:30])
    return header_offset + _LOCAL_HEADER_SIZE + name_length + extra_length


def _read_npy_header(handle, path: Path, member: str):
    """Parse a ``.npy`` header at the current position; returns (shape, fortran, dtype)."""
    version = npy_format.read_magic(handle)
    if version == (1, 0):
        return npy_format.read_array_header_1_0(handle)
    if version == (2, 0):
        return npy_format.read_array_header_2_0(handle)
    raise ValueError(
        "NPZ member %r in %s uses unsupported .npy format version %s"
        % (member, path, (version,))
    )


def mmap_npz(path: PathLike, *, mode: str = "r") -> Dict[str, np.ndarray]:
    """Map every array of an uncompressed NPZ without reading the data.

    Parameters
    ----------
    path:
        An ``.npz`` file whose members are stored (``numpy.savez``).
    mode:
        ``"r"`` — read-only shared views (attempted writes raise);
        ``"c"`` — copy-on-write views (writes stay private to this
        process and never touch the file).

    Returns a dict keyed like ``numpy.load``'s ``NpzFile`` (member names
    without the ``.npy`` suffix), without the padding member, whose
    bytes are never read.  Zero-size arrays are returned as
    ordinary empty arrays — there are no bytes to share.  No checksum is
    verified here; :func:`read_bundle` does that.

    Raises
    ------
    CompressedMemberError
        If any member was deflated (``savez_compressed`` bundle).
    """
    if mode not in MMAP_MODES:
        raise ValueError("mode must be one of %s, got %r" % (MMAP_MODES, mode))
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        members = archive.infolist()
        with open(path, "rb") as handle:
            for info in members:
                name = info.filename
                if name == _PADDING_MEMBER:
                    continue
                key = name[:-4] if name.endswith(".npy") else name
                if info.compress_type != zipfile.ZIP_STORED:
                    raise CompressedMemberError(path, name)
                data_offset = _member_data_offset(handle, info.header_offset, path, name)
                handle.seek(data_offset)
                shape, fortran_order, dtype = _read_npy_header(handle, path, name)
                array_offset = handle.tell()
                if int(np.prod(shape)) == 0:
                    array = np.empty(shape, dtype=dtype)
                    if mode == "r":
                        array.setflags(write=False)
                    arrays[key] = array
                    continue
                mapped = np.memmap(
                    path,
                    dtype=dtype,
                    mode=mode,
                    offset=array_offset,
                    shape=shape,
                    order="F" if fortran_order else "C",
                )
                arrays[key] = mapped
    return arrays
