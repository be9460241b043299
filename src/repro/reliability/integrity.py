"""Content checksums and the typed corruption error.

Every durable payload in this repository — artifact arrays, checkpoint
buffers, bench records — carries SHA-256 content checksums in its JSON
manifest, and the manifest itself carries a self-checksum over its
canonical form.  Readers verify both before trusting a byte, so a torn
write, a flipped bit or a truncated file surfaces as a typed
:class:`IntegrityError` naming the damaged payload instead of a shape
mismatch deep inside numpy (or, worse, a silently wrong model).

:class:`IntegrityError` subclasses :class:`ValueError` so existing
callers that treat unreadable payloads as ``(OSError, ValueError)``
keep working unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

PathLike = Union[str, Path]

#: JSON key holding a payload's self-checksum (computed over the
#: canonical serialisation of every *other* key).
CHECKSUM_KEY = "content_checksum"

__all__ = [
    "CHECKSUM_KEY",
    "IntegrityError",
    "array_checksum",
    "checksum_arrays",
    "payload_checksum",
    "require_key",
    "sha256_hex",
    "stamp_checksum",
    "verify_array_checksums",
    "verify_stamp",
]


class IntegrityError(ValueError):
    """A durable payload failed verification (corrupt, torn or incomplete).

    Attributes
    ----------
    path:
        The on-disk file or directory that failed verification, when known.
    payload:
        The logical name of the damaged payload (e.g. the array key or
        manifest field), when the damage is narrower than the whole file.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[PathLike] = None,
        payload: Optional[str] = None,
    ):
        super().__init__(message)
        self.path = str(path) if path is not None else None
        self.payload = payload


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def array_checksum(array: np.ndarray) -> str:
    """Content checksum of one array (dtype + shape + C-order bytes).

    Hashing dtype and shape alongside the raw bytes means an array that
    round-trips with the same checksum is bit-identical *as an array*,
    not merely as a byte blob reinterpreted under another dtype.  The
    C-contiguous buffer is hashed in place: a contiguous (or mapped)
    array is never copied.
    """
    array = np.asarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype.str).encode("ascii"))
    digest.update(repr(tuple(array.shape)).encode("ascii"))
    digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def checksum_arrays(arrays: Mapping[str, np.ndarray]) -> Dict[str, str]:
    """Per-array checksums for a bundle, keyed by array name."""
    return {name: array_checksum(array) for name, array in arrays.items()}


def verify_array_checksums(
    arrays: Mapping[str, np.ndarray],
    checksums: Mapping[str, str],
    *,
    path: PathLike,
) -> None:
    """Verify a loaded bundle against its recorded checksums.

    Every recorded array must be present and match; raises
    :class:`IntegrityError` naming the first damaged array.  An empty
    ``checksums`` mapping (legacy payload written before checksumming)
    verifies trivially.
    """
    for name in sorted(checksums):
        if name not in arrays:
            raise IntegrityError(
                "array %r recorded in the manifest is missing from %s" % (name, path),
                path=path,
                payload=name,
            )
        actual = array_checksum(arrays[name])
        if actual != checksums[name]:
            raise IntegrityError(
                "array %r in %s fails its content checksum "
                "(expected %s, got %s): the file is corrupt"
                % (name, path, checksums[name], actual),
                path=path,
                payload=name,
            )


def _canonical_json(payload: Mapping[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: Mapping[str, object]) -> str:
    """Self-checksum of a JSON payload (canonical form, stamp key excluded)."""
    body = {key: value for key, value in payload.items() if key != CHECKSUM_KEY}
    return sha256_hex(_canonical_json(body).encode("utf-8"))


def stamp_checksum(payload: Mapping[str, object]) -> Dict[str, object]:
    """Copy of ``payload`` with its :data:`CHECKSUM_KEY` stamp set."""
    stamped = dict(payload)
    stamped[CHECKSUM_KEY] = payload_checksum(payload)
    return stamped


def verify_stamp(payload: Mapping[str, object], *, path: Optional[PathLike] = None) -> bool:
    """Verify a payload's self-checksum stamp.

    Returns ``True`` when a stamp was present and matched, ``False``
    when the payload carries no stamp (legacy — accepted unverified),
    and raises :class:`IntegrityError` on a mismatch.
    """
    recorded = payload.get(CHECKSUM_KEY)
    if recorded is None:
        return False
    actual = payload_checksum(payload)
    if recorded != actual:
        raise IntegrityError(
            "payload %s fails its content checksum (expected %s, got %s): "
            "the file is corrupt" % (path if path is not None else "<memory>", recorded, actual),
            path=path,
            payload=CHECKSUM_KEY,
        )
    return True


def require_key(
    mapping: Mapping[str, object],
    key: str,
    *,
    path: PathLike,
    kind: str = "payload",
):
    """``mapping[key]`` with a typed error naming the payload and key.

    A durable payload that parses but lacks a required key is damaged
    (or written by incompatible code); surfacing it as a bare
    ``KeyError`` hides *which file* is at fault, so this raises
    :class:`IntegrityError` naming both.
    """
    if key not in mapping:
        raise IntegrityError(
            "%s %s is missing required key %r" % (kind, path, key),
            path=path,
            payload=key,
        )
    return mapping[key]
