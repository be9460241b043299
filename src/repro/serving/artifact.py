"""Versioned, self-describing model artifacts for fitted projected clusterings.

A :class:`ClusteringResult` dies with the process that produced it.  The
serving subsystem's first layer fixes that: :class:`ModelArtifact`
captures everything out-of-sample inference needs —

* per-cluster selected dimensions, representatives and training members,
* per-cluster, per-dimension mean / median / variance (one
  :class:`~repro.core.stats_cache.ClusterStatsCache` pass per cluster),
* the fitted selection-threshold scheme (its user parameter plus the
  global column variances it was fitted on), and
* fit metadata (algorithm, parameters, objective, iteration count),

and persists it on disk as a directory holding a JSON manifest
(``manifest.json`` — everything human-readable, including the schema
version) next to a single NPZ bundle (``arrays.npz`` — every array at
full float64 precision).  The split keeps the artifact self-describing
(``python -m repro.serve inspect`` only reads the manifest) while the
binary arrays round-trip bit for bit, which is what makes loaded-model
predictions identical to in-memory ones.

Optionally the artifact also stores each cluster's *member projections* —
the member rows restricted to the cluster's selected dimensions.  Because
the paper's clusters are extremely low-dimensional, this costs only
``size x |V_i|`` floats per cluster, and it is what lets
:meth:`~repro.serving.index.ProjectedClusterIndex.partial_update`
maintain *exact* medians as new points are folded in.

Schema versioning: ``SCHEMA_VERSION`` is written into every manifest;
:func:`load_artifact` refuses manifests from a newer schema (forward
compatibility is never silently guessed at) and upgrades older ones
explicitly when a migration exists.

Durability (schema 2): :meth:`ModelArtifact.save` is crash-safe — the
whole directory is staged and renamed into place via
:func:`~repro.reliability.atomic.atomic_write_dir` with the manifest
written last, so a kill at any point leaves either the previous
artifact or the new one, never a torn hybrid.  Saved inside a directory
that is itself being staged (a stream checkpoint generation), the
artifact is written in place and commits with that directory.  The
manifest records a
SHA-256 checksum per array plus a self-checksum over its own canonical
form; :func:`load_artifact` verifies both and raises a typed
:class:`~repro.reliability.integrity.IntegrityError` naming the damaged
payload.  Schema-1 artifacts (no checksums) still load, unverified.

Shared memory (schema 3): ``arrays.npz`` is written and read by the
array-bundle module :mod:`repro.reliability.bundle` — the same writer
and reader as a stream checkpoint's ``stream_arrays.npz``.  Its members
are *stored* (uncompressed), which makes every embedded ``.npy`` payload
a contiguous byte range of the archive — so ``load_artifact(path,
mmap_mode="r")`` maps the arrays straight out of the page cache instead
of allocating private copies.  N serving workers that map the same
artifact share one set of physical pages; ``mmap_mode="c"``
(copy-on-write) additionally lets a process scribble on its views
without touching the file or its siblings.  The SHA-256 array checksums
are verified over the mapped views on load, so the integrity contract
is identical on both paths.  Compressed bundles from schema <= 2 still
load eagerly; asking to map one raises
:class:`~repro.reliability.bundle.CompressedMemberError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.model import ClusteringResult
from repro.core.stats_cache import ClusterStatsCache
from repro.core.thresholds import SelectionThreshold, make_threshold
from repro.reliability import (
    IntegrityError,
    atomic_write_dir,
    atomic_write_json,
    read_bundle,
    require_key,
    verify_stamp,
    write_bundle,
)

PathLike = Union[str, Path]

ARTIFACT_FORMAT = "repro-sspc-artifact"
SCHEMA_VERSION = 3
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"
#: Where a store generation keeps its artifact: a stream checkpoint's
#: and the daemon's ``state_dir`` generations share this layout.
MODEL_DIR = "model"

__all__ = [
    "ARTIFACT_FORMAT",
    "SCHEMA_VERSION",
    "ClusterModel",
    "ModelArtifact",
    "load_artifact",
    "threshold_from_description",
]


def threshold_from_description(
    description: Dict[str, object],
    global_variance: np.ndarray,
) -> SelectionThreshold:
    """Rebuild a fitted :class:`SelectionThreshold` from its description.

    ``description`` is the dict produced by
    :meth:`SelectionThreshold.describe` (``{"scheme": "m", "m": 0.5}`` or
    ``{"scheme": "p", "p": 0.01}``); the threshold is fitted directly from
    the stored global variances so it reproduces the training-time
    thresholds exactly.
    """
    scheme = description.get("scheme")
    if scheme == "m":
        threshold = make_threshold(m=float(description["m"]))
    elif scheme == "p":
        threshold = make_threshold(p=float(description["p"]))
    else:
        raise ValueError("unknown threshold scheme %r" % (scheme,))
    threshold.fit_from_variance(global_variance)
    return threshold


@dataclass
class ClusterModel:
    """Per-cluster serving payload of a :class:`ModelArtifact`.

    Attributes
    ----------
    dimensions:
        Selected dimension indices ``V_i``.
    members:
        Training-time member object indices (kept for
        :class:`ClusteringResult` round trips; serving never needs the
        training data itself).
    representative:
        Full ``d``-vector used by the last assignment pass.
    mean, median, variance:
        Per-dimension statistics of the member block (full ``d``-vectors,
        straight from the shared :class:`ClusterStatsCache`).
    score:
        The cluster's ``phi_i`` objective component.
    member_projections:
        ``(size, |V_i|)`` member rows restricted to the selected
        dimensions, or ``None`` when the artifact was saved without
        projections.  Enables exact median maintenance in
        ``partial_update``.
    """

    dimensions: np.ndarray
    members: np.ndarray
    representative: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    variance: np.ndarray
    score: float = float("nan")
    member_projections: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.dimensions = np.asarray(self.dimensions, dtype=int)
        self.members = np.asarray(self.members, dtype=int)
        self.representative = np.asarray(self.representative, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        self.median = np.asarray(self.median, dtype=float)
        self.variance = np.asarray(self.variance, dtype=float)
        if self.member_projections is not None:
            self.member_projections = np.asarray(self.member_projections, dtype=float)

    @property
    def size(self) -> int:
        """Number of training members."""
        return int(self.members.size)

    @property
    def dimensionality(self) -> int:
        """Number of selected dimensions."""
        return int(self.dimensions.size)


@dataclass
class ModelArtifact:
    """A persisted projected-clustering model (fit-once / score-many).

    Build one with :meth:`from_result` (any :class:`ClusteringResult`
    plus its training data) or via :meth:`SSPC.save
    <repro.core.sspc.SSPC.save>`; persist with :meth:`save`; restore with
    :func:`load_artifact`; serve with
    :class:`~repro.serving.index.ProjectedClusterIndex`.
    """

    clusters: List[ClusterModel]
    labels: np.ndarray
    n_objects: int
    n_dimensions: int
    threshold_description: Dict[str, object]
    global_variance: np.ndarray
    objective: float = float("nan")
    n_iterations: int = 0
    algorithm: str = ""
    parameters: Dict[str, object] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=int)
        self.global_variance = np.asarray(self.global_variance, dtype=float)
        if self.labels.shape[0] != self.n_objects:
            raise ValueError(
                "labels has length %d, expected n_objects=%d"
                % (self.labels.shape[0], self.n_objects)
            )
        if self.global_variance.shape[0] != self.n_dimensions:
            raise ValueError(
                "global_variance has length %d, expected n_dimensions=%d"
                % (self.global_variance.shape[0], self.n_dimensions)
            )
        for index, cluster in enumerate(self.clusters):
            for name in ("representative", "mean", "median", "variance"):
                vector = getattr(cluster, name)
                if vector.shape[0] != self.n_dimensions:
                    raise ValueError(
                        "cluster %d %s has length %d, expected %d"
                        % (index, name, vector.shape[0], self.n_dimensions)
                    )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_result(
        cls,
        result: ClusteringResult,
        data: np.ndarray,
        *,
        threshold: Optional[SelectionThreshold] = None,
        stats_cache: Optional[ClusterStatsCache] = None,
        include_projections: bool = True,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "ModelArtifact":
        """Capture a fitted clustering (plus its data-derived statistics).

        Parameters
        ----------
        result:
            The clustering to persist.
        data:
            The ``(n, d)`` training data the result was fitted on (used
            only to compute the per-cluster statistics and the member
            projections; it is *not* stored in the artifact).
        threshold:
            The fitted selection threshold of the producing run.  When
            omitted one is rebuilt from ``result.parameters`` (``m`` /
            ``p``, defaulting to ``m=0.5``) and fitted on ``data`` — the
            convention every estimator in this repository follows.
        stats_cache:
            Optional shared statistics workspace; passing the producing
            run's cache makes the statistics capture free (all hits).
        include_projections:
            Store each cluster's member rows on its selected dimensions
            (cheap for low-dimensional clusters) so serving can maintain
            exact medians during ``partial_update``.
        metadata:
            Free-form JSON-serialisable metadata recorded in the
            manifest.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape != (result.n_objects, result.n_dimensions):
            raise ValueError(
                "data must have shape (%d, %d) matching the result"
                % (result.n_objects, result.n_dimensions)
            )
        if stats_cache is None:
            stats_cache = ClusterStatsCache(data)
        if threshold is None:
            threshold = cls._threshold_from_parameters(result.parameters)
        if not threshold.is_fitted:
            threshold.fit_from_variance(stats_cache.global_variance)

        clusters: List[ClusterModel] = []
        for cluster in result.clusters:
            stats = stats_cache.statistics(cluster.members)
            representative = (
                cluster.representative
                if cluster.representative is not None
                else stats.median
            )
            projections = None
            if include_projections:
                projections = data[np.ix_(cluster.members, cluster.dimensions)]
            clusters.append(
                ClusterModel(
                    dimensions=cluster.dimensions.copy(),
                    members=cluster.members.copy(),
                    representative=np.asarray(representative, dtype=float).copy(),
                    mean=stats.mean.copy(),
                    median=stats.median.copy(),
                    variance=stats.variance.copy(),
                    score=float(cluster.score),
                    member_projections=projections,
                )
            )
        return cls(
            clusters=clusters,
            labels=result.labels(),
            n_objects=result.n_objects,
            n_dimensions=result.n_dimensions,
            threshold_description=dict(threshold.describe()),
            global_variance=threshold.global_variance.copy(),
            objective=float(result.objective),
            n_iterations=int(result.n_iterations),
            algorithm=result.algorithm,
            parameters=dict(result.parameters),
            metadata=dict(metadata or {}),
        )

    @staticmethod
    def _threshold_from_parameters(parameters: Dict[str, object]) -> SelectionThreshold:
        """Threshold scheme implied by a result's recorded parameters."""
        m = parameters.get("m")
        p = parameters.get("p")
        if m is not None:
            return make_threshold(m=float(m))
        if p is not None:
            return make_threshold(p=float(p))
        return make_threshold(m=0.5)

    # ------------------------------------------------------------------ #
    # round trips
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        """Number of clusters in the model."""
        return len(self.clusters)

    @property
    def includes_projections(self) -> bool:
        """Whether every cluster carries its member projections."""
        return all(cluster.member_projections is not None for cluster in self.clusters)

    def threshold(self) -> SelectionThreshold:
        """The fitted selection threshold, rebuilt from the stored state."""
        return threshold_from_description(self.threshold_description, self.global_variance)

    def to_result(self) -> ClusteringResult:
        """Reconstruct the :class:`ClusteringResult` the artifact captured.

        Goes through :meth:`ClusteringResult.from_labels`, so members
        (including the outlier list), per-cluster dimensions, scores and
        representatives all round-trip exactly.
        """
        return ClusteringResult.from_labels(
            self.labels,
            self.n_dimensions,
            dimensions=[cluster.dimensions for cluster in self.clusters],
            scores=[cluster.score for cluster in self.clusters],
            representatives=[cluster.representative for cluster in self.clusters],
            objective=self.objective,
            n_iterations=self.n_iterations,
            algorithm=self.algorithm,
            parameters=dict(self.parameters),
            n_clusters=self.n_clusters,
        )

    def describe(self) -> Dict[str, object]:
        """Human-readable summary (the ``inspect`` CLI payload).

        ``cluster_sizes`` reports what an index built from the artifact
        will actually serve: the absorbed ``serving_sizes`` when the
        artifact has been written back after ``partial_update``, else
        the training member counts (also reported separately as
        ``training_sizes``).
        """
        training_sizes = [cluster.size for cluster in self.clusters]
        serving_sizes = self.metadata.get("serving_sizes")
        if not (
            isinstance(serving_sizes, (list, tuple))
            and len(serving_sizes) == len(self.clusters)
        ):
            serving_sizes = training_sizes
        return {
            "format": ARTIFACT_FORMAT,
            "schema_version": self.schema_version,
            "algorithm": self.algorithm,
            "n_objects": self.n_objects,
            "n_dimensions": self.n_dimensions,
            "n_clusters": self.n_clusters,
            "n_outliers": int(np.count_nonzero(self.labels < 0)),
            "objective": self.objective,
            "n_iterations": self.n_iterations,
            "threshold": dict(self.threshold_description),
            "parameters": dict(self.parameters),
            "cluster_sizes": [int(size) for size in serving_sizes],
            "training_sizes": training_sizes,
            "cluster_dimensionalities": [cluster.dimensionality for cluster in self.clusters],
            "includes_projections": self.includes_projections,
            "metadata": dict(self.metadata),
        }

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: PathLike) -> Path:
        """Persist the artifact to directory ``path`` (created if needed).

        Writes ``manifest.json`` (schema version + scalar metadata +
        per-array checksums) and ``arrays.npz`` (every array at full
        precision, *uncompressed* so it can be memory-mapped by
        :func:`load_artifact` with ``mmap_mode``).  The directory is
        staged and renamed into place as a unit with the manifest last,
        so a kill mid-save leaves either the previous artifact or the
        new one — never a torn mix; inside a directory that is itself
        being staged it is written in place and commits with that
        directory.  Returns the directory path.
        """
        directory = Path(path)

        arrays: Dict[str, np.ndarray] = {
            "labels": self.labels,
            "global_variance": self.global_variance,
            "cluster_scores": np.asarray(
                [cluster.score for cluster in self.clusters], dtype=float
            ),
        }
        for index, cluster in enumerate(self.clusters):
            prefix = "cluster_%d_" % index
            arrays[prefix + "dimensions"] = cluster.dimensions
            arrays[prefix + "members"] = cluster.members
            arrays[prefix + "representative"] = cluster.representative
            arrays[prefix + "mean"] = cluster.mean
            arrays[prefix + "median"] = cluster.median
            arrays[prefix + "variance"] = cluster.variance
            if cluster.member_projections is not None:
                arrays[prefix + "projections"] = cluster.member_projections

        manifest = {
            "format": ARTIFACT_FORMAT,
            # Saving always writes the current schema (checksums included),
            # regardless of the schema the artifact was loaded from.
            "schema_version": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "n_objects": int(self.n_objects),
            "n_dimensions": int(self.n_dimensions),
            "n_clusters": int(self.n_clusters),
            "objective": float(self.objective),
            "n_iterations": int(self.n_iterations),
            "threshold": dict(self.threshold_description),
            "parameters": _jsonable(self.parameters),
            "metadata": _jsonable(self.metadata),
            "includes_projections": bool(self.includes_projections),
            "arrays_file": ARRAYS_NAME,
        }
        with atomic_write_dir(directory) as staging:
            manifest["array_checksums"] = write_bundle(staging / ARRAYS_NAME, arrays)
            atomic_write_json(staging / MANIFEST_NAME, manifest)  # manifest commits last
        return directory

    @classmethod
    def load(cls, path: PathLike, *, mmap_mode: Optional[str] = None) -> "ModelArtifact":
        """Load an artifact saved by :meth:`save` (see :func:`load_artifact`)."""
        directory = Path(path)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(
                "%s is not a model artifact (missing %s)" % (directory, MANIFEST_NAME)
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise IntegrityError(
                "artifact manifest %s is not valid JSON (%s): the file is corrupt "
                "or truncated" % (manifest_path, exc),
                path=manifest_path,
            ) from exc

        if manifest.get("format") != ARTIFACT_FORMAT:
            raise ValueError(
                "unrecognised artifact format %r (expected %r)"
                % (manifest.get("format"), ARTIFACT_FORMAT)
            )
        schema_version = int(manifest.get("schema_version", -1))
        if schema_version < 1:
            raise ValueError("artifact manifest is missing a valid schema_version")
        if schema_version > SCHEMA_VERSION:
            raise ValueError(
                "artifact schema_version %d is newer than this library supports (%d); "
                "upgrade the repro package to load it" % (schema_version, SCHEMA_VERSION)
            )
        # Schema >= 2 manifests are self-checksummed; verify before trusting
        # any field.  Schema-1 manifests carry no stamp and load unverified.
        verify_stamp(manifest, path=manifest_path)

        arrays_path = directory / manifest.get("arrays_file", ARRAYS_NAME)
        # A schema <= 2 (compressed) bundle cannot be mapped: its
        # CompressedMemberError reaches the caller, who asked for mmap
        # explicitly, instead of each process silently loading a copy.
        arrays = read_bundle(
            arrays_path,
            manifest.get("array_checksums") or {},
            kind="artifact arrays",
            mmap_mode=mmap_mode,
        )

        def _field(key):
            return require_key(manifest, key, path=manifest_path, kind="artifact manifest")

        def _array(key):
            return require_key(arrays, key, path=arrays_path, kind="artifact arrays")

        n_clusters = int(_field("n_clusters"))
        scores = arrays.get("cluster_scores")
        clusters: List[ClusterModel] = []
        for index in range(n_clusters):
            prefix = "cluster_%d_" % index
            required = ("dimensions", "members", "representative", "mean", "median", "variance")
            missing = [name for name in required if prefix + name not in arrays]
            if missing:
                raise IntegrityError(
                    "artifact arrays for cluster %d are incomplete in %s (missing %s)"
                    % (index, arrays_path, ", ".join(missing)),
                    path=arrays_path,
                    payload=prefix + missing[0],
                )
            clusters.append(
                ClusterModel(
                    dimensions=arrays[prefix + "dimensions"],
                    members=arrays[prefix + "members"],
                    representative=arrays[prefix + "representative"],
                    mean=arrays[prefix + "mean"],
                    median=arrays[prefix + "median"],
                    variance=arrays[prefix + "variance"],
                    score=float(scores[index]) if scores is not None else float("nan"),
                    member_projections=arrays.get(prefix + "projections"),
                )
            )
        return cls(
            clusters=clusters,
            labels=_array("labels"),
            n_objects=int(_field("n_objects")),
            n_dimensions=int(_field("n_dimensions")),
            threshold_description=dict(_field("threshold")),
            global_variance=_array("global_variance"),
            objective=float(manifest.get("objective", float("nan"))),
            n_iterations=int(manifest.get("n_iterations", 0)),
            algorithm=manifest.get("algorithm", ""),
            parameters=dict(manifest.get("parameters", {})),
            metadata=dict(manifest.get("metadata", {})),
            schema_version=schema_version,
        )


def _jsonable(mapping: Dict[str, object]) -> Dict[str, object]:
    """Coerce a metadata mapping to JSON-serialisable plain types."""
    plain: Dict[str, object] = {}
    for key, value in mapping.items():
        if isinstance(value, np.generic):
            value = value.item()
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        plain[str(key)] = value
    return plain


def load_artifact(path: PathLike, *, mmap_mode: Optional[str] = None) -> ModelArtifact:
    """Load a :class:`ModelArtifact` from ``path``.

    Validates the manifest format and schema version before touching the
    arrays; loading an artifact written by a *newer* library version
    raises instead of guessing.

    Parameters
    ----------
    path:
        The artifact directory written by :meth:`ModelArtifact.save`.
    mmap_mode:
        ``None`` (default) reads every array into fresh allocations.
        ``"r"`` memory-maps the arrays read-only straight out of the NPZ
        — processes mapping the same artifact share one set of physical
        pages, which is how the serving daemon's workers hold one model
        between them.  ``"c"`` maps copy-on-write: reads are shared,
        writes stay private to the calling process.  Mapping requires an
        uncompressed (schema >= 3) bundle; older compressed artifacts
        raise :class:`~repro.reliability.bundle.CompressedMemberError`
        (load them eagerly or re-save them once).  Array checksums are
        verified on every path.
    """
    return ModelArtifact.load(path, mmap_mode=mmap_mode)
