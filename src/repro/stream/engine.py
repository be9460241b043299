"""The streaming driver: :class:`StreamingSSPC`.

``StreamingSSPC`` keeps a fitted projected clustering *current* while an
unbounded point stream flows through it, without ever refitting:

1. **Hot path** — every micro-batch is assigned and outlier-gated by the
   serving index and the accepted rows are folded into the cached
   per-cluster statistics via
   :meth:`~repro.serving.index.ProjectedClusterIndex.partial_update`
   (exact mean/variance merges, exact medians).  On a drift-free stream
   this is *bit-identical* to driving a bare index with the same
   batches — the engine adds bookkeeping, never arithmetic.
2. **Drift adaptation** — per cluster, a bounded window of recently
   accepted rows is tested against the cluster's reference statistics
   (:class:`~repro.stream.drift.DriftDetector`); a flagged cluster gets
   the full treatment: the selection thresholds are refreshed on the
   stream-era global variances, ``SelectDim`` is re-run on the window
   through the shared :class:`~repro.core.stats_cache.ClusterStatsCache`
   machinery, and the cluster is re-anchored on the window.  Clusters
   that did not drift are never touched, so the steady-state cost stays
   at batched-inference speed.
3. **Lifecycle** — rejected rows accumulate in a bounded
   :class:`~repro.stream.lifecycle.OutlierBuffer`; periodic sweeps spawn
   a new cluster when the buffer holds a dense region (grid /
   seed-group machinery) and retire clusters starved of traffic.

Clusters carry *stable ids*: batch results are labeled with ids that
survive spawns and retirements, so downstream accuracy accounting works
across lifecycle events.

Dirty-tracking contract: the serving index holds a persistent
:class:`~repro.core.assignment_engine.AssignmentEngine` plan that is
reused across micro-batches rather than rebuilt per batch — steady-state
batches pay only the blocked gain evaluation.  The engine above must
therefore mutate clusters *only* through the index's maintenance API
(``partial_update`` and the lifecycle methods ``add_cluster`` /
``remove_cluster`` / ``reanchor_cluster`` / ``trim_projections`` /
``refresh_threshold``), which patch the affected plan entries; this
module does exactly that, so a drift-free stream stays bit-identical to
driving a bare index.  :meth:`StreamingSSPC.checkpoint` persists the
engine through the existing model-artifact format (see
:mod:`repro.stream.checkpoint`); a restored engine continues the stream
bit-identically to one that never stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.dimension_selection import select_dimensions
from repro.core.model import OUTLIER_LABEL
from repro.core.objective import ObjectiveFunction, column_median, column_variance
from repro.core.stats_cache import ClusterStatsCache, merge_mean_variance
from repro.serving.artifact import ModelArtifact, threshold_from_description
from repro.serving.index import ProjectedClusterIndex, group_rows
from repro.stream.drift import DriftDetector
from repro.stream.lifecycle import SPAWN_GRIDS, OutlierBuffer, RowWindow, find_spawn_candidate

__all__ = ["BatchResult", "StreamConfig", "StreamEvent", "StreamingSSPC"]

#: Consecutive lifecycle sweeps a cluster may go without accepting a
#: single point before it is retired.
RETIRE_PATIENCE = 3
#: Per-cluster bound on the recent-rows drift window.
DRIFT_WINDOW = 256
#: Minimum window rows before a cluster can be flagged as drifted.
DRIFT_MIN_POINTS = 48

#: Fields older checkpoints store, each with the one value the engine
#: now fixes.  The statistics caches it creates keep
#: ``ClusterStatsCache``'s default bound (128), and a drift refresh
#: always refits the selection thresholds.
RETIRED_CONFIG_FIELDS = {
    "spawn_grids": SPAWN_GRIDS,
    "retire_patience": RETIRE_PATIENCE,
    "drift_window": DRIFT_WINDOW,
    "drift_min_points": DRIFT_MIN_POINTS,
    "refresh_thresholds": True,
    "stats_cache_max_entries": 128,
}


@dataclass
class StreamConfig:
    """Tuning knobs of the streaming engine.

    Each field is set by a ``repro-stream run`` flag; the engine's other
    settings are constants (:data:`RETIRE_PATIENCE`, :data:`DRIFT_WINDOW`,
    :data:`DRIFT_MIN_POINTS`, :data:`~repro.stream.lifecycle.SPAWN_GRIDS`).

    Attributes
    ----------
    outlier_buffer_size:
        Capacity of the bounded rejected-row FIFO.
    lifecycle_every:
        Batches between spawn/retire sweeps; ``0`` disables lifecycle
        management entirely.
    spawn_min_points:
        Minimum dense-peak size that justifies spawning a cluster.
    max_clusters:
        Hard cap on live clusters (``None`` = unbounded).
    drift_check_every:
        Batches between drift assessments; ``0`` disables drift
        adaptation.
    drift_zscore:
        Shift-statistic threshold (see :class:`~repro.stream.drift.DriftDetector`).
    projection_window:
        When set, the serving index bounds each cluster's projection
        buffer to this many newest rows as traffic folds in — bounded
        memory at the cost of window (rather than full-history)
        medians, paying a single median pass per fold.  ``None`` keeps
        the serving layer's exact unbounded behaviour.
    seed:
        Seed of the engine's own randomness (grid sampling during
        spawns); combined with the sweep counter, so behaviour is
        reproducible and checkpoint/restore-stable.
    """

    outlier_buffer_size: int = 1024
    lifecycle_every: int = 8
    spawn_min_points: int = 24
    max_clusters: Optional[int] = None
    drift_check_every: int = 4
    drift_zscore: float = 8.0
    projection_window: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.outlier_buffer_size < 1:
            raise ValueError("outlier_buffer_size must be at least 1")
        for name in ("lifecycle_every", "drift_check_every"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative (0 disables)" % name)
        if self.spawn_min_points < 2:
            raise ValueError("spawn_min_points must be at least 2")
        if self.projection_window is not None and self.projection_window < 1:
            raise ValueError("projection_window must be positive or None")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (checkpoint manifest payload)."""
        return {
            "outlier_buffer_size": int(self.outlier_buffer_size),
            "lifecycle_every": int(self.lifecycle_every),
            "spawn_min_points": int(self.spawn_min_points),
            "max_clusters": None if self.max_clusters is None else int(self.max_clusters),
            "drift_check_every": int(self.drift_check_every),
            "drift_zscore": float(self.drift_zscore),
            "projection_window": (
                None if self.projection_window is None else int(self.projection_window)
            ),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StreamConfig":
        """Inverse of :meth:`to_dict`; also reads an older checkpoint's config.

        A retired field (:data:`RETIRED_CONFIG_FIELDS`) is accepted at the
        value the engine now fixes and raises :class:`ValueError` naming
        it at any other.
        """
        payload = dict(payload)
        for name, fixed in RETIRED_CONFIG_FIELDS.items():
            value = payload.pop(name, fixed)
            if value != fixed:
                raise ValueError(
                    "the stored stream config sets %s=%r; the engine fixes it at %r"
                    % (name, value, fixed)
                )
        return cls(**payload)


@dataclass
class StreamEvent:
    """One adaptation the engine performed (spawn / retire / drift)."""

    kind: str
    batch_index: int
    cluster_id: int
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "batch_index": int(self.batch_index),
            "cluster_id": int(self.cluster_id),
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StreamEvent":
        return cls(
            kind=str(payload["kind"]),
            batch_index=int(payload["batch_index"]),
            cluster_id=int(payload["cluster_id"]),
            details=dict(payload.get("details", {})),
        )


@dataclass
class BatchResult:
    """Outcome of one :meth:`StreamingSSPC.process_batch` call.

    ``labels`` uses stable cluster ids (``-1`` marks gated-out rows), as
    of assignment time — adaptations triggered *by* this batch apply to
    the next one.
    """

    batch_index: int
    labels: np.ndarray
    n_assigned: int
    n_outliers: int
    events: List[StreamEvent] = field(default_factory=list)


class StreamingSSPC:
    """Online projected clustering over an unbounded micro-batch stream.

    Parameters
    ----------
    artifact:
        The fitted model to start from (e.g. ``model.to_artifact()`` or
        a loaded checkpoint's model directory).
    config:
        Engine tuning; defaults to :class:`StreamConfig`'s defaults.

    Notes
    -----
    Exact median maintenance — and therefore faithful drift-free
    behaviour — requires an artifact saved *with* member projections
    (the default).

    Per batch, :meth:`process_batch` checks the points once, lets the
    index fold them, then splits the batch once by label (a stable
    argsort, :func:`~repro.serving.index.group_rows`): each cluster's
    accepted rows go to its drift window and the rejected rows to the
    outlier buffer.  Both are
    :class:`~repro.stream.lifecycle.RowWindow` s, which append in place
    instead of copying the whole window per batch, so a batch that
    triggers no sweep costs O(batch x d) memory whatever the buffer
    sizes.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        *,
        config: Optional[StreamConfig] = None,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self.index = ProjectedClusterIndex(
            artifact, projection_window=self.config.projection_window
        )
        self._source_artifact = artifact
        # Points the source artifact had already absorbed before this
        # engine existed; checkpoints record base + the index's own
        # count, so re-checkpointing never double-counts (fold_into's
        # += convention assumes a fresh per-process index).
        self._source_absorbed_base = int(artifact.metadata.get("absorbed_points", 0))
        k = self.index.n_clusters
        d = self.index.n_dimensions
        self.cluster_ids: List[int] = list(range(k))
        self._next_cluster_id = k
        self._windows: List[RowWindow] = [RowWindow(DRIFT_WINDOW, d) for _ in range(k)]
        # Drift references self-calibrate from the first full window of
        # *stream* traffic (None until then): training-member statistics
        # and serving-accepted statistics differ by a small systematic
        # gate bias, which the sqrt(w)-scaled shift tests would amplify
        # into false drift on a perfectly stationary stream.
        self._references: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * k
        self._accepted_since_sweep: List[int] = [0] * k
        self._starved_sweeps: List[int] = [0] * k
        self.outliers = OutlierBuffer(self.config.outlier_buffer_size, d)
        self._global_size = 0
        self._global_mean = np.zeros(d)
        self._global_variance = np.zeros(d)
        self._detector = DriftDetector(zscore=self.config.drift_zscore, min_points=DRIFT_MIN_POINTS)
        self.n_batches = 0
        self.n_points = 0
        self.n_spawned = 0
        self.n_spawns_rejected = 0
        self.n_retired = 0
        self.n_drift_refreshes = 0
        self._n_sweeps = 0
        self._adapted = False
        self.events: List[StreamEvent] = []

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        """Number of live clusters."""
        return self.index.n_clusters

    @property
    def adapted(self) -> bool:
        """Whether any spawn / retire / drift refresh has occurred."""
        return self._adapted

    @property
    def global_statistics(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """Running ``(size, mean, variance)`` of the whole stream."""
        return self._global_size, self._global_mean.copy(), self._global_variance.copy()

    def position_of(self, cluster_id: int) -> int:
        """Index position of a stable cluster id (raises if retired)."""
        return self.cluster_ids.index(int(cluster_id))

    def cluster_statistics(self, cluster_id: int):
        """Serving statistics snapshot of the cluster with this stable id."""
        return self.index.cluster_statistics(self.position_of(cluster_id))

    def cluster_summary(self) -> List[Dict[str, object]]:
        """One dict per live cluster (id, size, dimensionality, window)."""
        summary = []
        for position, cluster_id in enumerate(self.cluster_ids):
            stats = self.index.cluster_statistics(position)
            summary.append(
                {
                    "cluster_id": int(cluster_id),
                    "size": int(stats.size),
                    "n_dimensions": int(stats.dimensions.size),
                    "window_rows": len(self._windows[position]),
                    "starved_sweeps": int(self._starved_sweeps[position]),
                }
            )
        return summary

    # ------------------------------------------------------------------ #
    # hot path
    # ------------------------------------------------------------------ #
    def process_batch(self, points: np.ndarray) -> BatchResult:
        """Assign, gate and fold one micro-batch; adapt when triggered.

        Returns the batch's stable-id label vector plus any adaptation
        events the batch triggered.  ``points`` is checked as the index
        checks it (a 1-d array is one point) before anything changes, so
        a rejected batch leaves the engine and its index as they were.
        """
        points = self.index.check_points(points)
        with obs.span("stream.batch", category="stream", batch=self.n_batches) as batch_span:
            positions = self.index._fold(points)
            batch_index = self.n_batches
            self.n_batches += 1
            self.n_points += int(points.shape[0])

            # Stable-id labels reflect the assignment that was just applied,
            # before any adaptation below can re-number positions; the
            # outlier label -1 picks the appended sentinel.
            labels = np.append(np.asarray(self.cluster_ids, dtype=int), OUTLIER_LABEL)[positions]

            grouped, starts = group_rows(points, positions, self.index.n_clusters)
            for position, window in enumerate(self._windows):
                rows = grouped[starts[position + 1] : starts[position + 2]]
                if rows.shape[0]:
                    self._accepted_since_sweep[position] += int(rows.shape[0])
                    window.extend(rows)
            n_outliers = int(starts[1])
            if n_outliers:
                self.outliers.extend(grouped[:n_outliers])
            self._update_global(points)

            events: List[StreamEvent] = []
            if self.config.drift_check_every and self.n_batches % self.config.drift_check_every == 0:
                events.extend(self._drift_pass(batch_index))
            if self.config.lifecycle_every and self.n_batches % self.config.lifecycle_every == 0:
                events.extend(self._lifecycle_sweep(batch_index))
            self.events.extend(events)

            n_assigned = int(points.shape[0] - n_outliers)
            recorder = obs.get_recorder()
            if recorder is not None:
                n_batch = int(points.shape[0])
                recorder.incr("stream.points", float(n_batch))
                recorder.incr("stream.outliers", float(n_outliers))
                recorder.observe("stream.batch_size", float(n_batch))
                recorder.observe(
                    "stream.outlier_rate", n_outliers / n_batch if n_batch else 0.0
                )
                recorder.gauge("stream.clusters", float(self.index.n_clusters))
                # Mirror lifecycle/drift adaptation into the structured
                # event log (kinds: drift, spawn, retire).
                for stream_event in events:
                    detail = dict(stream_event.details or {})
                    detail["batch_index"] = int(stream_event.batch_index)
                    detail["cluster_id"] = int(stream_event.cluster_id)
                    recorder.event(stream_event.kind, **detail)
                batch_span.set(n_assigned=n_assigned, n_outliers=n_outliers,
                               events=len(events))
            return BatchResult(
                batch_index=batch_index,
                labels=labels,
                n_assigned=n_assigned,
                n_outliers=n_outliers,
                events=events,
            )

    def _update_global(self, points: np.ndarray) -> None:
        """Fold a batch into the running stream-wide statistics."""
        batch_mean = points.mean(axis=0)
        self._global_size, self._global_mean, self._global_variance = merge_mean_variance(
            self._global_size,
            self._global_mean,
            self._global_variance,
            points.shape[0],
            batch_mean,
            column_variance(points, batch_mean),
        )

    # ------------------------------------------------------------------ #
    # drift adaptation
    # ------------------------------------------------------------------ #
    def _drift_pass(self, batch_index: int) -> List[StreamEvent]:
        events: List[StreamEvent] = []
        for position in range(self.index.n_clusters):
            window = self._windows[position].rows
            if self._references[position] is None:
                # First full window of accepted stream traffic becomes
                # the reference — calibrated on the same acceptance
                # mechanism later windows flow through.
                if window.shape[0] >= DRIFT_MIN_POINTS:
                    self._references[position] = (
                        window.mean(axis=0),
                        window.var(axis=0, ddof=1),
                    )
                continue
            stats = self.index.cluster_statistics(position)
            reference_mean, reference_variance = self._references[position]
            verdict = self._detector.assess(
                reference_mean, reference_variance, stats.dimensions, window
            )
            if verdict.drifted:
                events.append(self._refresh_cluster(position, batch_index, verdict))
        return events

    def _refresh_cluster(self, position: int, batch_index: int, verdict) -> StreamEvent:
        """Re-select dimensions and re-anchor one drifted cluster."""
        window = self._windows[position].rows
        if self._global_size >= 2:
            self.index.refresh_threshold(self._global_variance)
        # SelectDim over the recent window, through the shared statistics
        # engine (one cached pass serves the selection and the re-anchor).
        workspace = ClusterStatsCache(window)
        objective = ObjectiveFunction(window, self.index.threshold, stats_cache=workspace)
        members = np.arange(window.shape[0])
        dimensions = select_dimensions(objective, members)
        if dimensions.size == 0:
            # The window selects nothing (e.g. mid-transition noise):
            # keep the old subspace rather than making the cluster
            # unservable.
            dimensions = self.index.cluster_statistics(position).dimensions
        self.index.reanchor_cluster(position, dimensions, window)
        stats = workspace.statistics(members)
        self._references[position] = (stats.mean.copy(), stats.variance.copy())
        self.n_drift_refreshes += 1
        self._adapted = True
        return StreamEvent(
            kind="drift",
            batch_index=batch_index,
            cluster_id=int(self.cluster_ids[position]),
            details={
                "score": float(verdict.score),
                "worst_dimension": int(verdict.worst_dimension),
                "window_rows": int(window.shape[0]),
                "n_dimensions": int(dimensions.size),
            },
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _lifecycle_sweep(self, batch_index: int) -> List[StreamEvent]:
        self._n_sweeps += 1
        events: List[StreamEvent] = []
        for position in range(self.index.n_clusters):
            if self._accepted_since_sweep[position] == 0:
                self._starved_sweeps[position] += 1
            else:
                self._starved_sweeps[position] = 0
            self._accepted_since_sweep[position] = 0
        for position in reversed(range(self.index.n_clusters)):
            if (
                self._starved_sweeps[position] >= RETIRE_PATIENCE
                and self.index.n_clusters > 1
            ):
                events.append(self._retire(position, batch_index))
        spawn_event = self._try_spawn(batch_index)
        if spawn_event is not None:
            events.append(spawn_event)
        return events

    def _retire(self, position: int, batch_index: int) -> StreamEvent:
        cluster_id = self.cluster_ids[position]
        size = int(self.index.cluster_statistics(position).size)
        self.index.remove_cluster(position)
        for bookkeeping in (
            self.cluster_ids,
            self._windows,
            self._references,
            self._accepted_since_sweep,
            self._starved_sweeps,
        ):
            del bookkeeping[position]
        self.n_retired += 1
        self._adapted = True
        return StreamEvent(
            kind="retire",
            batch_index=batch_index,
            cluster_id=int(cluster_id),
            details={"size": size, "starved_sweeps": RETIRE_PATIENCE},
        )

    def _try_spawn(self, batch_index: int) -> Optional[StreamEvent]:
        if len(self.outliers) < self.config.spawn_min_points:
            return None
        if (
            self.config.max_clusters is not None
            and self.index.n_clusters >= self.config.max_clusters
        ):
            return None
        rng = np.random.default_rng([int(self.config.seed), 3, self._n_sweeps])
        with obs.span("stream.spawn_search", category="stream", rows=len(self.outliers)) as span:
            candidate = find_spawn_candidate(
                self.outliers.rows,
                self._spawn_threshold(),
                rng,
                min_points=self.config.spawn_min_points,
            )
            if candidate is None:
                span.set(outcome="none")
                return None
            seeds, dimensions, peak_density = candidate
            rows = self.outliers.rows[seeds]
            # Leakage guard: borderline members of an *existing* cluster are
            # rejected one by one yet pile up into a dense buffer region
            # whose center scores well against that cluster.  A genuinely
            # new cluster's center is unservable everywhere.  Reject (and
            # drop) servable candidates instead of spawning a duplicate.
            center = column_median(rows)
            gains = self.index.gains_single(center)
            if gains.size and np.max(gains) > 0.0:
                self.outliers.remove(seeds)
                self.n_spawns_rejected += 1
                span.set(outcome="rejected")
                return None
            span.set(outcome="spawned")
        self.index.add_cluster(dimensions, rows)
        cluster_id = self._next_cluster_id
        self._next_cluster_id += 1
        self.cluster_ids.append(cluster_id)
        window = RowWindow(DRIFT_WINDOW, self.index.n_dimensions)
        window.extend(rows)
        self._windows.append(window)
        # The spawn rows were *gated-out* traffic; the cluster's drift
        # reference calibrates lazily from the accepted traffic it will
        # now start receiving.
        self._references.append(None)
        self._accepted_since_sweep.append(0)
        self._starved_sweeps.append(0)
        self.outliers.remove(seeds)
        self.n_spawned += 1
        self._adapted = True
        return StreamEvent(
            kind="spawn",
            batch_index=batch_index,
            cluster_id=int(cluster_id),
            details={
                "size": int(rows.shape[0]),
                "n_dimensions": int(dimensions.size),
                "peak_density": int(peak_density),
            },
        )

    def _spawn_threshold(self):
        """A threshold scheme fitted on the stream-era global population."""
        if self._global_size >= 2:
            global_variance = self._global_variance
        else:
            global_variance = self.index.global_variance
        return threshold_from_description(self.index.threshold_description, global_variance)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def checkpoint(self, path, *, metadata: Optional[Dict[str, object]] = None):
        """Persist the engine to ``path`` (see :mod:`repro.stream.checkpoint`)."""
        from repro.stream.checkpoint import save_checkpoint

        return save_checkpoint(self, path, metadata=metadata)

    @classmethod
    def restore(cls, path, *, config: Optional[StreamConfig] = None) -> "StreamingSSPC":
        """Rebuild an engine from a checkpoint directory."""
        from repro.stream.checkpoint import load_checkpoint

        return load_checkpoint(path, config=config)

    def __repr__(self) -> str:
        return "StreamingSSPC(k=%d, batches=%d, points=%d, spawned=%d, retired=%d, drifts=%d)" % (
            self.n_clusters,
            self.n_batches,
            self.n_points,
            self.n_spawned,
            self.n_retired,
            self.n_drift_refreshes,
        )
