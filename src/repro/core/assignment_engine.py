"""Incremental assignment engine for the SSPC gain kernel.

The ``(n, k)`` assignment-gain matrix (Listing 2 step 3; see
:func:`repro.core.objective.grouped_assignment_gains`) is the hot path of
every layer built on the reproduction: the training loop re-evaluates it
once per iteration, the serving index once per query batch and the
streaming engine once per micro-batch.  The shared kernel is a pure
function — every call re-stacks the per-cluster ``dims`` / ``centers`` /
``thresholds`` lists into grouped arrays, allocates the full ``(n, g,
c)`` gather/delta temporaries and recomputes **all** ``k`` columns, even
when nothing changed since the previous call.

:class:`AssignmentEngine` makes the kernel *stateful* around three
observations:

1. **Persistent plan** — the grouped stacks are built once
   (:meth:`set_clusters`) and surgically patched when a cluster mutates
   (:meth:`update_cluster` / :meth:`add_cluster` /
   :meth:`remove_cluster`): an unchanged cluster costs nothing per call,
   a changed one a single row write (or a two-group restack when its
   selected-dimension *count* changes).  A serving fold, which moves a
   cluster's center but never its dimensions, writes the row directly
   (:meth:`write_center`).
2. **Dirty-cluster tracking** — a gain column is a pure function of
   ``(points, dims_i, center_i, thresholds_i)``, so when the engine is
   bound to a *fixed* point set (the training data) it caches the
   ``(n, k)`` matrix and recomputes only the columns of clusters that
   changed.  :meth:`update_cluster` diffs the submitted values against
   the plan and leaves bit-identical clusters clean, so callers never
   report changes themselves and a cluster that comes back with
   identical values (a restored best-so-far snapshot) costs nothing.
3. **Blocked, preallocated evaluation** — columns are evaluated in
   bounded row blocks through reusable flat workspaces filled with
   ``out=`` ufuncs, so peak memory is capped at
   ``BLOCK_ROWS * g * c`` elements instead of the full ``(n, g, c)``
   broadcast, and steady-state evaluation allocates nothing beyond the
   result itself.

Bit-identity contract
---------------------
Results are **bit-identical** to
:func:`~repro.core.objective.grouped_assignment_gains`: the grouping by
selected-dimension count is the same, the element-wise operation
sequence (gather, subtract, square, divide, subtract-from-one) is the
same, and each per-cluster reduction runs over the same ``c`` contiguous
elements with numpy's pairwise summation — which is independent of both
the row blocking and of which other clusters share the stack.  The
equivalence suite (``tests/test_assignment_engine.py``) enforces this
after every mutation, and the ``hotpath`` bench scenario checks it
through the training loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

__all__ = ["AssignmentEngine", "BLOCK_ROWS", "MAX_WORKSPACE_ELEMENTS"]

#: Number of rows evaluated per block.  The effective block also honours
#: :data:`MAX_WORKSPACE_ELEMENTS`, so wide plans shrink it.
BLOCK_ROWS = 2048

#: Cap on the gather workspace size (float64 elements, 16 MiB): the
#: effective row block is ``min(BLOCK_ROWS, cap // (g * c))``.
MAX_WORKSPACE_ELEMENTS = 1 << 21


class _GroupPlan:
    """The stacked arrays of every cluster sharing one dimension count."""

    __slots__ = ("cluster_ids", "dims", "centers", "thresholds")

    def __init__(
        self,
        cluster_ids: np.ndarray,
        dims: np.ndarray,
        centers: np.ndarray,
        thresholds: np.ndarray,
    ) -> None:
        self.cluster_ids = cluster_ids
        self.dims = dims
        self.centers = centers
        self.thresholds = thresholds


def _as_dims(dimensions) -> np.ndarray:
    # Always a fresh owning copy: the plan diffs future submissions
    # against these arrays, so storing a caller's array by reference
    # would make an in-place mutation + resubmission compare the array
    # against itself and silently serve stale cached gains.
    return np.array(np.asarray(dimensions, dtype=np.intp).ravel(), copy=True)


def _as_values(values, size: int, name: str) -> np.ndarray:
    array = np.array(np.asarray(values, dtype=float).ravel(), copy=True)
    if array.shape[0] != size:
        raise ValueError(
            "%s has %d values but the cluster selects %d dimensions"
            % (name, array.shape[0], size)
        )
    return array


class AssignmentEngine:
    """Stateful, incrementally maintained assignment-gain kernel.

    Parameters
    ----------
    points:
        Optional fixed ``(n, d)`` float64 C-contiguous point set.  When
        bound, :meth:`gains` caches the ``(n, k)`` matrix and recomputes
        only dirty columns; :meth:`compute` always works for arbitrary
        batches (the serving / streaming mode) using the same persistent
        plan and workspaces.  The engine never copies or validates
        ``points`` — callers own the
        canonical-representation contract (see
        :func:`repro.utils.validation.check_array_2d`).

    Notes
    -----
    Peak workspace memory is ``min(BLOCK_ROWS, cap // (g c)) * g * c``
    floats per plan group.

    The matrix returned by :meth:`gains` is the engine's live cache —
    callers must treat it as read-only (the consumers in this repository
    wrap it in a non-writeable view).  :meth:`compute` returns a fresh
    array the caller owns.
    """

    def __init__(self, points: Optional[np.ndarray] = None) -> None:
        self._points = points
        self._dims: List[np.ndarray] = []
        self._centers: List[np.ndarray] = []
        self._thresholds: List[np.ndarray] = []
        self._slot: List[Optional[Tuple[int, int]]] = []  # (count, row) or None
        self._groups: Dict[int, _GroupPlan] = {}
        self._dirty: set = set()
        self._gains: Optional[np.ndarray] = None
        self._workspace = np.empty(0)
        self._reduce_buffer = np.empty(0)
        # Observability counters (the equivalence tests read these).
        self.n_gains_calls = 0
        self.n_columns_recomputed = 0
        self.n_updates_changed = 0
        self.n_updates_clean = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> Optional[np.ndarray]:
        """The bound fixed point set (``None`` in per-batch mode)."""
        return self._points

    @property
    def n_clusters(self) -> int:
        """Number of clusters in the plan."""
        return len(self._dims)

    @property
    def n_dirty(self) -> int:
        """Number of columns awaiting recomputation."""
        return len(self._dirty)

    def cluster_plan(self, index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of one cluster's planned ``(dims, center, thresholds)``."""
        return (
            self._dims[index].copy(),
            self._centers[index].copy(),
            self._thresholds[index].copy(),
        )

    # ------------------------------------------------------------------ #
    # plan maintenance
    # ------------------------------------------------------------------ #
    def set_clusters(
        self,
        dimensions: Sequence[np.ndarray],
        centers: Sequence[np.ndarray],
        thresholds: Sequence[np.ndarray],
    ) -> None:
        """(Re)build the full plan; every column becomes dirty.

        ``centers`` and ``thresholds`` are the per-cluster values
        *already restricted* to the cluster's selected dimensions, as in
        :func:`~repro.core.objective.grouped_assignment_gains`.
        """
        k = len(dimensions)
        if not (len(centers) == len(thresholds) == k):
            raise ValueError("dimensions, centers and thresholds must align")
        self._dims = [_as_dims(dims) for dims in dimensions]
        self._centers = [
            _as_values(centers[i], self._dims[i].size, "centers[%d]" % i) for i in range(k)
        ]
        self._thresholds = [
            _as_values(thresholds[i], self._dims[i].size, "thresholds[%d]" % i)
            for i in range(k)
        ]
        self._slot = [None] * k
        self._groups = {}
        for count in {dims.size for dims in self._dims}:
            self._rebuild_group(count)
        self._dirty = set(range(k))
        self._gains = None

    def update_cluster(
        self,
        index: int,
        dimensions,
        center,
        threshold,
    ) -> bool:
        """Patch one cluster's plan entry; returns whether it changed.

        The submitted values are diffed against the plan: a cluster
        whose dims, center and thresholds are bit-identical to the
        planned ones stays clean and keeps its cached column.
        """
        if not (0 <= index < self.n_clusters):
            raise IndexError("cluster index %d out of range" % index)
        dims = _as_dims(dimensions)
        center_ = _as_values(center, dims.size, "center")
        threshold_ = _as_values(threshold, dims.size, "threshold")
        if (
            np.array_equal(self._dims[index], dims)
            and np.array_equal(self._centers[index], center_)
            and np.array_equal(self._thresholds[index], threshold_)
        ):
            self.n_updates_clean += 1
            return False
        old_count = self._dims[index].size
        self._dims[index] = dims
        self._centers[index] = center_
        self._thresholds[index] = threshold_
        if dims.size == old_count and dims.size > 0:
            # Surgical in-place row patch: the common mutation keeps the
            # selected-dimension count, so no restack is needed.
            count, row = self._slot[index]
            group = self._groups[count]
            group.dims[row] = dims
            group.centers[row] = center_
            group.thresholds[row] = threshold_
        elif dims.size != old_count:
            # The cluster moves between groups: restack only the two
            # affected counts.  An empty dimension set belongs to no
            # group (its column is pinned to -inf).
            self._slot[index] = None
            self._rebuild_group(old_count)
            self._rebuild_group(dims.size)
        self._dirty.add(index)
        self.n_updates_changed += 1
        return True

    def write_center(
        self, index: int, center: np.ndarray, threshold: Optional[np.ndarray] = None
    ) -> None:
        """Write one cluster's new center, and thresholds if given, into its plan row.

        The serving fold's patch: a fold moves a cluster's center and
        size, never its dimensions, so the values are written straight
        into the planned arrays, with no copy, coercion or diff (use
        :meth:`update_cluster` for anything else).  The cluster must have
        a non-empty dimension set, and ``center`` and ``threshold`` must
        be float64 vectors of its dimension count.  Its column becomes
        dirty.
        """
        count, row = self._slot[index]
        group = self._groups[count]
        self._centers[index][:] = center
        group.centers[row] = center
        if threshold is not None:
            self._thresholds[index][:] = threshold
            group.thresholds[row] = threshold
        self._dirty.add(index)

    def invalidate(self) -> None:
        """Mark every column dirty (full recomputation on next :meth:`gains`)."""
        self._dirty = set(range(self.n_clusters))

    def add_cluster(self, dimensions, center, threshold) -> int:
        """Append a cluster to the plan; returns its index (column)."""
        dims = _as_dims(dimensions)
        self._dims.append(dims)
        self._centers.append(_as_values(center, dims.size, "center"))
        self._thresholds.append(_as_values(threshold, dims.size, "threshold"))
        self._slot.append(None)
        index = self.n_clusters - 1
        self._rebuild_group(dims.size)
        if self._gains is not None:
            column = np.full((self._gains.shape[0], 1), -np.inf)
            self._gains = np.ascontiguousarray(np.hstack([self._gains, column]))
        self._dirty.add(index)
        return index

    def remove_cluster(self, index: int) -> None:
        """Drop a cluster; later columns shift down, clean columns survive."""
        if not (0 <= index < self.n_clusters):
            raise IndexError("cluster index %d out of range" % index)
        del self._dims[index]
        del self._centers[index]
        del self._thresholds[index]
        self._slot = [None] * self.n_clusters
        self._groups = {}
        for count in {dims.size for dims in self._dims}:
            self._rebuild_group(count)
        self._dirty = {i if i < index else i - 1 for i in self._dirty if i != index}
        if self._gains is not None:
            self._gains = np.ascontiguousarray(np.delete(self._gains, index, axis=1))

    def _rebuild_group(self, count: int) -> None:
        """Restack the group of one dimension count from the plan lists."""
        if count == 0:
            return
        ids = [i for i, dims in enumerate(self._dims) if dims.size == count]
        if not ids:
            self._groups.pop(count, None)
            return
        group = _GroupPlan(
            cluster_ids=np.asarray(ids, dtype=np.intp),
            dims=np.stack([self._dims[i] for i in ids]),
            centers=np.stack([self._centers[i] for i in ids]),
            thresholds=np.stack([self._thresholds[i] for i in ids]),
        )
        self._groups[count] = group
        for row, cluster in enumerate(ids):
            self._slot[cluster] = (count, row)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def gains(self) -> np.ndarray:
        """The cached ``(n, k)`` matrix over the bound fixed point set.

        Recomputes only dirty columns (all of them on the first call).
        The returned array is the engine's live cache — treat it as
        read-only and do not hold it across plan mutations.
        """
        if self._points is None:
            raise RuntimeError(
                "engine has no bound point set; use compute(points) instead"
            )
        n = self._points.shape[0]
        k = self.n_clusters
        if self._gains is None or self._gains.shape != (n, k):
            self._gains = np.full((n, k), -np.inf)
            self._dirty = set(range(k))
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.incr("engine.gains_calls")
            recorder.incr("engine.columns_recomputed", float(len(self._dirty)))
            recorder.observe("engine.dirty_fraction", len(self._dirty) / k if k else 0.0)
        if self._dirty:
            with obs.span("engine.recompute", category="engine",
                          dirty=len(self._dirty), n_clusters=k, rows=n):
                by_count: Dict[int, List[int]] = {}
                for index in sorted(self._dirty):
                    count = self._dims[index].size
                    if count == 0:
                        self._gains[:, index] = -np.inf
                    else:
                        by_count.setdefault(count, []).append(index)
                with obs.span("engine.kernel", category="engine", rows=n,
                              groups=len(by_count)):
                    for count, ids in by_count.items():
                        group = self._groups[count]
                        if len(ids) == group.cluster_ids.shape[0]:
                            dims, centers, thresholds = (
                                group.dims, group.centers, group.thresholds
                            )
                        else:
                            rows = [self._slot[i][1] for i in ids]
                            dims = group.dims[rows]
                            centers = group.centers[rows]
                            thresholds = group.thresholds[rows]
                        self._evaluate_columns(
                            self._points, np.asarray(ids, dtype=np.intp), dims,
                            centers, thresholds, self._gains,
                        )
                self.n_columns_recomputed += len(self._dirty)
                self._dirty.clear()
        self.n_gains_calls += 1
        return self._gains

    def compute(self, points: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The ``(n, k)`` gains of an arbitrary batch against the plan.

        The per-batch mode used by serving and streaming: the persistent
        plan and the blocked workspaces are reused, only the result array
        is (by default) freshly allocated and owned by the caller.
        """
        n = points.shape[0]
        k = self.n_clusters
        if out is None:
            out = np.full((n, k), -np.inf)
        else:
            if out.shape != (n, k):
                raise ValueError("out has shape %s, expected %s" % (out.shape, (n, k)))
            out.fill(-np.inf)
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.incr("engine.compute_calls")
            recorder.observe("engine.compute_rows", float(n))
        with obs.span("engine.compute", category="engine", rows=n, n_clusters=k):
            with obs.span("engine.kernel", category="engine", rows=n,
                          groups=len(self._groups)):
                for group in self._groups.values():
                    self._evaluate_columns(
                        points, group.cluster_ids, group.dims, group.centers,
                        group.thresholds, out,
                    )
        return out

    def _evaluate_columns(
        self,
        points: np.ndarray,
        cluster_ids: np.ndarray,
        dims: np.ndarray,
        centers: np.ndarray,
        thresholds: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Blocked zero-allocation evaluation of one stacked group.

        Bit-identical to
        :func:`~repro.core.objective.grouped_assignment_gains`: the
        element-wise operation sequence is the same, and the workspace
        replicates the reference gather's memory layout — the fancy
        index ``points[:, dims_stack]`` materializes a subspace-major
        ``(g c, n)`` buffer viewed as a transposed ``(n, g, c)`` array,
        so the reference reduction over the dimension axis is a
        *strided* pairwise sum.  The workspace here is filled in that
        same ``(g c, rows)`` layout and summed through the same
        transposed view; pairwise-summation grouping depends only on the
        reduction length and on (non-)contiguity, never on the stride
        value or the row count, so blocking the rows changes nothing.
        """
        g, c = dims.shape
        n = points.shape[0]
        if g == 0 or c == 0 or n == 0:
            return
        # A single-row block would make the transposed view's reduction
        # axis contiguous and flip numpy onto a differently-grouped sum,
        # so blocks are at least 2 rows and the final block absorbs an
        # orphan row (n == 1 overall is fine: the reference gather is
        # contiguous there too).
        block = max(2, min(BLOCK_ROWS, MAX_WORKSPACE_ELEMENTS // (g * c)))
        flat_dims = dims.reshape(-1)
        if self._workspace.size < (block + 1) * g * c:
            self._workspace = np.empty((block + 1) * g * c)
        if self._reduce_buffer.size < (block + 1) * g:
            self._reduce_buffer = np.empty((block + 1) * g)
        start = 0
        while start < n:
            stop = min(start + block, n)
            if n - stop == 1:
                stop = n
            rows = stop - start
            gathered = self._workspace[: rows * g * c].reshape(g * c, rows)
            np.take(points[start:stop].T, flat_dims, axis=0, out=gathered)
            cube = gathered.reshape(g, c, rows).transpose(2, 0, 1)
            np.subtract(cube, centers[None, :, :], out=cube)
            np.square(cube, out=cube)
            np.divide(cube, thresholds[None, :, :], out=cube)
            np.subtract(1.0, cube, out=cube)
            # The reference sum allocates its output in F order (the
            # layout nditer derives from the transposed operand) and
            # accumulates the dimension axis plane by plane; an
            # F-ordered out= view keeps that exact association, where a
            # C-ordered one would flip numpy onto a different grouping.
            reduced = self._reduce_buffer[: rows * g].reshape(g, rows).T
            cube.sum(axis=2, out=reduced)
            out[start:stop, cluster_ids] = reduced
            start = stop

    def __repr__(self) -> str:
        return "AssignmentEngine(k=%d, fixed=%s, dirty=%d)" % (
            self.n_clusters,
            self._points is not None,
            len(self._dirty),
        )
