"""Compute backends for the serving daemon: in-process or a worker-process pool.

Both backends expose the same ``async`` surface (``predict`` /
``predict_soft`` / ``partial_update`` / ``reload_replicas``) so the
application layer does not care where the kernel runs:

* :class:`InProcessBackend` (``workers=0``) holds one
  :class:`~repro.serving.index.ProjectedClusterIndex` and runs every
  kernel call on a single dedicated compute thread — the event loop
  keeps parsing requests while numpy works, and one thread means the
  index needs no locking.
* :class:`WorkerPoolBackend` (``workers >= 1``) forks N worker
  processes.  Requests round-robin across idle workers over pipes; each
  worker handles one message at a time, so a worker's index is never
  touched concurrently.  A pipe round trip that takes longer than
  :data:`CALL_TIMEOUT_S` marks its worker hung.

Every index the daemon builds maps its artifact
(``load_artifact(..., mmap_mode="r")`` → one set of physical pages
machine-wide) and aliases the mapped projection buffers.  Only an
artifact written before the uncompressed-NPZ schema, which cannot be
mapped, is loaded eagerly.

Ownership (the write path)
--------------------------
``partial_update`` mutates serving state, and replicas that fold
independently would diverge.  The pool routes **every fold through
worker 0 — the owner**.  The owner applies the fold and commits its
post-fold state to the ``state_dir`` generation store
(:class:`~repro.reliability.generations.GenerationStore`) as
``gen-%08d/model/``: staged, renamed into place, ``CURRENT`` flipped,
surplus generations retired to the recycled spare — all inside the
backend call, so in-process the commit's fsyncs run on the compute
thread, not the event loop.  A commit that fails undoes the fold, so
the owner goes back to the state of the last commit (or of the boot
artifact) and the update fails as a whole.  The parent then tells every
replica to drop its index and rebuild from the generation ``CURRENT``
names — again via mmap, so the rebroadcast costs page-cache references,
not copies.  An index rebuilt from an exported artifact serves
bit-identically to its source (the ``export_artifact`` contract), so
after the rebroadcast every worker answers ``/predict`` with the exact
same labels.  In-flight predicts racing a rebroadcast simply finish on
the generation their worker held when they arrived — the response's
``generation`` tag says which.

The store overwrites a generation in place three commits after writing
it, and replicas map theirs, so no live replica may lag behind: a
replica whose reload fails is taken out of rotation and stopped, like a
dead worker.  The owner never reloads; its index aliases the boot
artifact, which is why the daemon refuses a boot artifact inside its
``state_dir``.

A worker op that raises answers its request with a
:class:`BackendError` naming the worker, the op and the exception
(``worker 1 failed 'predict': ValueError: ...``); the worker-side
traceback, which names server file paths, is kept on the error for the
daemon's ``backend_error`` event and never reaches the client.  A
worker that dies (OOM, kill) poisons only the requests in flight on
it; the handle is marked dead and routing skips it.  The pool never
respawns silently — ``/healthz`` reports live worker counts and an
operator (or orchestrator) restarts the daemon.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.reliability import CompressedMemberError, GenerationStore
from repro.serving.artifact import MODEL_DIR, load_artifact
from repro.serving.index import ProjectedClusterIndex

PathLike = Union[str, Path]

__all__ = [
    "BackendError",
    "InProcessBackend",
    "WorkerPoolBackend",
    "build_serving_index",
    "make_backend",
]

#: Seconds a pipe round trip may take before the worker is declared hung.
CALL_TIMEOUT_S = 120.0


class BackendError(RuntimeError):
    """A compute backend failed to answer (worker error, crash or hang).

    The message names the worker, the op and the exception kind and
    text, and is what a client sees.  ``worker_traceback`` keeps the
    worker-side traceback, when there is one, for the daemon's own
    ``backend_error`` event: it names server file paths.
    """

    def __init__(self, message: str, worker_traceback: Optional[str] = None) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback


def build_serving_index(artifact_path: PathLike) -> ProjectedClusterIndex:
    """Build the daemon's index over the memory-mapped artifact.

    Artifacts written before the uncompressed-NPZ schema cannot be
    mapped; they fall back to the eager load (with an ``obs`` event so
    the fallback is visible in traces) instead of failing the boot.
    """
    try:
        artifact = load_artifact(artifact_path, mmap_mode="r")
    except CompressedMemberError:
        obs.event("mmap_fallback", path=str(artifact_path))
        artifact = load_artifact(artifact_path)
    return ProjectedClusterIndex(artifact)


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #
def _apply_partial_update(
    index: ProjectedClusterIndex,
    points: np.ndarray,
    labels: Optional[np.ndarray],
    state_dir: Optional[str],
) -> Tuple[np.ndarray, int]:
    """Fold points into ``index``; commit the post-fold state to the ``state_dir`` store.

    A commit that raises undoes the fold first, so the index never
    serves a state no generation holds.
    """
    before = index.n_points_absorbed
    with index.rollback_on_error():
        applied = index.partial_update(points, labels)
        if state_dir is not None:
            artifact = index.export_artifact()
            with GenerationStore(state_dir).commit() as (_, staging):
                artifact.save(staging / MODEL_DIR)
    return applied, int(index.n_points_absorbed - before)


def _traced_predict(
    index: ProjectedClusterIndex, points: np.ndarray
) -> Tuple[np.ndarray, dict]:
    """Predict under a private recorder; return ``(labels, recorder state)``.

    The recorder is local to this call (the global hooks are untouched,
    so enabled/disabled bit-identity contracts hold) and its exported
    state rides back over the pool pipe for the serving telemetry to
    merge into the originating request's trace via ``Recorder.ingest``.
    """
    recorder = obs.Recorder()
    with recorder.span(
        "worker.predict", category="server", rows=int(points.shape[0])
    ):
        labels = index.predict(points)
    return labels, recorder.export_state()


def _worker_main(conn, artifact_path: str) -> None:
    """Run one pool worker: build the index, answer ops until ``stop``.

    Messages are ``(op, *args)`` tuples; replies are ``("ok", payload)``
    or ``("error", type, message, traceback)``.  One message at a time,
    by construction — the parent holds a per-worker lock.
    """
    try:
        index = build_serving_index(artifact_path)
        conn.send(("ok", {"n_clusters": index.n_clusters, "n_dimensions": index.n_dimensions}))
    except BaseException as exc:
        conn.send(("error", type(exc).__name__, str(exc), traceback.format_exc()))
        return
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        op = message[0]
        try:
            if op == "predict":
                payload = index.predict(message[1])
            elif op == "predict_t":
                payload = _traced_predict(index, message[1])
            elif op == "predict_soft":
                labels, clusters, gains = index.top_assignments(message[1], message[2])
                payload = (labels, clusters, gains)
            elif op == "partial_update":
                payload = _apply_partial_update(index, message[1], message[2], message[3])
            elif op == "reload":
                generation = GenerationStore(message[1]).current()
                index = build_serving_index(generation / MODEL_DIR)
                payload = {"n_clusters": index.n_clusters}
            elif op == "info":
                payload = {
                    "n_clusters": index.n_clusters,
                    "n_dimensions": index.n_dimensions,
                    "n_points_absorbed": int(index.n_points_absorbed),
                }
            elif op == "stop":
                conn.send(("ok", None))
                break
            else:
                raise ValueError("unknown worker op %r" % (op,))
            conn.send(("ok", payload))
        except BaseException as exc:
            conn.send(("error", type(exc).__name__, str(exc), traceback.format_exc()))


class _WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, position: int, process, conn) -> None:
        self.position = position
        self.process = process
        self.conn = conn
        self.alock = asyncio.Lock()  # event-loop side: one op in flight
        self._io_lock = threading.Lock()  # executor side: pipe is not thread-safe
        self.alive = True

    def roundtrip_boot(self, timeout: float) -> object:
        """Receive the worker's boot report (no request message to send)."""
        with self._io_lock:
            if not self.conn.poll(timeout):
                self.alive = False
                raise BackendError(
                    "worker %d did not boot within %.0fs" % (self.position, timeout)
                )
            try:
                reply = self.conn.recv()
            except (EOFError, OSError) as exc:
                self.alive = False
                raise BackendError(
                    "worker %d died during boot: %s" % (self.position, exc)
                ) from exc
        if reply[0] == "ok":
            return reply[1]
        _, kind, msg, tb = reply
        self.alive = False
        raise BackendError(
            "worker %d failed to boot: %s: %s\n%s" % (self.position, kind, msg, tb)
        )

    def roundtrip(self, message, timeout: float) -> object:
        """Blocking send + recv (runs on an executor thread)."""
        with self._io_lock:
            try:
                self.conn.send(message)
                if not self.conn.poll(timeout):
                    self.alive = False
                    raise BackendError(
                        "worker %d did not answer %r within %.0fs"
                        % (self.position, message[0], timeout)
                    )
                reply = self.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                self.alive = False
                raise BackendError(
                    "worker %d died during %r: %s" % (self.position, message[0], exc)
                ) from exc
        if reply[0] == "ok":
            return reply[1]
        _, kind, msg, tb = reply
        raise BackendError(
            "worker %d failed %r: %s: %s" % (self.position, message[0], kind, msg),
            worker_traceback=tb,
        )


# ---------------------------------------------------------------------- #
# backends
# ---------------------------------------------------------------------- #
class InProcessBackend:
    """``workers=0``: the index lives in the daemon process itself.

    All kernel calls run on one dedicated thread, so the event loop
    stays responsive during compute and the index sees no concurrency.
    """

    n_workers = 0

    def __init__(self, artifact_path: PathLike) -> None:
        self.artifact_path = str(artifact_path)
        self._index: Optional[ProjectedClusterIndex] = None
        self._compute = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve")

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._index = await loop.run_in_executor(
            self._compute, build_serving_index, self.artifact_path
        )

    async def stop(self) -> None:
        self._compute.shutdown(wait=False)

    @property
    def index(self) -> ProjectedClusterIndex:
        if self._index is None:
            raise BackendError("backend is not started")
        return self._index

    @property
    def alive_workers(self) -> int:
        return 1 if self._index is not None else 0

    @property
    def parallelism(self) -> int:
        """One compute thread — one flush can make progress at a time."""
        return 1

    def describe(self) -> dict:
        return {
            "workers": 0,
            "n_clusters": self.index.n_clusters,
            "n_dimensions": self.index.n_dimensions,
        }

    async def _run(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(self._compute, fn, *args)

    async def predict(self, points: np.ndarray) -> np.ndarray:
        return await self._run(self.index.predict, points)

    async def predict_traced(self, points: np.ndarray) -> Tuple[np.ndarray, dict]:
        """Like :meth:`predict`, plus the kernel-side recorder state."""
        return await self._run(_traced_predict, self.index, points)

    async def predict_soft(self, points: np.ndarray, top_m: int):
        return await self._run(self.index.top_assignments, points, top_m)

    async def partial_update(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray],
        state_dir: Optional[str],
    ) -> Tuple[np.ndarray, int]:
        """Fold on the compute thread; commit a generation to ``state_dir`` if given."""
        return await self._run(_apply_partial_update, self.index, points, labels, state_dir)

    async def reload_replicas(self, state_dir: str) -> None:
        """No replicas: the owner is the only index."""


class WorkerPoolBackend:
    """N worker processes sharing one mmap'd artifact; worker 0 owns writes."""

    def __init__(self, artifact_path: PathLike, *, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("WorkerPoolBackend needs at least 1 worker")
        self.artifact_path = str(artifact_path)
        self.n_workers = int(n_workers)
        self._handles: List[_WorkerHandle] = []
        self._rr = 0
        self._info: dict = {}

    async def start(self) -> None:
        # Fork shares the parent's page cache references immediately;
        # spawn (macOS/Windows) re-imports and re-maps, same sharing.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            context = multiprocessing.get_context("spawn")
        loop = asyncio.get_running_loop()
        for position in range(self.n_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, self.artifact_path),
                daemon=True,
                name="repro-server-worker-%d" % position,
            )
            process.start()
            child_conn.close()
            handle = _WorkerHandle(position, process, parent_conn)
            # The worker's first message is its boot report.
            self._info = await loop.run_in_executor(None, handle.roundtrip_boot, CALL_TIMEOUT_S)
            self._handles.append(handle)

    async def stop(self) -> None:
        loop = asyncio.get_running_loop()
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                async with handle.alock:
                    await loop.run_in_executor(None, handle.roundtrip, ("stop",), 5.0)
            except BackendError:
                pass
        for handle in self._handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=5.0)

    @property
    def alive_workers(self) -> int:
        return sum(1 for handle in self._handles if handle.alive)

    @property
    def parallelism(self) -> int:
        """One flush per live worker can be in flight at once."""
        return max(1, self.alive_workers)

    @property
    def owner(self) -> _WorkerHandle:
        return self._handles[0]

    def describe(self) -> dict:
        return {
            "workers": self.n_workers,
            "alive_workers": self.alive_workers,
            **self._info,
        }

    def _pick(self) -> _WorkerHandle:
        """An idle live worker if any, else round-robin over live workers."""
        live = [handle for handle in self._handles if handle.alive]
        if not live:
            raise BackendError("no live workers")
        for handle in live:
            if not handle.alock.locked():
                return handle
        self._rr = (self._rr + 1) % len(live)
        return live[self._rr]

    async def _call(self, handle: _WorkerHandle, message) -> object:
        loop = asyncio.get_running_loop()
        async with handle.alock:
            return await loop.run_in_executor(None, handle.roundtrip, message, CALL_TIMEOUT_S)

    async def predict(self, points: np.ndarray) -> np.ndarray:
        return await self._call(self._pick(), ("predict", points))

    async def predict_traced(self, points: np.ndarray) -> Tuple[np.ndarray, dict]:
        """Like :meth:`predict`, plus the worker-side recorder state."""
        return await self._call(self._pick(), ("predict_t", points))

    async def predict_soft(self, points: np.ndarray, top_m: int):
        return await self._call(self._pick(), ("predict_soft", points, top_m))

    async def partial_update(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray],
        state_dir: Optional[str],
    ) -> Tuple[np.ndarray, int]:
        """Fold through the single owner (worker 0), which commits to ``state_dir``."""
        if not self.owner.alive:
            raise BackendError("owner worker is dead; the write path is unavailable")
        applied, absorbed = await self._call(
            self.owner, ("partial_update", points, labels, state_dir)
        )
        return applied, absorbed

    async def reload_replicas(self, state_dir: str) -> None:
        """Point every replica (not the owner) at the generation ``state_dir`` committed last.

        A replica whose reload fails would answer from the previous
        generation under the new one's tag, and keep mapping a
        generation the store is about to recycle: it is taken out of
        rotation and stopped, as a dead worker would be.
        """
        replicas = [handle for handle in self._handles[1:] if handle.alive]
        results = await asyncio.gather(
            *(self._call(handle, ("reload", state_dir)) for handle in replicas),
            return_exceptions=True,
        )
        for handle, result in zip(replicas, results):
            if isinstance(result, BaseException):
                handle.alive = False
                handle.process.terminate()
                obs.event(
                    "replica_reload_failed",
                    worker=handle.position,
                    error=str(result),
                    worker_traceback=getattr(result, "worker_traceback", None),
                )


def make_backend(
    artifact_path: PathLike, *, n_workers: int
) -> Union[InProcessBackend, WorkerPoolBackend]:
    """The backend the configuration asks for (``n_workers=0`` → in-process)."""
    if n_workers == 0:
        return InProcessBackend(artifact_path)
    return WorkerPoolBackend(artifact_path, n_workers=n_workers)
