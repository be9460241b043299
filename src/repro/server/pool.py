"""Compute backends for the serving daemon: in-process or a worker-process pool.

Both backends expose the same ``async`` surface (``predict`` /
``predict_soft`` / ``partial_update`` / ``reload_replicas``) so the
application layer does not care where the kernel runs.  ``predict``
returns ``(labels, kernel seconds, worker pid or None)``: the serving
telemetry's ``worker.predict`` span, with no recorder built per call.

* :class:`InProcessBackend` (``workers=0``) holds one
  :class:`~repro.serving.index.ProjectedClusterIndex`.  Reads
  (``predict``, ``predict_soft``, every micro-batch flush) run the
  kernel on the event-loop thread: a 64-row predict takes ~75 µs, less
  than decoding its JSON body, so a thread hop would cost more than it
  frees.  ``partial_update`` runs its fold and its fsynced commit on one
  dedicated compute thread, so the loop keeps parsing requests and
  answering ``/healthz`` and ``/metrics`` meanwhile.  A read that
  arrives while a write is in flight waits for it to commit or roll
  back, then runs: the index's workspaces and the fold are not
  reentrant, and reads are already serial on the loop.  The gate opens
  in the writer's own continuation, in the same loop step as the
  caller's generation bump, so no read sees the new state under the
  old tag.
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

An op that raises answers its request with a :class:`BackendError`
naming the backend, the op and the exception
(``worker 1 failed 'predict': ValueError: ...``, or ``in-process backend
failed ...``).  An ``OSError`` is named by its errno alone
(``OSError: [Errno 28 ENOSPC] No space left on device``): its own text
names server file paths.  The full text and the traceback are kept on
the error for the daemon's ``backend_error`` event and never reach the
client.  A worker that dies (OOM, kill) poisons only the requests in
flight on it; the handle is marked dead and routing skips it.  The pool
never respawns silently — ``/healthz`` reports live worker counts and an
operator (or orchestrator) restarts the daemon.
"""

from __future__ import annotations

import asyncio
import errno
import multiprocessing
import os
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
    """A compute backend failed to answer (op error, worker crash or hang).

    The message names the backend, the op and the exception, with the
    exception's full text; it and ``worker_traceback`` (the backend-side
    traceback, when there is one) are for the daemon's own events, since
    both may name server file paths.  ``public`` is what a client sees:
    the same, with an ``OSError`` named by its errno alone.
    """

    def __init__(
        self,
        message: str,
        worker_traceback: Optional[str] = None,
        public: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.public = message if public is None else public


def _failure(exc: BaseException) -> Tuple[str, str, str]:
    """``(client text, full text, traceback)`` of the exception being handled.

    The client text names an ``OSError`` by its errno alone, since its own
    text names the file it failed on: ``OSError: [Errno 28 ENOSPC] No
    space left on device``.
    """
    kind = type(exc).__name__
    full = public = "%s: %s" % (kind, exc)
    if isinstance(exc, OSError):
        public = kind
        if exc.errno is not None:
            public += ": [Errno %d %s] %s" % (
                exc.errno, errno.errorcode.get(exc.errno, "?"), os.strerror(exc.errno)
            )
    return public, full, traceback.format_exc()


def _op_failed(backend: str, op: str, public: str, full: str, tb: str) -> BackendError:
    """``<backend> failed '<op>': ...``: the full text for events, the client text for clients."""
    prefix = "%s failed %r: " % (backend, op)
    return BackendError(prefix + full, worker_traceback=tb, public=prefix + public)


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


def _timed_predict(index: ProjectedClusterIndex, points: np.ndarray) -> Tuple[np.ndarray, float]:
    """``(labels, kernel seconds)``: the serving telemetry's ``worker.predict`` span."""
    start = obs.monotonic()
    labels = index.predict(points)
    return labels, obs.monotonic() - start


def _worker_main(conn, artifact_path: str) -> None:
    """Run one pool worker: build the index, answer ops until ``stop``.

    Messages are ``(op, *args)`` tuples; replies are ``("ok", payload)``
    or ``("error", client text, full text, traceback)`` (see
    :func:`_failure`).  One message at a time, by construction — the
    parent holds a per-worker lock.
    """
    try:
        index = build_serving_index(artifact_path)
        conn.send(("ok", {"n_clusters": index.n_clusters, "n_dimensions": index.n_dimensions}))
    except BaseException as exc:
        conn.send(("error", *_failure(exc)))
        return
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        op = message[0]
        try:
            if op == "predict":
                payload = (*_timed_predict(index, message[1]), os.getpid())
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
            conn.send(("error", *_failure(exc)))


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
        _, _, full, tb = reply
        self.alive = False
        raise BackendError("worker %d failed to boot: %s\n%s" % (self.position, full, tb))

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
        _, public, full, tb = reply
        raise _op_failed("worker %d" % self.position, message[0], public, full, tb)


# ---------------------------------------------------------------------- #
# backends
# ---------------------------------------------------------------------- #
class InProcessBackend:
    """``workers=0``: the index lives in the daemon process itself.

    Reads run the kernel on the event-loop thread; ``partial_update``
    folds and commits on one compute thread.  Reads wait while a write
    is in flight, so no read overlaps a fold, and a read tagged
    generation g saw state g or g−1 — the order one compute thread for
    every call gave.  Reads take no lock among themselves: they are
    serial on the loop already.
    """

    n_workers = 0

    def __init__(self, artifact_path: PathLike) -> None:
        self.artifact_path = str(artifact_path)
        self._index: Optional[ProjectedClusterIndex] = None
        self._compute = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve")
        #: The write in flight on the compute thread, until it settles.
        self._write: Optional[asyncio.Future] = None

    async def start(self) -> None:
        self._index = build_serving_index(self.artifact_path)

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
        """One event loop — one flush can make progress at a time."""
        return 1

    def describe(self) -> dict:
        return {
            "workers": 0,
            "n_clusters": self.index.n_clusters,
            "n_dimensions": self.index.n_dimensions,
        }

    async def _read(self, op: str, fn, *args):
        """Run ``fn`` on the loop once no write is in flight."""
        while self._write is not None:
            # asyncio.wait neither raises the write's error nor cancels it.
            await asyncio.wait((self._write,))
        try:
            return fn(*args)
        except Exception as exc:
            raise _op_failed("in-process backend", op, *_failure(exc)) from exc

    def _write_settled(self, write: asyncio.Future) -> None:
        if self._write is write:
            self._write = None

    async def predict(self, points: np.ndarray) -> Tuple[np.ndarray, float, None]:
        """``(labels, kernel seconds, None)``: no worker pid in-process."""
        labels, kernel_s = await self._read("predict", _timed_predict, self.index, points)
        return labels, kernel_s, None

    async def predict_soft(self, points: np.ndarray, top_m: int):
        return await self._read("predict_soft", self.index.top_assignments, points, top_m)

    async def partial_update(
        self,
        points: np.ndarray,
        labels: Optional[np.ndarray],
        state_dir: Optional[str],
    ) -> Tuple[np.ndarray, int]:
        """Fold on the compute thread; commit a generation to ``state_dir`` if given.

        The gate opens here, in this coroutine's own continuation: the
        caller's next synchronous step (``reload_replicas`` does not
        suspend in-process, then the generation bump) runs before any read
        passes it.  A done-callback would open it a loop step earlier, and
        a read starting in that step would answer from the new state under
        the old generation.
        """
        write = asyncio.get_running_loop().run_in_executor(
            self._compute, _apply_partial_update, self.index, points, labels, state_dir
        )
        self._write = write
        try:
            # Shielded: a cancelled caller must not open the gate while
            # the fold still runs.
            return await asyncio.shield(write)
        except Exception as exc:
            raise _op_failed("in-process backend", "partial_update", *_failure(exc)) from exc
        finally:
            if write.done():
                self._write_settled(write)
            else:  # cancelled caller: the fold's own completion opens it
                write.add_done_callback(self._write_settled)

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

    async def predict(self, points: np.ndarray) -> Tuple[np.ndarray, float, int]:
        """``(labels, kernel seconds, pid)`` of the worker that ran it."""
        return await self._call(self._pick(), ("predict", points))

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
