"""Execution backends shared by the experiment harness and the benchmark runner.

Two interchangeable executors implement the same two-method protocol:

``map(fn, items)``
    Apply ``fn`` to every item and return the results *in input order*
    (the contract the experiment harness relies on for reproducible
    best-of-N reductions).
``imap_unordered(fn, items)``
    Yield ``(index, result)`` pairs as they complete — the scenario
    runner uses this to persist task records incrementally so an
    interrupted run can resume from its store.

:class:`ProcessExecutor` is fault tolerant: it runs **one process per
task** (no shared pool to poison), enforces an optional per-task
deadline, and retries failed tasks a bounded number of times with
deterministic exponential backoff.  A worker killed by the OS (OOM
killer, SIGKILL) fails only its own task; after the retry budget is
exhausted the task's slot yields a :class:`TaskFault` describing what
happened instead of silently vanishing or raising mid-iteration, so
the caller decides how to account for it.  Workers are non-daemonic,
so a task may itself spawn a nested ``ProcessExecutor`` (the chaos
benchmark scenario does exactly this inside a runner shard).

The process executor prefers the ``fork`` start method (registered
scenarios and closures survive into the workers); where ``fork`` is
unavailable it falls back to ``spawn``, which still supports the
built-in scenario registry because workers re-import it.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ExecutorTaskError",
    "ProcessExecutor",
    "SerialExecutor",
    "TaskFault",
    "resolve_executor",
]


@dataclass
class TaskFault:
    """Terminal failure of one task after its retry budget ran out.

    ``kind`` is ``"error"`` (the function raised), ``"crash"`` (the
    worker process died without reporting — SIGKILL, OOM, unpicklable
    result) or ``"timeout"`` (the per-task deadline expired and the
    worker was killed).  ``error`` carries the original exception when
    it survived pickling back to the parent.
    """

    kind: str
    message: str
    attempts: int
    error: Optional[BaseException] = None


class ExecutorTaskError(RuntimeError):
    """Raised by ``map`` when a task still fails after every retry."""


def _run_traced(fn: Callable[[T], R], index: int, item: T) -> R:
    """Run one in-process task under its executor span (no-op when obs is off)."""
    with obs.span("executor.task", category="executor", index=index, backend="serial"):
        return fn(item)


class SerialExecutor:
    """In-process, in-order execution — the default everywhere."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [_run_traced(fn, index, item) for index, item in enumerate(items)]

    def imap_unordered(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[Tuple[int, R]]:
        for index, item in enumerate(items):
            yield index, _run_traced(fn, index, item)


def _preferred_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _task_entry(fn, item, conn, record_obs: bool = False) -> None:
    """Worker-process body: run one task, report through the pipe.

    With ``record_obs`` the worker opens a fresh recorder (replacing any
    recorder inherited across ``fork``), runs the task under a root
    span, and appends the exported observability state as a fourth
    payload element — the parent grafts it under its per-task span.
    """
    recorder = obs.begin_child_recording() if record_obs else None
    try:
        if recorder is not None:
            with recorder.span("task.run", "executor"):
                result = fn(item)
        else:
            result = fn(item)
        payload = ("ok", result, None)
    except BaseException as exc:  # report *everything*, the parent classifies
        payload = ("error", exc, traceback.format_exc())
    if recorder is not None:
        payload = payload + (recorder.export_state(),)
        obs.disable()
    try:
        conn.send(payload)
    except Exception:
        # Unpicklable result or exception: report the traceback as text.
        try:
            fallback = ("error", None, traceback.format_exc())
            if recorder is not None:
                fallback = fallback + (recorder.export_state(),)
            conn.send(fallback)
        except Exception:
            pass  # parent will see EOF and classify the task as crashed
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclass
class _Running:
    conn: object
    process: object
    index: int
    attempt: int
    deadline: Optional[float]
    started: float = 0.0  # recorder-relative launch time (obs only)


class ProcessExecutor:
    """Process-per-task fan-out with deadlines, retries and crash isolation.

    Parameters
    ----------
    workers:
        Maximum concurrently running task processes.
    task_timeout:
        Per-task wall-clock deadline in seconds; an overrunning worker
        is killed and the attempt counts as a ``timeout`` failure.
        ``None`` disables the deadline.
    max_retries:
        Failed attempts (error, crash or timeout) are retried up to
        this many times before the task yields a :class:`TaskFault`.
    retry_backoff:
        Base delay before retry ``n`` (1-based): ``retry_backoff *
        2**(n-1)`` seconds — deterministic, so sequencing under faults
        is reproducible.
    """

    def __init__(
        self,
        workers: int,
        *,
        task_timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.25,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1, got %d" % workers)
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive, got %r" % task_timeout)
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative, got %d" % max_retries)
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative, got %r" % retry_backoff)
        self.workers = int(workers)
        self.task_timeout = task_timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self._context = _preferred_context()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        results: List[R] = [None] * len(items)  # type: ignore[list-item]
        for index, outcome in self.imap_unordered(fn, items):
            if isinstance(outcome, TaskFault):
                if outcome.error is not None:
                    raise outcome.error
                raise ExecutorTaskError(
                    "task %d failed (%s) after %d attempt(s): %s"
                    % (index, outcome.kind, outcome.attempts, outcome.message)
                )
            results[index] = outcome
        return results

    def imap_unordered(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[Tuple[int, R]]:
        items = list(items)
        if not items:
            return
        yield from self._schedule(fn, items)

    # ---- scheduler -------------------------------------------------------

    def _schedule(self, fn, items):
        pending = deque((index, 1) for index in range(len(items)))  # (item index, attempt)
        backoff: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)
        running: dict = {}  # conn -> _Running
        try:
            while pending or backoff or running:
                now = time.monotonic()
                due = [entry for entry in backoff if entry[0] <= now]
                for entry in due:
                    backoff.remove(entry)
                    pending.append((entry[1], entry[2]))
                while pending and len(running) < self.workers:
                    index, attempt = pending.popleft()
                    entry = self._launch(fn, items[index], index, attempt)
                    running[entry.conn] = entry
                if not running:
                    wake = min(entry[0] for entry in backoff)
                    delay = wake - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, 0.5))
                    continue
                yield from self._reap(running, pending, backoff)
        finally:
            for entry in running.values():
                self._kill(entry)

    def _reap(self, running, pending, backoff):
        """Wait for one completion or deadline; settle what fired."""
        wakeups = [entry.deadline for entry in running.values() if entry.deadline is not None]
        wakeups.extend(entry[0] for entry in backoff)
        timeout = None
        if wakeups:
            timeout = max(0.0, min(wakeups) - time.monotonic())
        ready = mp_connection.wait(list(running), timeout=timeout)
        for conn in ready:
            entry = running.pop(conn)
            yield from self._settle(entry, self._collect(entry), backoff)
        now = time.monotonic()
        expired = [
            conn
            for conn, entry in running.items()
            if entry.deadline is not None and entry.deadline <= now
        ]
        for conn in expired:
            entry = running.pop(conn)
            self._kill(entry)
            outcome = (
                "timeout",
                None,
                "task exceeded its %.1fs deadline and was killed" % self.task_timeout,
                None,
            )
            yield from self._settle(entry, outcome, backoff)

    def _launch(self, fn, item, index: int, attempt: int) -> _Running:
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        recorder = obs.get_recorder()
        process = self._context.Process(
            target=_task_entry,
            args=(fn, item, child_conn, recorder is not None),
            daemon=False,
        )
        process.start()
        child_conn.close()
        deadline = (
            time.monotonic() + self.task_timeout if self.task_timeout is not None else None
        )
        return _Running(
            conn=parent_conn,
            process=process,
            index=index,
            attempt=attempt,
            deadline=deadline,
            started=recorder.now() if recorder is not None else 0.0,
        )

    def _collect(self, entry: _Running):
        """Read the worker's report; classify a dead-silent worker as a crash.

        Returns ``(status, value, message, obs_state)`` — the fourth
        element is the worker's exported recorder state when the parent
        asked for it (``None`` for untraced runs and crashed workers).
        """
        try:
            report = entry.conn.recv()
        except (EOFError, OSError):
            entry.process.join(timeout=5.0)
            return (
                "crash",
                None,
                "worker for task %d died without reporting (exitcode %s)"
                % (entry.index, entry.process.exitcode),
                None,
            )
        finally:
            try:
                entry.conn.close()
            except Exception:
                pass
        entry.process.join(timeout=5.0)
        status, value, detail = report[0], report[1], report[2]
        obs_state = report[3] if len(report) > 3 else None
        if status == "ok":
            return ("ok", value, None, obs_state)
        message = detail if detail else "".join(traceback.format_exception_only(type(value), value))
        return ("error", value, message, obs_state)

    def _settle(self, entry: _Running, outcome, backoff):
        status, value, message, obs_state = outcome
        will_retry = status != "ok" and entry.attempt <= self.max_retries
        recorder = obs.get_recorder()
        if recorder is not None:
            # One parent-side span per attempt; the worker's own spans
            # (shipped through the result pipe) are grafted under it with
            # their timestamps re-based onto this recorder's timeline.
            span_id = recorder.add_span(
                "executor.task",
                "executor",
                entry.started,
                recorder.now() - entry.started,
                args={"index": entry.index, "attempt": entry.attempt, "status": status},
            )
            if obs_state is not None:
                recorder.ingest(obs_state, at=entry.started, parent_span_id=span_id)
            if entry.attempt == 1:
                recorder.incr("executor.tasks")
            if status == "error":
                recorder.incr("executor.task_errors")
            elif status == "crash":
                recorder.incr("executor.crashes")
            elif status == "timeout":
                recorder.incr("executor.timeouts")
            if will_retry:
                recorder.incr("executor.retries")
                recorder.event(
                    "retry", index=entry.index, attempt=entry.attempt, kind=status
                )
        if status == "ok":
            yield entry.index, value
            return
        if will_retry:
            delay = self.retry_backoff * (2 ** (entry.attempt - 1))
            backoff.append((time.monotonic() + delay, entry.index, entry.attempt + 1))
            return
        if recorder is not None:
            recorder.incr("executor.task_faults")
            recorder.event(
                "task_fault", index=entry.index, kind=status, attempts=entry.attempt
            )
        yield entry.index, TaskFault(
            kind=status,
            message=str(message),
            attempts=entry.attempt,
            error=value if isinstance(value, BaseException) else None,
        )

    def _kill(self, entry: _Running) -> None:
        if entry.process.is_alive():
            entry.process.terminate()
            entry.process.join(timeout=0.5)
            if entry.process.is_alive():
                entry.process.kill()
                entry.process.join(timeout=5.0)
        try:
            entry.conn.close()
        except Exception:
            pass


def resolve_executor(
    workers: int,
    *,
    task_timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff: float = 0.25,
):
    """The executor for ``workers`` shards: serial for 1, processes otherwise."""
    if workers <= 1:
        return SerialExecutor()
    return ProcessExecutor(
        workers,
        task_timeout=task_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
    )
