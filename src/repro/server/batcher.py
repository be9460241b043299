"""Adaptive micro-batching: coalesce single-point requests into one kernel call.

The batch assignment kernel scores points roughly an order of magnitude
cheaper than the scalar path (PR 2 measured ~16x), so the cheapest
throughput a daemon can buy is to *stack concurrent requests*: every
single-point ``/predict`` that arrives while another is in flight rides
the same ``(n, d)`` matrix through one blocked-kernel
:meth:`~repro.serving.index.ProjectedClusterIndex.predict`.  Results are
bit-identical by construction — the grouped batch kernel equals the
single-point kernel row for row, a contract the serving tests already
pin down.

Flush policy
------------
A batch is flushed when the first of these fires:

* **full** — ``max_batch`` requests are pending;
* **quiesce** — one event-loop pass completed without a new submission.
  Every request that was reachable (parsed off a socket buffer) has
  joined the batch; waiting longer can only add latency, never batch
  size.  This is what makes the batcher *adaptive*: a lone request
  flushes on the very next pass (scalar-path latency, no timer), while
  a flood of N concurrent connections yields batches of ~N without any
  tuned wait.
* **timeout** — the oldest pending request has waited ``max_wait_us``.
  The hard upper bound for trickle traffic, where one new arrival per
  pass keeps deferring the quiesce check.
* **chained** — a previous flush just completed and requests queued up
  behind it.
* **drain** — the server is shutting down.

Self-clocking
-------------
Flushes are *busy-gated*: while ``max_concurrency`` flushes are in
flight (one per backend worker, which the daemon sets once its backend
has booted; one for the in-process backend, whose flush runs the kernel
on the event loop and is in flight across an await only while it waits
for a write to settle),
quiesce and timeout triggers hold their batch instead of launching a
flush that would only queue behind the busy kernel as a fragment.
When a flush completes, everything that accumulated behind it is
flushed as one **chained** batch.  Batch size therefore self-adapts to
``arrival rate x service time`` with no tuning — the steady-state
behaviour every production batcher converges on.  Only **full**
(bounds batch size) and **drain** (shutdown) bypass the gate.

One record per flush
--------------------
The batcher calls the backend's ``predict`` itself and is the only
place a flush is recorded: each flush builds one :class:`Flush` of
scalars (id, reason, rows, start, duration, the kernel's own seconds and
the worker's pid), which feeds the always-on :class:`BatcherStats`
behind ``/metrics``.  A submission that carries a request trace gets a
reference to that record and its own queue wait before it resolves,
whether the flush succeeds or fails; the tail trace builds the flush's
spans from the record only when it renders the request.  Under an
``obs`` recorder each flush is also a ``server.flush`` span.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs.histogram import LogHistogram, log_bounds

__all__ = ["BatcherStats", "Flush", "MicroBatcher"]

#: Flush reasons, in the order they are reported.
FLUSH_REASONS = ("full", "quiesce", "timeout", "chained", "drain")

#: Fixed bucket bounds for the always-on batcher histograms — shared
#: with the Prometheus exposition, which requires stable boundaries.
BATCH_SIZE_BOUNDS = log_bounds(1.0, 4096.0, per_decade=10)
QUEUE_WAIT_BOUNDS_US = log_bounds(1.0, 6e7, per_decade=5)


class Flush:
    """One micro-batch flush, recorded once, holding scalars only.

    ``start`` is the absolute ``obs.monotonic()`` reading at which the
    batch left the queue and ``duration_s`` the time from there until the
    backend answered or failed.  ``kernel_s`` is the kernel's own
    duration as the backend timed it and ``pid`` the worker process that
    ran it (``None``: this process); both stay ``None`` when the flush
    failed.
    """

    __slots__ = ("batch_id", "reason", "size", "start", "duration_s", "kernel_s", "pid")

    def __init__(self, batch_id: int, reason: str, size: int, start: float) -> None:
        self.batch_id = batch_id
        self.reason = reason
        self.size = size
        self.start = start
        self.duration_s = 0.0
        self.kernel_s: Optional[float] = None
        self.pid: Optional[int] = None


class BatcherStats:
    """Running counters the ``/metrics`` endpoint reports.

    Batch sizes and queue waits aggregate into fixed-boundary
    :class:`~repro.obs.histogram.LogHistogram` s — O(#buckets) memory
    under unbounded traffic.  Counts, means and maxima are exact;
    percentiles are bucket-interpolated estimates.
    """

    def __init__(self) -> None:
        self.n_flushes = 0
        self.flush_reasons: Dict[str, int] = {reason: 0 for reason in FLUSH_REASONS}
        self.batch_size = LogHistogram(BATCH_SIZE_BOUNDS)
        self.queue_wait_us = LogHistogram(QUEUE_WAIT_BOUNDS_US)

    def record_flush(self, flush: Flush, waits_us: Sequence[float]) -> None:
        self.n_flushes += 1
        self.flush_reasons[flush.reason] = self.flush_reasons.get(flush.reason, 0) + 1
        self.batch_size.observe(float(flush.size))
        for wait in waits_us:
            self.queue_wait_us.observe(wait)

    def snapshot(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "n_flushes": self.n_flushes,
            "flush_reasons": dict(self.flush_reasons),
        }
        if self.batch_size.count:
            summary["mean_batch_size"] = self.batch_size.sum / self.batch_size.count
            summary["p50_batch_size"] = self.batch_size.quantile(0.50)
            summary["max_batch_size"] = int(self.batch_size.max)
            summary["n_batched"] = int(self.batch_size.sum)
        if self.queue_wait_us.count:
            summary["p50_queue_wait_us"] = self.queue_wait_us.quantile(0.50)
            summary["p99_queue_wait_us"] = self.queue_wait_us.quantile(0.99)
        return summary


class MicroBatcher:
    """Coalesce awaitable single-item submissions into batched flushes.

    Parameters
    ----------
    flush_fn:
        ``async (points: (n, d) ndarray) -> (n results, kernel seconds,
        pid or None)`` — the backend's ``predict``.  Called once per
        flush; result ``i`` resolves submission ``i``, and the kernel's
        seconds and pid go into the flush's :class:`Flush` record.
        Multiple flushes may be in flight at once (the worker pool
        provides the parallelism); ordering *within* a flush is
        preserved, which is all bit-identity needs.
    max_batch:
        Flush immediately at this many pending requests.
    max_wait_us:
        Upper bound on how long the oldest pending request may wait
        before the deadline timer flushes regardless.

    Attributes
    ----------
    max_concurrency:
        How many flushes may be in flight at once before the busy gate
        holds new ones — one per kernel that can actually run in
        parallel.  ``1`` until the daemon sets it to
        ``backend.parallelism`` after boot.
    """

    def __init__(
        self,
        flush_fn: Callable[[np.ndarray], Awaitable[Tuple[Sequence[object], float, Optional[int]]]],
        *,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait_us < 0:
            raise ValueError("max_wait_us may not be negative")
        self.flush_fn = flush_fn
        self.max_batch = int(max_batch)
        self.max_wait_us = float(max_wait_us)
        self.max_concurrency = 1
        self.stats = BatcherStats()
        self._batch_ids = itertools.count(1)
        self._pending: List[Tuple[np.ndarray, "asyncio.Future", float, object]] = []
        self._flush_tasks: set = set()  # strong refs; asyncio keeps only weak ones
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight = 0
        #: Epoch counter: bumped on every flush so stale quiesce checks
        #: and deadline timers from an already-flushed batch are inert.
        self._epoch = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Currently pending (not yet flushed) submissions."""
        return len(self._pending)

    @property
    def n_submitted(self) -> int:
        """Submissions so far: each was flushed or is still pending."""
        return int(self.stats.batch_size.sum) + len(self._pending)

    def snapshot(self) -> Dict[str, object]:
        """:meth:`BatcherStats.snapshot` plus :attr:`n_submitted`."""
        return {"n_submitted": self.n_submitted, **self.stats.snapshot()}

    async def submit(self, point: np.ndarray, trace: object = None) -> object:
        """Enqueue one point; resolves with its row of the flushed result.

        If ``trace`` (a :class:`~repro.obs.telemetry.RequestTrace`) is
        given, the flush that serves this submission sets its ``flush``
        to the flush's :class:`Flush` record and its ``queue_wait_us`` to
        this submission's wait when the batch leaves the queue, before
        the result (or the flush's error) resolves.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((point, future, obs.monotonic(), trace))
        if len(self._pending) >= self.max_batch:
            self._launch_flush("full")
        elif len(self._pending) == 1:
            # First of a new batch: arm the hard deadline, and start the
            # quiesce watch on the next loop pass.
            self._timer = loop.call_later(
                self.max_wait_us / 1e6, self._deadline_fired, self._epoch
            )
            loop.call_soon(self._quiesce_check, self._epoch, len(self._pending))
        return await future

    async def drain(self) -> None:
        """Flush whatever is pending (shutdown path)."""
        self._closed = True
        if self._pending:
            await self._flush("drain")

    # ------------------------------------------------------------------ #
    # flush triggers
    # ------------------------------------------------------------------ #
    def _quiesce_check(self, epoch: int, last_depth: int) -> None:
        if epoch != self._epoch or not self._pending:
            return  # batch already flushed by full/timeout/drain
        if self._inflight >= self.max_concurrency:
            return  # busy gate: the completing flush will chain us
        if len(self._pending) == last_depth:
            self._launch_flush("quiesce")
        else:
            # Still growing: look again after the next loop pass.
            asyncio.get_running_loop().call_soon(
                self._quiesce_check, epoch, len(self._pending)
            )

    def _deadline_fired(self, epoch: int) -> None:
        if epoch != self._epoch or not self._pending:
            return
        if self._inflight >= self.max_concurrency:
            return  # busy gate: the completing flush will chain us
        self._launch_flush("timeout")

    def _launch_flush(self, reason: str) -> None:
        task = asyncio.get_running_loop().create_task(self._flush(reason))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    def _flush_completed(self) -> None:
        self._inflight -= 1
        if self._pending and not self._closed and self._inflight < self.max_concurrency:
            # Everything that queued up behind the busy kernel goes out
            # as one batch — the self-clocking path.
            self._launch_flush("chained")

    async def _flush(self, reason: str) -> None:
        # Take at most max_batch rows: a same-pass burst can enqueue
        # more than max_batch before the first "full" flush task runs.
        batch = self._pending[: self.max_batch]
        if not batch:
            return
        self._pending = self._pending[self.max_batch :]
        self._epoch += 1
        self._inflight += 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._pending:
            # Re-arm for the remainder, deadline relative to its oldest
            # entry (their original timer died with the old epoch).
            loop = asyncio.get_running_loop()
            elapsed_us = (obs.monotonic() - self._pending[0][2]) * 1e6
            self._timer = loop.call_later(
                max(0.0, self.max_wait_us - elapsed_us) / 1e6,
                self._deadline_fired,
                self._epoch,
            )
            loop.call_soon(self._quiesce_check, self._epoch, len(self._pending))
        now = obs.monotonic()
        flush = Flush(next(self._batch_ids), reason, len(batch), now)
        waits_us = [(now - enqueued) * 1e6 for _, _, enqueued, _ in batch]
        self.stats.record_flush(flush, waits_us)
        for (_, _, _, trace), wait in zip(batch, waits_us):
            if trace is not None:
                trace.flush = flush
                trace.queue_wait_us = wait
        try:
            try:
                with obs.span("server.flush", category="server") as flush_span:
                    points = np.stack([point for point, _, _, _ in batch])
                    results, flush.kernel_s, flush.pid = await self.flush_fn(points)
                    flush_span.set(rows=flush.size, reason=reason, batch_id=flush.batch_id)
                if len(results) != flush.size:
                    raise RuntimeError(
                        "flush_fn returned %d results for %d submissions"
                        % (len(results), flush.size)
                    )
            except Exception as exc:  # propagate to every waiter
                for _, future, _, _ in batch:
                    if not future.done():
                        future.set_exception(exc)
                return
            finally:
                # Waiters resume on a later loop pass, with the record complete.
                flush.duration_s = obs.monotonic() - now
            for (_, future, _, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self._flush_completed()
