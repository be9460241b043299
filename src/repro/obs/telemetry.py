"""Request-scoped serving telemetry: ids, traces, aggregates, tails.

This is the layer between the serving daemon and the generic
:mod:`repro.obs` machinery.  One :class:`Telemetry` instance lives on
the server and is **always on** (unlike the opt-in global recorder):

* **Request identity** — every request gets an id (inbound
  ``X-Request-Id`` honored, otherwise generated) and a
  :class:`RequestTrace` that decomposes its lifetime into phases
  (queue wait, kernel, serialization) and links it to the micro-batch
  flush that served it.
* **Always-on aggregation** — per route × status-class latency
  :class:`~repro.obs.histogram.LogHistogram` s and request totals,
  cheap enough for the hot path (one bucket increment per request)
  and exposable as JSON or Prometheus cumulative series.
* **SLO tracking** — every finished request feeds an
  :class:`~repro.obs.slo.SLOTracker` (availability + latency budget,
  rolling windows, burn rates).
* **Tail capture** — the slowest-N requests per rolling window and
  every errored request keep their full traces; together with the
  retained flush records (each with its kernel's duration and, from a
  pool worker, that worker's pid) they reconstruct linked
  request → flush → worker-kernel Chrome traces on demand.

All methods are event-loop-thread only; nothing here takes locks.
Timestamps live on the telemetry's own timeline (seconds since
construction); :meth:`Telemetry.to_timeline` converts absolute
``obs.monotonic()`` readings taken elsewhere in the server.
"""

from __future__ import annotations

import heapq
import itertools
import uuid
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs import core
from repro.obs.export import chrome_trace
from repro.obs.histogram import LogHistogram, log_bounds
from repro.obs.slo import SLOConfig, SLOTracker

__all__ = [
    "LATENCY_BOUNDS_S",
    "RequestTrace",
    "Telemetry",
    "status_class",
]

#: Fixed latency bucket bounds: 100µs .. 60s, 5 buckets per decade.
LATENCY_BOUNDS_S = log_bounds(1e-4, 60.0, per_decade=5)


def status_class(status: int) -> str:
    """``200 -> "2xx"`` — the label aggregation keys on."""
    return "%dxx" % max(1, min(5, int(status) // 100))


class RequestTrace:
    """One request's identity, phase decomposition, and batch link."""

    __slots__ = (
        "request_id",
        "method",
        "route",
        "start",
        "duration_s",
        "status",
        "error",
        "phases",
        "batch_id",
        "batch_size",
        "flush_reason",
        "queue_wait_us",
        "kernel_s",
    )

    def __init__(self, request_id: str, method: str, route: str, start: float):
        self.request_id = request_id
        self.method = method
        self.route = route
        self.start = start
        self.duration_s = 0.0
        self.status = 0
        self.error: Optional[str] = None
        self.phases: List[Tuple[str, float, float, Dict[str, object]]] = []
        self.batch_id: Optional[int] = None
        self.batch_size: Optional[int] = None
        self.flush_reason: Optional[str] = None
        self.queue_wait_us: Optional[float] = None
        self.kernel_s: Optional[float] = None

    def add_phase(
        self, name: str, start: float, duration_s: float, **args: object
    ) -> None:
        """Record a sub-phase (timeline coordinates) of this request."""
        self.phases.append((name, start, max(0.0, duration_s), dict(args)))

    def link_batch(self, ticket: Dict[str, object], submitted_at: float) -> None:
        """Adopt the flush attribution the batcher wrote into ``ticket``.

        ``submitted_at`` is the timeline instant the request entered the
        batcher queue; together with the measured queue wait and kernel
        time it yields the queue-wait and kernel phases.
        """
        if "batch_id" not in ticket:
            return
        self.batch_id = int(ticket["batch_id"])
        self.batch_size = int(ticket["batch_size"])
        self.flush_reason = str(ticket["flush_reason"])
        self.queue_wait_us = float(ticket["queue_wait_us"])
        self.kernel_s = float(ticket["kernel_s"])
        wait_s = self.queue_wait_us / 1e6
        self.add_phase("server.queue_wait", submitted_at, wait_s)
        self.add_phase(
            "server.kernel",
            submitted_at + wait_s,
            self.kernel_s,
            batch_id=self.batch_id,
            batch_size=self.batch_size,
        )

    def span_args(self) -> Dict[str, object]:
        """Args for this request's top-level Chrome span."""
        args: Dict[str, object] = {
            "request_id": self.request_id,
            "method": self.method,
            "route": self.route,
            "status": self.status,
        }
        if self.error is not None:
            args["error"] = self.error
        if self.batch_id is not None:
            args.update(
                batch_id=self.batch_id,
                batch_size=self.batch_size,
                flush_reason=self.flush_reason,
                queue_wait_us=self.queue_wait_us,
                kernel_s=self.kernel_s,
            )
        return args


class _TailCapture:
    """Slowest-N per rolling window plus every errored request."""

    def __init__(self, slow_n: int, error_n: int, window_s: float):
        self.slow_n = max(1, int(slow_n))
        self.window_s = max(1e-3, float(window_s))
        self._seq = itertools.count()
        # window index -> min-heap of (duration, seq, trace); only the
        # current and previous windows are retained.
        self._windows: "OrderedDict[int, List[Tuple[float, int, RequestTrace]]]" = (
            OrderedDict()
        )
        self._errors: Deque[RequestTrace] = deque(maxlen=max(1, int(error_n)))

    def consider(self, trace: RequestTrace, now: float) -> None:
        if trace.status >= 400 or trace.error is not None:
            self._errors.append(trace)
        window = int(now / self.window_s)
        heap = self._windows.get(window)
        if heap is None:
            heap = self._windows[window] = []
            while len(self._windows) > 2:
                self._windows.popitem(last=False)
        entry = (trace.duration_s, next(self._seq), trace)
        if len(heap) < self.slow_n:
            heapq.heappush(heap, entry)
        elif entry[0] > heap[0][0]:
            heapq.heapreplace(heap, entry)

    def entries(self) -> List[RequestTrace]:
        """Captured traces, deduplicated, in start order."""
        seen: Dict[int, RequestTrace] = {}
        for trace in self._errors:
            seen[id(trace)] = trace
        for heap in self._windows.values():
            for _, _, trace in heap:
                seen[id(trace)] = trace
        return sorted(seen.values(), key=lambda trace: trace.start)

    def counts(self) -> Dict[str, int]:
        return {
            "captured_slow": sum(len(heap) for heap in self._windows.values()),
            "captured_errors": len(self._errors),
            "slow_capacity": self.slow_n,
            "error_capacity": int(self._errors.maxlen or 0),
        }


class Telemetry:
    """Always-on serving telemetry (see module docstring)."""

    def __init__(
        self,
        slo: Optional[SLOConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
        trace_prefix: Optional[str] = None,
        tail_slow: int = 32,
        tail_errors: int = 64,
        tail_window_s: float = 60.0,
        flush_capacity: int = 512,
    ):
        self._clock = clock if clock is not None else core.monotonic
        self._epoch = self._clock()
        self.trace_prefix = trace_prefix or uuid.uuid4().hex[:8]
        self._request_ids = itertools.count(1)
        self.slo = SLOTracker(slo or SLOConfig(), clock=self._clock)
        self.requests_total: Dict[Tuple[str, str], int] = {}
        self.latency: Dict[Tuple[str, str], LogHistogram] = {}
        self._tail = _TailCapture(tail_slow, tail_errors, tail_window_s)
        self._flush_capacity = max(1, int(flush_capacity))
        self._flushes: "OrderedDict[int, Dict[str, object]]" = OrderedDict()

    # -- time and identity ---------------------------------------------

    def now(self) -> float:
        """Current time on the telemetry timeline (seconds)."""
        return self._clock() - self._epoch

    def to_timeline(self, absolute: float) -> float:
        """Convert an absolute clock reading to timeline coordinates."""
        return absolute - self._epoch

    def next_request_id(self) -> str:
        """Generate a request id for a request that brought none."""
        return "%s-%08x" % (self.trace_prefix, next(self._request_ids))

    # -- request lifecycle ---------------------------------------------

    def begin_request(self, method: str, route: str, request_id: str) -> RequestTrace:
        return RequestTrace(request_id, method, route, self.now())

    def finish_request(
        self, trace: RequestTrace, status: int, error: Optional[str] = None
    ) -> None:
        """Close a request: aggregate, feed the SLO, maybe keep the tail."""
        now = self.now()
        trace.duration_s = max(0.0, now - trace.start)
        trace.status = int(status)
        if error is not None:
            trace.error = error
        key = (trace.route, status_class(trace.status))
        self.requests_total[key] = self.requests_total.get(key, 0) + 1
        histogram = self.latency.get(key)
        if histogram is None:
            histogram = self.latency[key] = LogHistogram(LATENCY_BOUNDS_S)
        histogram.observe(trace.duration_s)
        # Availability counts server errors only; a 4xx is the client's
        # fault and still consumed the latency budget.
        self.slo.record(ok=trace.status < 500, latency_s=trace.duration_s)
        self._tail.consider(trace, now)

    # -- batch flush linkage -------------------------------------------

    def observe_flush(
        self,
        batch_id: int,
        reason: str,
        size: int,
        start: float,
        duration_s: float,
        kernel_s: Optional[float] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Retain one micro-batch flush for later trace assembly.

        ``start`` is an absolute clock reading (the flush's kernel call
        time).  ``kernel_s`` is the kernel's own duration, as the backend
        timed it, and ``pid`` the worker process that ran it (``None``:
        this one); a flush without ``kernel_s`` gets no kernel span.
        """
        self._flushes[int(batch_id)] = {
            "batch_id": int(batch_id),
            "reason": str(reason),
            "size": int(size),
            "start": self.to_timeline(start),
            "duration_s": max(0.0, float(duration_s)),
            "kernel_s": kernel_s,
            "pid": pid,
        }
        while len(self._flushes) > self._flush_capacity:
            self._flushes.popitem(last=False)

    # -- exports --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready aggregate state (served under ``/metrics``)."""
        totals: Dict[str, Dict[str, int]] = {}
        for (route, klass), count in sorted(self.requests_total.items()):
            totals.setdefault(route, {})[klass] = count
        latency: Dict[str, Dict[str, object]] = {}
        for (route, klass), histogram in sorted(self.latency.items()):
            summary = dict(histogram.snapshot())
            cumulative = histogram.cumulative()
            summary["buckets"] = {
                "le": [bound for bound, _ in cumulative[:-1]] + ["+Inf"],
                "cumulative": [count for _, count in cumulative],
            }
            latency.setdefault(route, {})[klass] = summary
        return {
            "requests_total": totals,
            "latency_seconds": latency,
            "slo": self.slo.report(),
            "tail": {**self._tail.counts(), "flushes_retained": len(self._flushes)},
        }

    def tail_trace(self) -> Dict[str, object]:
        """Chrome trace of every captured tail request.

        Each request becomes a ``server.request`` span with its phase
        children; if its flush record is still retained, a
        ``server.flush`` child is attached, and under it a
        ``worker.predict`` span for the kernel, ending where the flush
        ends (in the worker's pid, for a pool), every span stamped with
        the request id.  A flush serving several captured requests is
        duplicated per request so each trace tree is self-contained.
        """
        recorder = core.Recorder(clock=lambda: 0.0, trace_id="tail")
        for trace in self._tail.entries():
            request_span = recorder.add_span(
                "server.request",
                "server",
                trace.start,
                trace.duration_s,
                args=trace.span_args(),
            )
            for name, start, duration_s, args in trace.phases:
                recorder.add_span(
                    name,
                    "server",
                    start,
                    duration_s,
                    parent_id=request_span,
                    args={**args, "request_id": trace.request_id},
                )
            flush = (
                self._flushes.get(trace.batch_id)
                if trace.batch_id is not None
                else None
            )
            if flush is None:
                continue
            flush_span = recorder.add_span(
                "server.flush",
                "server",
                float(flush["start"]),
                float(flush["duration_s"]),
                parent_id=request_span,
                args={
                    "request_id": trace.request_id,
                    "batch_id": flush["batch_id"],
                    "reason": flush["reason"],
                    "size": flush["size"],
                },
            )
            kernel_s = flush["kernel_s"]
            if kernel_s is not None:
                flush_end = float(flush["start"]) + float(flush["duration_s"])
                recorder.add_span(
                    "worker.predict",
                    "server",
                    max(float(flush["start"]), flush_end - kernel_s),
                    kernel_s,
                    parent_id=flush_span,
                    args={"request_id": trace.request_id, "rows": flush["size"]},
                    pid=flush["pid"],
                )
        return chrome_trace(recorder)
