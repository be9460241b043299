"""Request-scoped serving telemetry: ids, traces, aggregates, tails.

This is the layer between the serving daemon and the generic
:mod:`repro.obs` machinery.  One :class:`Telemetry` instance lives on
the server and is **always on** (unlike the opt-in global recorder):

* **Request identity** — every request gets an id (inbound
  ``X-Request-Id`` honored, otherwise generated) and a
  :class:`RequestTrace` that keeps its phases (body decode,
  serialization, a bulk kernel) and a reference to the micro-batch
  flush record that served it (:class:`~repro.server.batcher.Flush`,
  written by the batcher).
* **One per-request tally** — every finished request is counted once,
  by bounded method, route label, status code and whether it failed
  with an error message; request totals by route × status class, by
  method × route and errors by status are sums of it, taken when
  ``/metrics`` renders them.  Per route × status-class latency
  :class:`~repro.obs.histogram.LogHistogram` s sit beside it; both are
  cheap enough for the hot path and exposable as JSON or Prometheus
  cumulative series.
* **SLO tracking** — every finished request feeds an
  :class:`~repro.obs.slo.SLOTracker` (availability + latency budget,
  rolling windows, burn rates).
* **Tail capture** — the :data:`TAIL_SLOW` slowest requests per
  :data:`TAIL_WINDOW_S` window and the last :data:`TAIL_ERRORS` errored
  ones keep their traces, and with them their flush records, so the
  capture holds at most ``2 * TAIL_SLOW + TAIL_ERRORS`` flush records
  and no request body.  :meth:`Telemetry.tail_trace` builds the
  queue-wait and kernel phases and the linked request → flush →
  worker-kernel spans from those records when it renders.

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
    "TAIL_ERRORS",
    "TAIL_SLOW",
    "TAIL_WINDOW_S",
    "Telemetry",
    "status_class",
]

#: Fixed latency bucket bounds: 100µs .. 60s, 5 buckets per decade.
LATENCY_BOUNDS_S = log_bounds(1e-4, 60.0, per_decade=5)
#: The tail capture keeps this many slowest requests per window...
TAIL_SLOW = 32
#: ...over windows this long (the current and the previous one)...
TAIL_WINDOW_S = 60.0
#: ...and the last this many errored requests.
TAIL_ERRORS = 64


def status_class(status: int) -> str:
    """``200 -> "2xx"`` — the label aggregation keys on."""
    return "%dxx" % max(1, min(5, int(status) // 100))


class RequestTrace:
    """One request's identity, phases, and the flush that served it.

    ``flush`` and ``queue_wait_us`` are set by the micro-batcher when a
    single-point request's batch leaves the queue; ``flush`` is the
    batcher's own record, shared by every request of the batch, never a
    copy.
    """

    __slots__ = (
        "request_id",
        "method",
        "route",
        "start",
        "duration_s",
        "status",
        "error",
        "phases",
        "flush",
        "queue_wait_us",
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
        self.flush = None
        self.queue_wait_us = 0.0

    def add_phase(
        self, name: str, start: float, duration_s: float, **args: object
    ) -> None:
        """Record a sub-phase (timeline coordinates) of this request."""
        self.phases.append((name, start, max(0.0, duration_s), dict(args)))

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
        flush = self.flush
        if flush is not None:
            args.update(
                batch_id=flush.batch_id,
                batch_size=flush.size,
                flush_reason=flush.reason,
                queue_wait_us=self.queue_wait_us,
                kernel_s=flush.duration_s,
            )
        return args


class _TailCapture:
    """Slowest :data:`TAIL_SLOW` per rolling window plus every errored request."""

    def __init__(self) -> None:
        self._seq = itertools.count()
        # window index -> min-heap of (duration, seq, trace); only the
        # current and previous windows are retained.
        self._windows: "OrderedDict[int, List[Tuple[float, int, RequestTrace]]]" = (
            OrderedDict()
        )
        self._errors: Deque[RequestTrace] = deque(maxlen=TAIL_ERRORS)

    def consider(self, trace: RequestTrace, now: float) -> None:
        if trace.status >= 400 or trace.error is not None:
            self._errors.append(trace)
        window = int(now / TAIL_WINDOW_S)
        heap = self._windows.get(window)
        if heap is None:
            heap = self._windows[window] = []
            while len(self._windows) > 2:
                self._windows.popitem(last=False)
        entry = (trace.duration_s, next(self._seq), trace)
        if len(heap) < TAIL_SLOW:
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
            "slow_capacity": TAIL_SLOW,
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
    ):
        self._clock = clock if clock is not None else core.monotonic
        self._epoch = self._clock()
        self.trace_prefix = trace_prefix or uuid.uuid4().hex[:8]
        self._request_ids = itertools.count(1)
        self.slo = SLOTracker(slo or SLOConfig(), clock=self._clock)
        #: The one per-request tally: ``(method, route, status, errored)
        #: -> finished requests``, ``errored`` when the request finished
        #: with an error message.  The caller bounds ``method`` and
        #: ``route``, so the key space is bounded.
        self.tally: Dict[Tuple[str, str, int, bool], int] = {}
        self.latency: Dict[Tuple[str, str], LogHistogram] = {}
        self._tail = _TailCapture()

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
        """Close a request: count it, feed the SLO, maybe keep the tail."""
        now = self.now()
        trace.duration_s = max(0.0, now - trace.start)
        trace.status = int(status)
        if error is not None:
            trace.error = error
        key = (trace.method, trace.route, trace.status, trace.error is not None)
        self.tally[key] = self.tally.get(key, 0) + 1
        route_class = (trace.route, status_class(trace.status))
        histogram = self.latency.get(route_class)
        if histogram is None:
            histogram = self.latency[route_class] = LogHistogram(LATENCY_BOUNDS_S)
        histogram.observe(trace.duration_s)
        # Availability counts server errors only; a 4xx is the client's
        # fault and still consumed the latency budget.
        self.slo.record(ok=trace.status < 500, latency_s=trace.duration_s)
        self._tail.consider(trace, now)

    def count(
        self, key: Callable[[str, str, int], object], *, failed: bool = False
    ) -> Dict[object, int]:
        """Sum the tally by ``key(method, route, status)``.

        With ``failed``, only requests that finished with an error
        message count (a degraded ``/healthz`` 503 is an answer, not an
        error).
        """
        totals: Dict[object, int] = {}
        for (method, route, status, errored), n in self.tally.items():
            if errored or not failed:
                group = key(method, route, status)
                totals[group] = totals.get(group, 0) + n
        return totals

    def requests_total(self) -> Dict[Tuple[str, str], int]:
        """``(route, status class) -> finished requests``."""
        return self.count(lambda method, route, status: (route, status_class(status)))

    # -- exports --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready aggregate state (served under ``/metrics``)."""
        totals: Dict[str, Dict[str, int]] = {}
        for (route, klass), n in sorted(self.requests_total().items()):
            totals.setdefault(route, {})[klass] = n
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
            "tail": self._tail.counts(),
        }

    def tail_trace(self) -> Dict[str, object]:
        """Chrome trace of every captured tail request.

        Each request becomes a ``server.request`` span with its phase
        children.  A request a micro-batch flush served also gets, built
        here from the flush record it points at, ``server.queue_wait``
        and ``server.kernel`` phases and a ``server.flush`` child, and
        under that a ``worker.predict`` span for the kernel, ending where
        the flush ends (in the worker's pid, for a pool), every span
        stamped with the request id.  A flush serving several captured
        requests is drawn once per request so each trace tree is
        self-contained.
        """
        recorder = core.Recorder(clock=lambda: 0.0, trace_id="tail")
        for trace in self._tail.entries():
            request_id = trace.request_id
            request_span = recorder.add_span(
                "server.request",
                "server",
                trace.start,
                trace.duration_s,
                args=trace.span_args(),
            )
            phases = trace.phases
            flush = trace.flush
            if flush is not None:
                flush_start = self.to_timeline(flush.start)
                wait_s = trace.queue_wait_us / 1e6
                phases = [
                    ("server.queue_wait", flush_start - wait_s, wait_s, {}),
                    (
                        "server.kernel",
                        flush_start,
                        flush.duration_s,
                        {"batch_id": flush.batch_id, "batch_size": flush.size},
                    ),
                ] + phases
            for name, start, duration_s, args in phases:
                recorder.add_span(
                    name,
                    "server",
                    start,
                    duration_s,
                    parent_id=request_span,
                    args={**args, "request_id": request_id},
                )
            if flush is None:
                continue
            flush_span = recorder.add_span(
                "server.flush",
                "server",
                flush_start,
                flush.duration_s,
                parent_id=request_span,
                args={
                    "request_id": request_id,
                    "batch_id": flush.batch_id,
                    "reason": flush.reason,
                    "size": flush.size,
                },
            )
            if flush.kernel_s is not None:
                flush_end = flush_start + flush.duration_s
                recorder.add_span(
                    "worker.predict",
                    "server",
                    max(flush_start, flush_end - flush.kernel_s),
                    flush.kernel_s,
                    parent_id=flush_span,
                    args={"request_id": request_id, "rows": flush.size},
                    pid=flush.pid,
                )
        return chrome_trace(recorder)
