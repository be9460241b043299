"""The routed serving application: ``PredictServer``.

One asyncio event loop accepts connections, parses requests
(:mod:`repro.server.http`), and dispatches:

``POST /predict``
    ``{"point": [..]}`` rides the :class:`~repro.server.batcher.MicroBatcher`
    — concurrent single-point requests coalesce into one blocked-kernel
    call.  ``{"points": [[..], ..]}`` is already a batch and goes straight
    to the backend.  Labels are bit-identical to
    :meth:`~repro.serving.index.ProjectedClusterIndex.predict` — the
    batcher only *stacks* requests, and JSON round-trips floats exactly.
``POST /predict_soft``
    Top-``m`` soft assignments (labels, cluster ids, gains) for
    ``1 <= top_m <= k``, ``min(3, k)`` when the request names none;
    ``-inf`` gain padding is emitted as JSON ``-Infinity``.
``POST /partial_update``
    The write path.  Serialised by an application-level lock, folded
    through the backend's single owner (worker 0, or in-process the
    compute thread, while reads wait), which commits the post-fold state
    to the ``state_dir`` generation store
    (:class:`~repro.reliability.generations.GenerationStore`: 2
    generations plus a recycled spare, ``CURRENT`` flipped last), then
    rebroadcast to replicas.  A commit that fails undoes the owner's fold
    and fails the update with a 503 naming the backend, the op and the
    errno (never a path), so no replica reloads and ``generation`` stays
    put.  The response carries the new generation number: the count of
    updates since boot.  A boot artifact inside ``state_dir`` is refused
    at start (:class:`ArtifactInStateDirError`): the owner's index maps
    it, and the store overwrites its generations in place.
``GET /healthz``
    Liveness + shape: generation, worker counts, cluster/dimension
    counts, uptime, and the SLO report — the status degrades to 503
    when the error budget is fast-burning (see :mod:`repro.obs.slo`).
``GET /metrics``
    Batcher statistics (batch-size / queue-wait percentiles, flush
    reasons), request counts by method and path, error counts by status,
    and the telemetry snapshot (per route × status-class totals and
    latency histograms, SLO windows).  ``?format=prometheus`` renders the
    same state as Prometheus text exposition instead.  Every request
    count comes from the telemetry's one per-request tally; a method or
    path the daemon does not serve counts as ``other``, so a client
    scanning paths cannot grow the scrape.
``GET /debug/tail_trace``
    Chrome trace of the tail capture: the slowest and errored requests
    with their full span trees — a point route's ``server.decode`` phase
    (body to checked point block, bytes in and rows out), and each
    ``server.request`` span linked to the ``server.flush`` that served it
    and, under that, a ``worker.predict`` span for the kernel (built from
    the duration the backend timed, with the worker's pid in a pool), all
    stamped with the request id.  Each captured request points at the
    batcher's record of its flush, so the link survives however many
    flushes ran since.

Every request carries an id: an inbound ``X-Request-Id`` header is
honored, otherwise one is generated, and every response — including
4xx/5xx and pre-routing parse errors — echoes it back.  Every response
also carries the artifact ``generation`` it was served from, so a
client interleaving folds and predicts can tell which state answered.

A request body past :data:`MAX_BODY_BYTES` is a 413, and a keep-alive
connection idle for :data:`IDLE_TIMEOUT_S` is closed.  The tail capture
keeps :data:`~repro.obs.telemetry.TAIL_SLOW` slowest requests per window
and :data:`~repro.obs.telemetry.TAIL_ERRORS` errored ones.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qsl

import numpy as np

from repro import obs
from repro.obs.prom import CONTENT_TYPE, PromWriter, write_histogram, write_telemetry
from repro.obs.slo import SLOConfig
from repro.obs.telemetry import RequestTrace, Telemetry
from repro.server.batcher import FLUSH_REASONS, MicroBatcher
from repro.server.http import (
    HTTPError,
    HTTPRequest,
    json_response,
    read_request,
    render_response,
)
from repro.server.pool import BackendError, make_backend

PathLike = Union[str, Path]

__all__ = ["ArtifactInStateDirError", "PredictServer", "ServerConfig"]

#: Request bodies larger than this are refused with a 413.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Keep-alive connections idle longer than this are closed.
IDLE_TIMEOUT_S = 300.0

#: Bounded-cardinality telemetry labels per path; any other path, and
#: any method no route serves, counts as "other" so a scanning client
#: cannot grow the per-request tally or the scrape.
ROUTE_LABELS = {
    "/predict": "predict",
    "/predict_soft": "predict_soft",
    "/partial_update": "partial_update",
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/debug/tail_trace": "tail_trace",
}
#: The path each label stands for in ``/metrics`` ``requests`` and
#: ``repro_http_requests_total``; "other" and "bad_request" stand for
#: themselves.
ROUTE_PATHS = {label: path for path, label in ROUTE_LABELS.items()}

#: orjson reads an integer literal outside ``[-2**63, 2**64)`` as a float
#: of at least this magnitude, where :func:`json.loads` keeps the int.
_WIDE = 2.0**63


class ArtifactInStateDirError(ValueError):
    """The boot artifact lies inside ``state_dir``, whose generations are recycled."""


class _Inexact(Exception):
    """A fast-decoded body holds a number of magnitude 2**63 or more.

    orjson may have read it from an integer literal past 64 bits, so the
    body is parsed again from :meth:`HTTPRequest.reference_json`.
    """


def _refuse_inexact(value: object, exact: bool) -> None:
    """Raise :class:`_Inexact` for a float past 2**63 in a fast decode."""
    if not exact and isinstance(value, float) and abs(value) >= _WIDE:
        raise _Inexact


@dataclass
class RawResponse:
    """A handler result that is already rendered (non-JSON payloads)."""

    body: bytes
    content_type: str


@dataclass
class ServerConfig:
    """Tunables for one :class:`PredictServer`.

    Each field is set by the ``repro-server`` flag of the same name
    (``max_batch`` by ``--max-batch``); a value no command line sets is
    a module constant instead (:data:`MAX_BODY_BYTES`,
    :data:`IDLE_TIMEOUT_S`).  The daemon always maps its artifact.
    """

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (reported by :meth:`PredictServer.start`).
    port: int = 0
    #: ``0`` runs the index in-process; ``N >= 1`` forks N pool workers.
    workers: int = 0
    #: Micro-batcher: flush at this many pending single-point requests.
    max_batch: int = 64
    #: Micro-batcher: oldest pending request waits at most this long.
    max_wait_us: float = 2000.0
    #: The generation store ``partial_update`` commits to; ``None`` = private tempdir.
    state_dir: Optional[str] = None
    #: SLO: fraction of requests that must not be server errors (5xx).
    slo_availability_target: float = 0.999
    #: SLO: per-request latency budget in milliseconds.
    slo_latency_budget_ms: float = 250.0
    #: SLO: fraction of requests that must land within the budget.
    slo_latency_target: float = 0.99


class PredictServer:
    """The serving daemon: routes, batcher, backend, and lifecycle."""

    def __init__(self, artifact_path: PathLike, config: Optional[ServerConfig] = None) -> None:
        self.artifact_path = str(artifact_path)
        self.config = config or ServerConfig()
        self.backend = make_backend(self.artifact_path, n_workers=self.config.workers)
        self.batcher = MicroBatcher(
            self.backend.predict,
            max_batch=self.config.max_batch,
            max_wait_us=self.config.max_wait_us,
        )
        self.generation = 0
        self.telemetry = Telemetry(
            SLOConfig(
                availability_target=self.config.slo_availability_target,
                latency_budget_ms=self.config.slo_latency_budget_ms,
                latency_target=self.config.slo_latency_target,
            )
        )
        # Route table is hot (hit once per request) — build it once.
        self._routes = {
            ("POST", "/predict"): self._handle_predict,
            ("POST", "/predict_soft"): self._handle_predict_soft,
            ("POST", "/partial_update"): self._handle_partial_update,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/debug/tail_trace"): self._handle_tail_trace,
        }
        self._known_paths = {path for _, path in self._routes}
        self._known_methods = {method for method, _ in self._routes}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._conn_last_active: Dict[object, Tuple[float, asyncio.StreamWriter]] = {}
        self._sweeper: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self._started_at: Optional[float] = None
        self._n_dimensions: Optional[int] = None
        self._n_clusters: Optional[int] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Boot the backend and bind the listener; returns ``(host, port)``.

        Raises :class:`ArtifactInStateDirError`, before booting anything,
        when the artifact lies inside ``state_dir``.
        """
        if self.config.state_dir is not None:
            state_dir = os.path.realpath(self.config.state_dir)
            artifact = os.path.realpath(self.artifact_path)
            if os.path.commonpath([state_dir, artifact]) == state_dir:
                raise ArtifactInStateDirError(
                    "the artifact %s lies inside the state directory %s, whose "
                    "generations are overwritten in place; serve a copy from "
                    "elsewhere" % (self.artifact_path, self.config.state_dir)
                )
        with obs.span("server.start", category="server"):
            await self.backend.start()
            # Workers exist only now, so the flush gate is set post-boot.
            self.batcher.max_concurrency = self.backend.parallelism
            description = self.backend.describe()
            self._n_dimensions = int(description.get("n_dimensions", 0)) or None
            # Fixed for the daemon's life: folds never add or retire clusters.
            self._n_clusters = int(description["n_clusters"])
            if self.config.state_dir is None:
                self._tempdir = tempfile.TemporaryDirectory(prefix="repro-server-")
                self._state_dir = self._tempdir.name
            else:
                self._state_dir = self.config.state_dir
                Path(self._state_dir).mkdir(parents=True, exist_ok=True)
            self._server = await asyncio.start_server(
                self._handle_client, self.config.host, self.config.port
            )
            self._started_at = obs.monotonic()
            self._sweeper = asyncio.get_running_loop().create_task(self._sweep_idle())
        sockets = self._server.sockets or ()
        host, port = sockets[0].getsockname()[:2]
        obs.event("server_started", host=host, port=port, workers=self.config.workers)
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server is not started")
        await self._server.serve_forever()

    async def _sweep_idle(self) -> None:
        """Close connections idle past :data:`IDLE_TIMEOUT_S` (periodic sweep)."""
        interval = max(1.0, IDLE_TIMEOUT_S / 4.0)
        while True:
            await asyncio.sleep(interval)
            deadline = obs.monotonic() - IDLE_TIMEOUT_S
            for last_seen, writer in list(self._conn_last_active.values()):
                if last_seen < deadline:
                    writer.close()  # the handler's blocked read returns EOF

    async def stop(self) -> None:
        """Drain the batcher, stop the listener and the backend."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections never EOF on their own; cancel
        # their handler tasks so shutdown does not hang or log spew.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.batcher.drain()
        await self.backend.stop()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        # Idle reaping is a sweep over connection timestamps, NOT an
        # asyncio.wait_for per request — wrapping every read in a timer
        # costs tens of µs/request, which under micro-batched load is
        # comparable to the amortised kernel itself.
        self._conn_last_active[task] = (obs.monotonic(), writer)
        try:
            while True:
                try:
                    request = await read_request(reader, max_body_bytes=MAX_BODY_BYTES)
                except HTTPError as exc:
                    # Pre-routing failure (malformed request, oversized
                    # body): still assign a request id (honoring any
                    # inbound one the parser salvaged), and still count
                    # the request — unaccounted traffic is invisible
                    # traffic.
                    request_id = self._request_id(exc.headers)
                    trace = self.telemetry.begin_request("*", "bad_request", request_id)
                    self.telemetry.finish_request(trace, exc.status, error=exc.message)
                    writer.write(
                        json_response(
                            {"error": exc.message},
                            status=exc.status,
                            keep_alive=False,
                            request_id=request_id,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self._conn_last_active[task] = (obs.monotonic(), writer)
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown closing an idle keep-alive connection
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
                self._conn_last_active.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    def _request_id(self, headers: Dict[str, str]) -> str:
        """Honor an inbound ``X-Request-Id`` (length-capped) or mint one."""
        inbound = headers.get("x-request-id", "").strip()
        if inbound:
            return inbound[:128]
        return self.telemetry.next_request_id()

    async def _dispatch(self, request: HTTPRequest) -> bytes:
        keep = request.keep_alive
        request_id = self._request_id(request.headers)
        method = request.method if request.method in self._known_methods else "other"
        trace = self.telemetry.begin_request(
            method, ROUTE_LABELS.get(request.path, "other"), request_id
        )
        status = 500
        try:
            try:
                handler = self._route(request)
                payload, status = await handler(request, trace)
                if isinstance(payload, RawResponse):
                    return render_response(
                        status,
                        payload.body,
                        content_type=payload.content_type,
                        keep_alive=keep,
                        request_id=request_id,
                    )
                serialize_start = obs.monotonic()
                response = json_response(
                    payload, status=status, keep_alive=keep, request_id=request_id
                )
                trace.add_phase(
                    "server.serialize",
                    self.telemetry.to_timeline(serialize_start),
                    obs.monotonic() - serialize_start,
                )
                return response
            except HTTPError as exc:
                status = exc.status
                trace.error = exc.message
                return json_response(
                    {"error": exc.message},
                    status=status,
                    keep_alive=keep,
                    request_id=request_id,
                )
            except BackendError as exc:
                status = 503
                trace.error = exc.public
                obs.event(
                    "backend_error",
                    route="%s %s" % (request.method, request.path),
                    error=str(exc),
                    worker_traceback=exc.worker_traceback,
                )
                return json_response(
                    {"error": exc.public}, status=503, keep_alive=keep, request_id=request_id
                )
            except Exception as exc:  # noqa: BLE001 - the daemon must not die per-request
                status = 500
                trace.error = repr(exc)
                obs.event(
                    "server_error", route="%s %s" % (request.method, request.path), error=repr(exc)
                )
                return json_response(
                    {"error": "internal error: %r" % exc},
                    status=500,
                    keep_alive=keep,
                    request_id=request_id,
                )
        finally:
            self.telemetry.finish_request(trace, status)

    def _route(self, request: HTTPRequest):
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if request.path in self._known_paths:
                raise HTTPError(405, "method %s not allowed on %s" % (request.method, request.path))
            raise HTTPError(404, "no route for %s" % request.path)
        return handler

    # ------------------------------------------------------------------ #
    # request parsing helpers
    # ------------------------------------------------------------------ #
    def _decode(self, request: HTTPRequest, trace: RequestTrace, parse):
        """``parse`` a point route's body, timed as its ``server.decode`` phase.

        ``parse(payload, exact)`` checks the fast decode first; when it
        raises :class:`_Inexact`, it checks the reference decode, so every
        status and error text is the one :func:`json.loads` gives.
        """
        start = obs.monotonic()
        try:
            parsed = parse(request.json(), False)
        except _Inexact:
            parsed = parse(request.reference_json(), True)
        trace.add_phase(
            "server.decode",
            self.telemetry.to_timeline(start),
            obs.monotonic() - start,
            bytes=len(request.body),
            rows=int(parsed[0].shape[0]),
        )
        return parsed

    def _parse_points(self, payload: object, exact: bool) -> Tuple[np.ndarray, bool]:
        """``(points_2d, is_single)`` from a ``point`` / ``points`` body."""
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object")
        if ("point" in payload) == ("points" in payload):
            raise HTTPError(400, "provide exactly one of 'point' or 'points'")
        single = "point" in payload
        raw = payload["point"] if single else payload["points"]
        # Discover the dtype instead of forcing float, which would parse
        # "1.5" and true: strings discover a string dtype, all-boolean
        # input a boolean one, and nulls, objects and integers past 64
        # bits an object one.
        try:
            points = np.asarray(raw)
        except (TypeError, ValueError) as exc:
            raise HTTPError(400, "points are not numeric: %s" % exc) from exc
        if points.dtype.kind not in "iuf":
            raise HTTPError(
                400, "points must be JSON numbers, not strings, booleans, nulls or "
                "integers past 64 bits",
            )
        # orjson reads an integer literal past 64 bits as a float, where
        # json.loads keeps an int that makes this an object array, refused
        # above: a magnitude of 2**63 or more goes to json.loads before any
        # other check.  A fast decode holds no NaN or infinity, so this
        # pass is its finiteness check too.
        if not exact and not (np.abs(points) < _WIDE).all():
            raise _Inexact
        if single:
            if points.ndim != 1:
                raise HTTPError(400, "'point' must be a flat list of numbers")
        elif points.ndim != 2:
            raise HTTPError(400, "'points' must be a list of equal-length rows")
        if points.size == 0:
            raise HTTPError(400, "empty point set")
        # A boolean among numbers discovers a numeric dtype as 0 or 1, so
        # only the rows holding a 0 or a 1 are scanned for one.
        suspects = (points == 0) | (points == 1)
        if suspects.any():
            rows = [raw] if single else [raw[i] for i in np.flatnonzero(suspects.any(axis=1))]
            if any(bool in map(type, row) for row in rows):
                raise HTTPError(400, "points must be JSON numbers, not booleans")
        points = points.astype(float, copy=False)
        if single:
            points = points[None, :]
        # json.loads parses NaN, Infinity and overflowing literals (1e400);
        # one such row would fail the whole micro-batch it joins.
        if exact and not np.isfinite(points).all():
            raise HTTPError(400, "points must be finite numbers")
        if self._n_dimensions is not None and points.shape[1] != self._n_dimensions:
            raise HTTPError(
                400,
                "points have %d dimensions, the artifact has %d"
                % (points.shape[1], self._n_dimensions),
            )
        return points, single

    def _parse_soft(self, payload: object, exact: bool) -> Tuple[np.ndarray, bool, int]:
        """``(points_2d, is_single, top_m)`` from a ``/predict_soft`` body."""
        points, single = self._parse_points(payload, exact)
        top_m = payload.get("top_m", min(3, self._n_clusters))
        if not isinstance(top_m, int) or isinstance(top_m, bool) or top_m < 1:
            _refuse_inexact(top_m, exact)
            raise HTTPError(400, "'top_m' must be a positive integer")
        if top_m > self._n_clusters:
            raise HTTPError(
                400, "'top_m' must be at most %d, the served cluster count" % self._n_clusters
            )
        return points, single, top_m

    def _parse_update(
        self, payload: object, exact: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(points_2d, labels or None)`` from a ``/partial_update`` body."""
        points, _ = self._parse_points(payload, exact)
        raw = payload.get("labels")
        if raw is None:
            return points, None
        # Validate client-supplied fold labels: integers in [-1, k).
        if not isinstance(raw, list) or len(raw) != points.shape[0]:
            raise HTTPError(400, "'labels' must match 'points' row for row")
        k = self._n_clusters
        for label in raw:
            if not isinstance(label, int) or isinstance(label, bool) or not -1 <= label < k:
                _refuse_inexact(label, exact)
                raise HTTPError(400, "'labels' must be integers in [-1, %d), got %r" % (k, label))
        return points, np.asarray(raw, dtype=int)

    # ------------------------------------------------------------------ #
    # handlers — each returns (payload, status)
    # ------------------------------------------------------------------ #
    async def _handle_predict(self, request: HTTPRequest, trace: RequestTrace):
        points, single = self._decode(request, trace, self._parse_points)
        if single:
            label = await self.batcher.submit(points[0], trace)
            return {"label": int(label), "generation": self.generation}, 200
        kernel_start = obs.monotonic()
        labels, _, _ = await self.backend.predict(points)
        trace.add_phase(
            "server.kernel",
            self.telemetry.to_timeline(kernel_start),
            obs.monotonic() - kernel_start,
            rows=int(points.shape[0]),
        )
        return {
            "labels": [int(label) for label in labels],
            "generation": self.generation,
        }, 200

    async def _handle_predict_soft(self, request: HTTPRequest, trace: RequestTrace):
        points, single, top_m = self._decode(request, trace, self._parse_soft)
        labels, clusters, gains = await self.backend.predict_soft(points, top_m)
        body = {
            "labels": [int(label) for label in labels],
            "clusters": [[int(c) for c in row] for row in clusters],
            "gains": [[float(g) for g in row] for row in gains],
            "generation": self.generation,
        }
        if single:
            body.update(
                label=body["labels"][0],
                clusters=body["clusters"][0],
                gains=body["gains"][0],
            )
            del body["labels"]
        return body, 200

    async def _handle_partial_update(self, request: HTTPRequest, trace: RequestTrace):
        points, labels = self._decode(request, trace, self._parse_update)
        async with self._write_lock:
            with obs.span("server.partial_update", category="server") as update_span:
                # The owner commits the generation (durable, CURRENT
                # flipped) before replicas reload it or anyone is told.
                applied, absorbed = await self.backend.partial_update(
                    points, labels, self._state_dir
                )
                await self.backend.reload_replicas(self._state_dir)
                # In-process, reads pass the write gate from the loop step
                # the backend returned in, and the in-process reload does
                # not suspend, so the bump lands in that same step.
                self.generation += 1
                update_span.set(rows=int(points.shape[0]), absorbed=absorbed)
        return {
            "applied_labels": [int(label) for label in applied],
            "absorbed": int(absorbed),
            "generation": self.generation,
        }, 200

    async def _handle_healthz(self, request: HTTPRequest, trace: RequestTrace):
        description = self.backend.describe()
        uptime = 0.0
        if self._started_at is not None:
            uptime = obs.monotonic() - self._started_at
        slo = self.telemetry.slo.report()
        reason = None
        if self.backend.alive_workers == 0:
            reason = "no_live_workers"
        elif slo["fast_burn"]:
            # The declared objectives are burning fast enough to page on;
            # degrade so load balancers shed traffic before it gets worse.
            reason = "slo_fast_burn"
        body = {
            "status": "ok" if reason is None else "degraded",
            "generation": self.generation,
            "uptime_s": round(uptime, 3),
            "slo": slo,
            **description,
        }
        if reason is not None:
            body["reason"] = reason
        return body, (200 if reason is None else 503)

    async def _handle_metrics(self, request: HTTPRequest, trace: RequestTrace):
        if dict(parse_qsl(request.query)).get("format") == "prometheus":
            return RawResponse(self.render_prometheus().encode("utf-8"), CONTENT_TYPE), 200
        return {
            "batcher": self.batcher.snapshot(),
            "requests": {
                "%s %s" % key: count for key, count in self._requests_by_method_and_path().items()
            },
            "errors": {str(status): count for status, count in self._errors_by_status().items()},
            "generation": self.generation,
            "batcher_depth": self.batcher.depth,
            "batcher_max_wait_us": self.batcher.max_wait_us,
            "telemetry": self.telemetry.snapshot(),
        }, 200

    async def _handle_tail_trace(self, request: HTTPRequest, trace: RequestTrace):
        return self.telemetry.tail_trace(), 200

    def _requests_by_method_and_path(self) -> Dict[Tuple[str, str], int]:
        return self.telemetry.count(
            lambda method, route, status: (method, ROUTE_PATHS.get(route, route))
        )

    def _errors_by_status(self) -> Dict[int, int]:
        return self.telemetry.count(lambda method, route, status: status, failed=True)

    def render_prometheus(self) -> str:
        """The whole server state as Prometheus text exposition."""
        writer = PromWriter()
        write_telemetry(writer, self.telemetry)
        writer.family("repro_http_requests_total", "counter", "Requests by method and path.")
        for (method, path), count in sorted(self._requests_by_method_and_path().items()):
            writer.sample("repro_http_requests_total", {"method": method, "path": path}, count)
        writer.family("repro_http_errors_total", "counter", "Error responses by status code.")
        for status, count in sorted(self._errors_by_status().items()):
            writer.sample("repro_http_errors_total", {"status": str(status)}, count)
        stats = self.batcher.stats
        writer.family(
            "repro_batcher_flush_total", "counter", "Micro-batch flushes by reason."
        )
        for flush_reason in FLUSH_REASONS:
            writer.sample(
                "repro_batcher_flush_total",
                {"reason": flush_reason},
                stats.flush_reasons.get(flush_reason, 0),
            )
        writer.family(
            "repro_batcher_submitted_total",
            "counter",
            "Single-point submissions that entered the micro-batcher.",
        )
        writer.sample("repro_batcher_submitted_total", None, self.batcher.n_submitted)
        writer.family("repro_batch_size", "histogram", "Rows per micro-batch flush.")
        write_histogram(writer, "repro_batch_size", {}, stats.batch_size)
        writer.family(
            "repro_queue_wait_seconds",
            "histogram",
            "Time a submission waited in the batcher queue.",
        )
        write_histogram(
            writer, "repro_queue_wait_seconds", {}, stats.queue_wait_us, scale=1e-6
        )
        writer.family(
            "repro_batcher_depth", "gauge", "Submissions pending in the batcher."
        )
        writer.sample("repro_batcher_depth", None, self.batcher.depth)
        writer.family("repro_generation", "gauge", "Artifact generation being served.")
        writer.sample("repro_generation", None, self.generation)
        writer.family("repro_workers_alive", "gauge", "Live backend workers.")
        writer.sample("repro_workers_alive", None, self.backend.alive_workers)
        uptime = 0.0
        if self._started_at is not None:
            uptime = obs.monotonic() - self._started_at
        writer.family("repro_uptime_seconds", "gauge", "Seconds since the daemon booted.")
        writer.sample("repro_uptime_seconds", None, uptime)
        return writer.render()
