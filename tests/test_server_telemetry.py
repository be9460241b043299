"""End-to-end serving telemetry: ids, accounting, Prometheus, traces, SLOs.

Everything here drives a real :class:`PredictServer` over real loopback
sockets — the acceptance surface for the request-id contract, the
error-path accounting, the Prometheus/JSON agreement, and the linked
request → flush → worker trace assembly.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing

import numpy as np
import pytest

from repro import obs
from repro.server import app as app_module
from repro.server.app import PredictServer, ServerConfig

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def query_points():
    rng = np.random.default_rng(7)
    return rng.normal(size=(12, 40))


@contextlib.asynccontextmanager
async def running_server(artifact_path, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    server = PredictServer(artifact_path, ServerConfig(**config_kwargs))
    host, port = await server.start()
    try:
        yield server, host, port
    finally:
        await server.stop()


async def read_response(reader, decode=json.loads):
    """Read one full response: ``(status, headers, decoded body or None)``."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return status, headers, decode(body) if body else None


async def raw_exchange(host, port, raw: bytes):
    """Send pre-built bytes, read one full response off the socket."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


def render_request(method, path, payload=None, extra_headers=()):
    body = b"" if payload is None else json.dumps(payload).encode()
    head = "%s %s HTTP/1.1\r\nHost: test\r\n" % (method, path)
    for name, value in extra_headers:
        head += "%s: %s\r\n" % (name, value)
    if body:
        head += "Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body)
    return head.encode() + b"\r\n" + body


async def request(host, port, method, path, payload=None, extra_headers=()):
    return await raw_exchange(host, port, render_request(method, path, payload, extra_headers))


class KeepAlive:
    """One keep-alive connection, one request at a time."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    async def send(self, method, path, payload=None, decode=json.loads):
        self.writer.write(render_request(method, path, payload))
        await self.writer.drain()
        return await read_response(self.reader, decode)

    async def metrics(self):
        """``(/metrics JSON, Prometheus text)``, one scrape after the other."""
        _, _, body = await self.send("GET", "/metrics")
        _, _, text = await self.send("GET", "/metrics?format=prometheus", decode=bytes.decode)
        return body, text


@contextlib.asynccontextmanager
async def keep_alive(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        yield KeepAlive(reader, writer)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


class TestRequestIds:
    def test_inbound_id_is_echoed(self, artifact_on_disk, query_points):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                return await request(
                    host,
                    port,
                    "POST",
                    "/predict",
                    {"point": list(query_points[0])},
                    extra_headers=[("X-Request-Id", "caller-abc")],
                )

        status, headers, body = asyncio.run(drive())
        assert status == 200
        assert headers["x-request-id"] == "caller-abc"
        assert "label" in body

    def test_generated_ids_are_unique(self, artifact_on_disk, query_points):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                results = []
                for row in query_points[:3]:
                    results.append(
                        await request(host, port, "POST", "/predict", {"point": list(row)})
                    )
                return results

        ids = [headers["x-request-id"] for _, headers, _ in asyncio.run(drive())]
        assert all(ids)
        assert len(set(ids)) == 3

    def test_oversized_inbound_id_is_capped(self, artifact_on_disk, query_points):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                return await request(
                    host,
                    port,
                    "POST",
                    "/predict",
                    {"point": list(query_points[0])},
                    extra_headers=[("X-Request-Id", "x" * 500)],
                )

        _, headers, _ = asyncio.run(drive())
        assert headers["x-request-id"] == "x" * 128


async def counts(host, port):
    """``(requests, errors, telemetry)`` as ``/metrics`` reports them."""
    _, _, metrics = await request(host, port, "GET", "/metrics")
    return metrics["requests"], metrics["errors"], metrics["telemetry"]


class TestErrorPathAccounting:
    """404 / 400 / 413 must count, echo an id, and feed telemetry."""

    def test_unknown_route_404(self, artifact_on_disk):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                result = await request(
                    host,
                    port,
                    "GET",
                    "/no/such/route",
                    extra_headers=[("X-Request-Id", "lost-1")],
                )
                return result, await counts(host, port)

        (status, headers, body), (requests, errors, telemetry) = asyncio.run(drive())
        assert status == 404
        assert headers["x-request-id"] == "lost-1"
        assert "error" in body
        # an unknown path is counted, as "other", never by its raw text
        assert requests == {"GET other": 1}
        assert errors == {"404": 1}
        assert telemetry["requests_total"]["other"]["4xx"] == 1

    def test_wrong_method_405(self, artifact_on_disk):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                result = await request(host, port, "GET", "/predict")
                return result, await counts(host, port)

        (status, headers, _), (requests, errors, _) = asyncio.run(drive())
        assert status == 405
        assert headers["x-request-id"]
        assert requests == {"GET /predict": 1}
        assert errors == {"405": 1}

    def test_json_parse_error_400(self, artifact_on_disk):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                raw = (
                    b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                    b"X-Request-Id: broken-7\r\n"
                    b"Content-Type: application/json\r\nContent-Length: 9\r\n\r\n"
                    b"not json!"
                )
                result = await raw_exchange(host, port, raw)
                return result, await counts(host, port)

        (status, headers, body), (requests, errors, _) = asyncio.run(drive())
        assert status == 400
        assert headers["x-request-id"] == "broken-7"
        assert requests == {"POST /predict": 1}
        assert errors == {"400": 1}

    def test_malformed_header_is_counted_as_bad_request(self, artifact_on_disk):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                raw = b"POST /predict HTTP/1.1\r\nthis-is-not-a-header\r\n\r\n"
                result = await raw_exchange(host, port, raw)
                return result, await counts(host, port)

        (status, headers, _), (requests, errors, telemetry) = asyncio.run(drive())
        assert status == 400
        assert headers["x-request-id"], "even a malformed request gets an id"
        assert requests == {"* bad_request": 1}
        assert errors == {"400": 1}
        assert telemetry["requests_total"]["bad_request"]["4xx"] == 1

    def test_oversized_body_413(self, artifact_on_disk, monkeypatch):
        monkeypatch.setattr(app_module, "MAX_BODY_BYTES", 256)

        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                payload = {"point": [0.0] * 10_000}
                result = await request(
                    host,
                    port,
                    "POST",
                    "/predict",
                    payload,
                    extra_headers=[("X-Request-Id", "big-1")],
                )
                return result, await counts(host, port)

        (status, headers, _), (requests, errors, _) = asyncio.run(drive())
        assert status == 413
        assert headers["x-request-id"] == "big-1"
        assert requests == {"* bad_request": 1}
        assert errors == {"413": 1}

    def test_scanning_clients_cannot_grow_the_counters(self, artifact_on_disk):
        """2,000 distinct unknown paths under 50 distinct methods.

        Every request is counted, as ``other``: the ``/metrics`` request
        and error keys and the ``repro_http_requests_total`` label sets
        after the scan are those after its first request.
        """

        def label_sets(metrics, text):
            samples = parse_prometheus(text)
            http = {labels for name, labels in samples if name == "repro_http_requests_total"}
            return set(metrics["requests"]), set(metrics["errors"]), http

        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                async with keep_alive(host, port) as connection:
                    for i in range(2000):
                        status, _, _ = await connection.send("M%02d" % (i % 50), "/scan/%d" % i)
                        assert status == 404
                        if i == 0:
                            await connection.metrics()  # so /metrics is counted in both
                            first = await connection.metrics()
                    return first, await connection.metrics()

        (first_json, first_text), (last_json, last_text) = asyncio.run(drive())
        assert label_sets(last_json, last_text) == label_sets(first_json, first_text)
        assert last_json["requests"]["other other"] == 2000
        assert last_json["errors"]["404"] == 2000
        assert len(last_text) - len(first_text) < 200, "the scrape grew with the scan"


def parse_prometheus(text: str):
    """``{(name, sorted-label-tuple): value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        body, _, value = line.rpartition(" ")
        if "{" in body:
            name, _, rest = body.partition("{")
            labels = tuple(
                sorted(
                    (pair.split("=", 1)[0], pair.split("=", 1)[1].strip('"'))
                    for pair in rest[:-1].split(",")
                    if pair
                )
            )
        else:
            name, labels = body, ()
        samples[(name, labels)] = float(value)
    return samples


class TestPrometheusAgreement:
    def test_bucket_counts_equal_json_snapshot(self, artifact_on_disk, query_points):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                for row in query_points:
                    status, _, _ = await request(
                        host, port, "POST", "/predict", {"point": list(row)}
                    )
                    assert status == 200
                # JSON first, then the scrape: predict-route series
                # freeze once predict traffic stops, so the two views
                # must agree exactly for that window.
                _, _, metrics = await request(host, port, "GET", "/metrics")
                return metrics, server.render_prometheus()

        metrics, prometheus = asyncio.run(drive())
        samples = parse_prometheus(prometheus)
        key = tuple(sorted((("route", "predict"), ("status_class", "2xx"))))
        side = metrics["telemetry"]["latency_seconds"]["predict"]["2xx"]
        assert samples[("repro_request_latency_seconds_count", key)] == side["count"]
        assert samples[("repro_requests_total", key)] == (
            metrics["telemetry"]["requests_total"]["predict"]["2xx"]
        )
        buckets = sorted(
            (float("inf") if dict(labels)["le"] == "+Inf" else float(dict(labels)["le"]), value)
            for (name, labels), value in samples.items()
            if name == "repro_request_latency_seconds_bucket"
            and tuple(p for p in labels if p[0] != "le") == key
        )
        cumulative = [value for _, value in buckets]
        assert cumulative == [float(c) for c in side["buckets"]["cumulative"]]
        assert cumulative == sorted(cumulative), "buckets must be cumulative"

    def test_scrape_response_over_http_is_parseable(self, artifact_on_disk):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(
                        b"GET /metrics?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n"
                    )
                    await writer.drain()
                    status_line = await reader.readline()
                    status = int(status_line.split()[1])
                    headers = {}
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"", b"\n"):
                            break
                        name, _, value = line.decode().partition(":")
                        headers[name.strip().lower()] = value.strip()
                    body = await reader.readexactly(int(headers["content-length"]))
                    return status, headers, body.decode("utf-8")
                finally:
                    writer.close()
                    with contextlib.suppress(ConnectionError):
                        await writer.wait_closed()

        status, headers, text = asyncio.run(drive())
        assert status == 200
        assert "version=0.0.4" in headers["content-type"]
        samples = parse_prometheus(text)
        assert ("repro_uptime_seconds", ()) in samples
        assert ("repro_workers_alive", ()) in samples


class TestFlushAttribution:
    def test_overflow_burst_attribution_via_metrics(self, artifact_on_disk, query_points):
        """A same-pass overflow burst: 10 concurrent singles, max_batch=4.

        The first pass overfills the batch (full flushes) and re-arms
        the remainder; every flush must be attributed to exactly one
        reason, and every submitted point must land in some batch.
        """

        async def drive():
            async with running_server(
                artifact_on_disk, max_batch=4, max_wait_us=50_000.0
            ) as (server, host, port):
                rows = [query_points[i % len(query_points)] for i in range(10)]
                results = await asyncio.gather(
                    *(
                        request(host, port, "POST", "/predict", {"point": list(row)})
                        for row in rows
                    )
                )
                assert all(status == 200 for status, _, _ in results)
                _, _, metrics = await request(host, port, "GET", "/metrics")
                return metrics

        metrics = asyncio.run(drive())
        batcher = metrics["batcher"]
        reasons = batcher["flush_reasons"]
        assert sum(reasons.values()) == batcher["n_flushes"], (
            "every flush must carry exactly one reason"
        )
        assert batcher["n_submitted"] == 10
        assert batcher["n_batched"] == 10, "every submission must reach a batch"
        assert reasons["full"] >= 2, (
            "10 concurrent singles at max_batch=4 must overflow at least twice: %s"
            % reasons
        )


class TestTailTraceEndToEnd:
    @staticmethod
    def assert_linked_spans(artifact, query_points, workers):
        """Acceptance: server.request → server.flush → worker.predict
        share one request id and form a connected parent chain."""

        async def drive():
            async with running_server(artifact, workers=workers) as (server, host, port):
                status, _, _ = await request(
                    host,
                    port,
                    "POST",
                    "/predict",
                    {"point": list(query_points[0])},
                    extra_headers=[("X-Request-Id", "traced-1")],
                )
                assert status == 200
                status, _, trace = await request(host, port, "GET", "/debug/tail_trace")
                assert status == 200
                return trace, [handle.process.pid for handle in server.backend._handles] if workers else []

        trace, worker_pids = asyncio.run(drive())
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        mine = [s for s in spans if s["args"].get("request_id") == "traced-1"]
        by_name = {span["name"]: span for span in mine}
        assert {"server.request", "server.flush", "worker.predict"} <= set(by_name), (
            sorted(by_name)
        )
        request_span = by_name["server.request"]
        flush_span = by_name["server.flush"]
        worker_span = by_name["worker.predict"]
        assert flush_span["args"]["parent_id"] == request_span["args"]["span_id"]
        assert worker_span["args"]["parent_id"] == flush_span["args"]["span_id"]
        # the kernel ran in a pool worker, or in the daemon itself
        if workers:
            assert worker_span["pid"] in worker_pids
        else:
            assert worker_span["pid"] == request_span["pid"]
        assert worker_span["dur"] <= flush_span["dur"]
        # the request span carries the batch attribution
        assert request_span["args"]["batch_id"] == flush_span["args"]["batch_id"]
        assert request_span["args"]["flush_reason"] in (
            "quiesce",
            "full",
            "timeout",
            "chained",
            "drain",
        )
        # phase decomposition rode along
        assert "server.queue_wait" in {span["name"] for span in mine}
        assert "server.kernel" in {span["name"] for span in mine}

    def test_linked_request_flush_worker_spans(self, artifact_on_disk, query_points):
        self.assert_linked_spans(artifact_on_disk, query_points, workers=0)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork")
    def test_linked_request_flush_worker_spans_in_a_pool(self, artifact_on_disk, query_points):
        self.assert_linked_spans(artifact_on_disk, query_points, workers=2)

    @staticmethod
    def assert_every_captured_predict_is_linked(artifact, query_points, workers):
        """3,000 sequential single predicts, one flush each, in one tail window.

        Each captured request points at its own flush record, so every
        captured ``/predict`` still has its ``server.flush`` and
        ``worker.predict`` children however many flushes ran since.
        """

        async def drive():
            async with running_server(artifact, workers=workers) as (server, host, port):
                async with keep_alive(host, port) as connection:
                    for i in range(3000):
                        row = query_points[i % len(query_points)]
                        payload = {"point": list(row)}
                        status, _, _ = await connection.send("POST", "/predict", payload)
                        assert status == 200
                    _, _, trace = await connection.send("GET", "/debug/tail_trace")
                return trace, server.batcher.stats.n_flushes

        trace, n_flushes = asyncio.run(drive())
        assert n_flushes >= 3000 - 64
        spans = [event for event in trace["traceEvents"] if event.get("ph") == "X"]
        by_id = {span["args"]["span_id"]: span for span in spans}
        children = {}
        for span in spans:
            parent = by_id.get(span["args"].get("parent_id"))
            if parent is not None:
                children.setdefault(parent["args"]["span_id"], []).append(span)
        captured = [
            span
            for span in spans
            if span["name"] == "server.request" and span["args"]["route"] == "predict"
        ]
        assert len(captured) >= 16, len(captured)
        unlinked = []
        for request_span in captured:
            request_id = request_span["args"]["request_id"]
            flushes = [
                span
                for span in children.get(request_span["args"]["span_id"], [])
                if span["name"] == "server.flush" and span["args"]["request_id"] == request_id
            ]
            kernels = [
                span
                for flush in flushes
                for span in children.get(flush["args"]["span_id"], [])
                if span["name"] == "worker.predict" and span["args"]["request_id"] == request_id
            ]
            if len(flushes) != 1 or len(kernels) != 1:
                unlinked.append(request_id)
        assert unlinked == [], "%d of %d captured predicts lost their flush" % (
            len(unlinked),
            len(captured),
        )

    def test_every_captured_predict_keeps_its_flush(self, artifact_on_disk, query_points):
        self.assert_every_captured_predict_is_linked(artifact_on_disk, query_points, workers=0)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork")
    def test_every_captured_predict_keeps_its_flush_in_a_pool(
        self, artifact_on_disk, query_points
    ):
        self.assert_every_captured_predict_is_linked(artifact_on_disk, query_points, workers=2)

    def test_a_captured_predict_shows_its_body_decode(self, artifact_on_disk, query_points):
        payloads = {
            "decode-single": {"point": list(query_points[0])},
            "decode-batch": {"points": query_points[:5].tolist()},
        }

        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                for request_id, payload in payloads.items():
                    status, _, _ = await request(
                        host, port, "POST", "/predict", payload,
                        extra_headers=[("X-Request-Id", request_id)],
                    )
                    assert status == 200
                _, _, trace = await request(host, port, "GET", "/debug/tail_trace")
                return trace

        spans = [e for e in asyncio.run(drive())["traceEvents"] if e.get("ph") == "X"]
        for request_id, payload in payloads.items():
            mine = {
                span["name"]: span for span in spans if span["args"]["request_id"] == request_id
            }
            decode, request_span = mine["server.decode"], mine["server.request"]
            assert decode["args"]["parent_id"] == request_span["args"]["span_id"]
            assert decode["args"]["bytes"] == len(json.dumps(payload).encode())
            assert decode["args"]["rows"] == len(payload.get("points", [None]))
            assert request_span["ts"] <= decode["ts"]
            assert decode["ts"] + decode["dur"] <= request_span["ts"] + request_span["dur"]

    def test_no_recorder_is_built_per_flush(self, artifact_on_disk, query_points, monkeypatch):
        built = []
        original_init = obs.Recorder.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(obs.Recorder, "__init__", counting_init)

        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                for i in range(50):
                    row = query_points[i % len(query_points)]
                    status, _, _ = await request(host, port, "POST", "/predict", {"point": list(row)})
                    assert status == 200
                return server.batcher.stats.n_flushes

        assert asyncio.run(drive()) == 50
        assert built == []


class TestHealthzSLO:
    def test_healthz_degrades_on_fast_burn(self, artifact_on_disk):
        async def drive():
            async with running_server(artifact_on_disk) as (server, host, port):
                status, _, body = await request(host, port, "GET", "/healthz")
                assert status == 200 and body["status"] == "ok"
                # Inject a server-error storm directly into the tracker:
                # enough 5xx to blow both the 1m and 5m windows.
                for _ in range(30):
                    trace = server.telemetry.begin_request("POST", "predict", "x")
                    server.telemetry.finish_request(trace, 500)
                return await request(host, port, "GET", "/healthz")

        status, headers, body = asyncio.run(drive())
        assert status == 503
        assert body["status"] == "degraded"
        assert body["reason"] == "slo_fast_burn"
        assert headers["x-request-id"]
        assert body["slo"]["fast_burn"] is True
        assert body["slo"]["objectives"]["fast_burn_threshold"] == 14.4
