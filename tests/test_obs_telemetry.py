"""Serving telemetry: request traces, aggregation, tails, Prometheus."""

from __future__ import annotations

import asyncio
import gc
import itertools
import json

import numpy as np
import pytest

from repro.obs.prom import (
    PromWriter,
    escape_label_value,
    format_number,
    write_histogram,
    write_telemetry,
)
from repro.obs.histogram import LogHistogram, log_bounds
from repro.obs import telemetry as telemetry_module
from repro.obs.slo import SLOConfig
from repro.obs.telemetry import (
    TAIL_ERRORS,
    TAIL_SLOW,
    RequestTrace,
    Telemetry,
    status_class,
)
from repro.server.batcher import Flush, MicroBatcher


def make_telemetry(step_s=1e-4):
    """A telemetry on a counter clock: every now() is ``step_s`` later."""
    ticks = itertools.count()
    return Telemetry(SLOConfig(), clock=lambda: next(ticks) * step_s, trace_prefix="test")


def make_flush(batch_id, size, start, duration_s, kernel_s=None, pid=None):
    """A flush record as the micro-batcher leaves it once the backend answered."""
    flush = Flush(batch_id, "quiesce", size, start)
    flush.duration_s, flush.kernel_s, flush.pid = duration_s, kernel_s, pid
    return flush


def spans_by_name(chrome):
    return {event["name"]: event for event in chrome["traceEvents"] if event.get("ph") == "X"}


class TestStatusClass:
    def test_maps_and_clamps(self):
        assert status_class(200) == "2xx"
        assert status_class(404) == "4xx"
        assert status_class(503) == "5xx"
        assert status_class(999) == "5xx"
        assert status_class(0) == "1xx"


class TestRequestTrace:
    def test_flush_link_renders_queue_wait_and_kernel_phases(self):
        telemetry = make_telemetry()
        trace = telemetry.begin_request("POST", "predict", "req-1")
        trace.flush, trace.queue_wait_us = make_flush(7, 4, 0.0005, 0.002), 500.0
        assert trace.phases == [], "phases are built when the tail renders, not per request"
        telemetry.finish_request(trace, 500, error="boom")
        spans = spans_by_name(telemetry.tail_trace())
        wait, kernel = spans["server.queue_wait"], spans["server.kernel"]
        assert wait["dur"] == pytest.approx(500.0)
        # kernel starts where the queue wait ends, and spans the flush
        assert kernel["ts"] == pytest.approx(wait["ts"] + wait["dur"])
        assert kernel["dur"] == pytest.approx(2000.0)
        assert kernel["args"]["batch_id"] == 7 and kernel["args"]["batch_size"] == 4
        args = spans["server.request"]["args"]
        assert (args["batch_id"], args["batch_size"], args["queue_wait_us"]) == (7, 4, 500.0)

    def test_an_unlinked_request_has_no_batch_phases(self):
        telemetry = make_telemetry()
        trace = telemetry.begin_request("POST", "predict", "req-1")
        telemetry.finish_request(trace, 500, error="boom")
        spans = spans_by_name(telemetry.tail_trace())
        assert set(spans) == {"server.request"}
        assert "batch_id" not in spans["server.request"]["args"]

    def test_span_args_carry_identity_and_batch(self):
        trace = RequestTrace("req-9", "GET", "healthz", 0.0)
        trace.status = 200
        args = trace.span_args()
        assert args["request_id"] == "req-9"
        assert args["route"] == "healthz"
        assert "batch_id" not in args


class TestTelemetryAggregation:
    def test_request_ids_are_unique_and_prefixed(self):
        telemetry = make_telemetry()
        ids = {telemetry.next_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(rid.startswith("test-") for rid in ids)

    def test_finish_aggregates_by_route_and_class(self):
        telemetry = make_telemetry()
        for status in (200, 200, 404, 500):
            trace = telemetry.begin_request("POST", "predict", "r")
            telemetry.finish_request(trace, status, error="bad" if status >= 400 else None)
        assert telemetry.tally == {
            ("POST", "predict", 200, False): 2,
            ("POST", "predict", 404, True): 1,
            ("POST", "predict", 500, True): 1,
        }
        snapshot = telemetry.snapshot()
        assert snapshot["requests_total"]["predict"] == {"2xx": 2, "4xx": 1, "5xx": 1}
        latency = snapshot["latency_seconds"]["predict"]["2xx"]
        assert latency["count"] == 2
        cumulative = latency["buckets"]["cumulative"]
        assert cumulative[-1] == 2
        assert latency["buckets"]["le"][-1] == "+Inf"

    def test_500s_feed_the_availability_slo(self):
        telemetry = make_telemetry()
        for _ in range(30):
            trace = telemetry.begin_request("POST", "predict", "r")
            telemetry.finish_request(trace, 500)
        report = telemetry.snapshot()["slo"]
        assert report["status"] == "fast_burn"

    def test_4xx_does_not_burn_availability(self):
        telemetry = make_telemetry()
        for _ in range(30):
            trace = telemetry.begin_request("POST", "predict", "r")
            telemetry.finish_request(trace, 404)
        report = telemetry.snapshot()["slo"]
        assert report["status"] == "ok"

    def test_errored_requests_are_tail_captured(self):
        telemetry = make_telemetry()
        ok = telemetry.begin_request("POST", "predict", "ok-req")
        telemetry.finish_request(ok, 200)
        bad = telemetry.begin_request("POST", "predict", "bad-req")
        telemetry.finish_request(bad, 500, error="kernel exploded")
        counts = telemetry.snapshot()["tail"]
        assert counts["captured_errors"] == 1

    def test_failed_counts_only_requests_that_finished_with_an_error(self):
        telemetry = make_telemetry()
        for status, error in ((200, None), (404, "no route"), (503, None), (503, "worker died")):
            trace = telemetry.begin_request("GET", "healthz", "r")
            telemetry.finish_request(trace, status, error=error)
        by_status = telemetry.count(lambda method, route, status: status)
        assert by_status == {200: 1, 404: 1, 503: 2}
        # a degraded /healthz 503 is an answer, not an error
        assert telemetry.count(lambda method, route, status: status, failed=True) == {
            404: 1,
            503: 1,
        }

    def test_slow_capture_is_bounded(self, monkeypatch):
        monkeypatch.setattr(telemetry_module, "TAIL_SLOW", 4)
        telemetry = make_telemetry()
        for i in range(100):
            trace = telemetry.begin_request("POST", "predict", "req-%d" % i)
            telemetry.finish_request(trace, 200)
        counts = telemetry.snapshot()["tail"]
        assert counts["captured_slow"] <= 2 * 4  # current + previous window

    def test_capture_references_a_bounded_number_of_flush_records(self):
        """Traces keep their flush records, so the capture bounds them.

        600 single-point requests through a real batcher, over three
        60 s tail windows, every seventh one failing: the captured
        traces point at no more than ``2 * TAIL_SLOW + TAIL_ERRORS``
        flush records, and nothing they reach holds a points array.
        """
        telemetry = make_telemetry(step_s=0.05)

        async def predict(points):
            return np.zeros(len(points), dtype=int), 1e-4, None

        async def drive():
            batcher = MicroBatcher(predict, max_batch=64, max_wait_us=2000.0)
            for i in range(600):
                trace = telemetry.begin_request("POST", "predict", "req-%d" % i)
                await batcher.submit(np.full(8, float(i)), trace)
                telemetry.finish_request(trace, 500 if i % 7 == 0 else 200)

        asyncio.run(drive())
        captured = telemetry._tail.entries()
        flushes = {id(trace.flush): trace.flush for trace in captured}
        assert len(captured) > TAIL_ERRORS and None not in flushes.values()
        assert len(flushes) <= 2 * TAIL_SLOW + TAIL_ERRORS
        assert not [trace for trace in captured if _reaches_an_array(trace)]
        for flush in flushes.values():
            assert all(
                value is None or type(value) in (int, float, str)
                for value in (getattr(flush, name) for name in Flush.__slots__)
            )


def _reaches_an_array(root):
    """True if an ndarray hangs off ``root`` through traces, flushes or containers."""
    stack, seen = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            return True
        if isinstance(obj, (RequestTrace, Flush, list, tuple, dict)):
            stack.extend(gc.get_referents(obj))
    return False


class TestTailTrace:
    def test_links_request_flush_and_worker_spans(self):
        telemetry = make_telemetry()
        trace = telemetry.begin_request("POST", "predict", "req-linked")
        # The backend timed a 0.4ms kernel in worker process 999.
        trace.flush = make_flush(3, 2, 0.0, 0.001, kernel_s=0.0004, pid=999)
        trace.queue_wait_us = 100.0
        telemetry.finish_request(trace, 500, error="boom")  # errored => captured

        chrome = telemetry.tail_trace()
        events = {
            event["name"]: event
            for event in chrome["traceEvents"]
            if event.get("ph") == "X"
        }
        assert {"server.request", "server.flush", "worker.predict"} <= set(events)
        request = events["server.request"]
        flush = events["server.flush"]
        worker = events["worker.predict"]
        # one shared request id across all three layers
        for event in (request, flush, worker):
            assert event["args"]["request_id"] == "req-linked"
        # and a connected parent chain request -> flush -> worker
        assert flush["args"]["parent_id"] == request["args"]["span_id"]
        assert worker["args"]["parent_id"] == flush["args"]["span_id"]
        # the kernel span is the timed kernel, in the worker's process,
        # ending where its flush ends
        assert worker["pid"] == 999 and worker["args"]["rows"] == 2
        assert worker["dur"] == pytest.approx(400.0)
        assert worker["ts"] + worker["dur"] == pytest.approx(flush["ts"] + flush["dur"])

    def test_a_flush_without_kernel_timing_has_no_kernel_span(self):
        telemetry = make_telemetry()
        trace = telemetry.begin_request("POST", "predict", "req-untimed")
        # a flush whose backend call failed: no kernel seconds came back
        trace.flush, trace.queue_wait_us = make_flush(4, 1, 0.0, 0.001), 10.0
        telemetry.finish_request(trace, 500, error="boom")
        names = {
            event["name"] for event in telemetry.tail_trace()["traceEvents"] if event.get("ph") == "X"
        }
        assert "server.flush" in names and "worker.predict" not in names

    def test_uncaptured_requests_produce_no_spans(self):
        telemetry = make_telemetry()
        spans = [
            event
            for event in telemetry.tail_trace()["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert spans == []


class TestPromFormat:
    def test_format_number(self):
        assert format_number(float("inf")) == "+Inf"
        assert format_number(3.0) == "3"
        assert format_number(0.25) == "0.25"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_writer_renders_families_and_samples(self):
        writer = PromWriter()
        writer.family("x_total", "counter", "a counter")
        writer.sample("x_total", {"route": "predict"}, 3)
        text = writer.render()
        assert "# HELP x_total a counter" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{route="predict"} 3' in text
        assert text.endswith("\n")

    def test_write_histogram_scales_bounds_not_counts(self):
        histogram = LogHistogram(log_bounds(1.0, 100.0))
        for value in (2.0, 20.0):
            histogram.observe(value)
        writer = PromWriter()
        writer.family("w_seconds", "histogram", "waits")
        write_histogram(writer, "w_seconds", {}, histogram, scale=1e-3)
        text = writer.render()
        assert "w_seconds_count 2" in text
        assert "w_seconds_sum 0.022" in text
        assert 'le="+Inf"' in text


class TestWriteTelemetry:
    def test_prometheus_counts_equal_snapshot(self):
        telemetry = make_telemetry()
        for status in (200, 200, 200, 404):
            trace = telemetry.begin_request("POST", "predict", "r")
            telemetry.finish_request(trace, status)
        snapshot = telemetry.snapshot()
        writer = PromWriter()
        write_telemetry(writer, telemetry)
        text = writer.render()
        assert 'repro_requests_total{route="predict",status_class="2xx"} 3' in text
        assert 'repro_requests_total{route="predict",status_class="4xx"} 1' in text
        count_line = (
            'repro_request_latency_seconds_count{route="predict",status_class="2xx"} %d'
            % snapshot["latency_seconds"]["predict"]["2xx"]["count"]
        )
        assert count_line in text
        assert "repro_slo_fast_burn 0" in text

    def test_output_is_deterministic(self):
        def build():
            telemetry = make_telemetry()
            for status in (200, 500, 404):
                trace = telemetry.begin_request("POST", "predict", "r")
                telemetry.finish_request(trace, status)
            writer = PromWriter()
            write_telemetry(writer, telemetry)
            return writer.render(), json.dumps(telemetry.snapshot(), sort_keys=True)

        assert build() == build()
