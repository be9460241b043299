"""Serving telemetry: request traces, aggregation, tails, Prometheus."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.obs.prom import (
    PromWriter,
    escape_label_value,
    format_number,
    write_histogram,
    write_telemetry,
)
from repro.obs.histogram import LogHistogram, log_bounds
from repro.obs.slo import SLOConfig
from repro.obs.telemetry import RequestTrace, Telemetry, status_class


def make_telemetry(**kwargs):
    """A telemetry on a counter clock: every now() is 0.1ms later."""
    ticks = itertools.count()
    kwargs.setdefault("clock", lambda: next(ticks) * 1e-4)
    kwargs.setdefault("trace_prefix", "test")
    return Telemetry(SLOConfig(), **kwargs)


class TestStatusClass:
    def test_maps_and_clamps(self):
        assert status_class(200) == "2xx"
        assert status_class(404) == "4xx"
        assert status_class(503) == "5xx"
        assert status_class(999) == "5xx"
        assert status_class(0) == "1xx"


class TestRequestTrace:
    def test_link_batch_adopts_ticket_and_phases(self):
        trace = RequestTrace("req-1", "POST", "predict", 1.0)
        trace.link_batch(
            {
                "batch_id": 7,
                "batch_size": 4,
                "flush_reason": "full",
                "queue_wait_us": 500.0,
                "kernel_s": 0.002,
            },
            submitted_at=1.001,
        )
        assert trace.batch_id == 7
        assert trace.flush_reason == "full"
        names = [name for name, *_ in trace.phases]
        assert names == ["server.queue_wait", "server.kernel"]
        # kernel starts where the queue wait ends
        _, wait_start, wait_duration, _ = trace.phases[0]
        _, kernel_start, _, _ = trace.phases[1]
        assert kernel_start == pytest.approx(wait_start + wait_duration)

    def test_link_batch_ignores_unfilled_ticket(self):
        trace = RequestTrace("req-1", "POST", "predict", 1.0)
        trace.link_batch({}, submitted_at=1.0)
        assert trace.batch_id is None
        assert trace.phases == []

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
            telemetry.finish_request(trace, status)
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

    def test_slow_capture_is_bounded(self):
        telemetry = make_telemetry(tail_slow=4)
        for i in range(100):
            trace = telemetry.begin_request("POST", "predict", "req-%d" % i)
            telemetry.finish_request(trace, 200)
        counts = telemetry.snapshot()["tail"]
        assert counts["captured_slow"] <= 2 * 4  # current + previous window

    def test_flush_retention_is_bounded(self):
        telemetry = make_telemetry(flush_capacity=8)
        for i in range(50):
            telemetry.observe_flush(i, "full", 4, i * 1e-4, 1e-3)
        assert telemetry.snapshot()["tail"]["flushes_retained"] == 8


class TestTailTrace:
    def test_links_request_flush_and_worker_spans(self):
        telemetry = make_telemetry()
        trace = telemetry.begin_request("POST", "predict", "req-linked")
        trace.link_batch(
            {
                "batch_id": 3,
                "batch_size": 2,
                "flush_reason": "quiesce",
                "queue_wait_us": 100.0,
                "kernel_s": 0.001,
            },
            submitted_at=trace.start,
        )
        # The backend timed a 0.4ms kernel in worker process 999.
        telemetry.observe_flush(3, "quiesce", 2, 0.0, 0.001, kernel_s=0.0004, pid=999)
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
        trace.link_batch(
            {
                "batch_id": 4,
                "batch_size": 1,
                "flush_reason": "quiesce",
                "queue_wait_us": 10.0,
                "kernel_s": 0.001,
            },
            submitted_at=trace.start,
        )
        telemetry.observe_flush(4, "quiesce", 1, 0.0, 0.001)
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
