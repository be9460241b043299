"""Prometheus text exposition (version 0.0.4) for serving telemetry.

Stdlib-only rendering of the classic text format::

    # HELP repro_requests_total Finished requests by route and status class.
    # TYPE repro_requests_total counter
    repro_requests_total{route="predict",status_class="2xx"} 128

:class:`PromWriter` is a tiny line builder enforcing the format's
grouping rule (all samples of a family follow its ``# HELP``/``# TYPE``
header).  :func:`write_telemetry` emits the telemetry-owned families —
request totals (summed from the telemetry's one per-request tally),
the per route × status-class latency histogram as a cumulative
``_bucket`` series, and the SLO burn-rate gauges; the serving daemon
layers its own process/batcher families on top before rendering.  Bucket counts come straight from
:meth:`~repro.obs.histogram.LogHistogram.cumulative`, so the
exposition's ``_bucket{le="+Inf"}`` always equals ``_count`` and both
always equal the JSON snapshot's totals for the same scrape.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from repro.obs.histogram import LogHistogram
from repro.obs.slo import WINDOWS

__all__ = [
    "CONTENT_TYPE",
    "PromWriter",
    "escape_label_value",
    "format_number",
    "write_histogram",
    "write_telemetry",
]

#: Content-Type for the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def escape_label_value(value: object) -> str:
    """Escape a label value per the exposition format rules."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def format_number(value: float) -> str:
    """Render a sample value or ``le`` bound (``+Inf`` for infinity)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return "%.10g" % value


class PromWriter:
    """Accumulates exposition lines family by family."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        """Open a metric family (``# HELP`` + ``# TYPE`` header)."""
        self._lines.append("# HELP %s %s" % (name, help_text))
        self._lines.append("# TYPE %s %s" % (name, kind))

    def sample(
        self, name: str, labels: Optional[Mapping[str, object]], value: float
    ) -> None:
        """Append one sample line, labels rendered in the given order."""
        if labels:
            rendered = ",".join(
                '%s="%s"' % (key, escape_label_value(val))
                for key, val in labels.items()
            )
            self._lines.append("%s{%s} %s" % (name, rendered, format_number(value)))
        else:
            self._lines.append("%s %s" % (name, format_number(value)))

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def write_histogram(
    writer: PromWriter,
    name: str,
    labels: Mapping[str, object],
    histogram: LogHistogram,
    scale: float = 1.0,
) -> None:
    """Emit one labeled histogram series (``_bucket``/``_sum``/``_count``).

    ``scale`` converts bucket bounds and the sum into exposition units
    (e.g. ``1e-6`` for a histogram recorded in microseconds exposed in
    seconds); bucket *counts* are never scaled.
    """
    for bound, cumulative in histogram.cumulative():
        writer.sample(
            name + "_bucket",
            {**labels, "le": format_number(bound * scale if math.isfinite(bound) else bound)},
            cumulative,
        )
    writer.sample(name + "_sum", labels, histogram.sum * scale)
    writer.sample(name + "_count", labels, histogram.count)


def write_telemetry(writer: PromWriter, telemetry: "object") -> None:
    """Emit the telemetry-owned families into ``writer``.

    ``telemetry`` is a :class:`repro.obs.telemetry.Telemetry`; typed as
    object to keep this module import-light.
    """
    writer.family(
        "repro_requests_total",
        "counter",
        "Finished requests by route and status class.",
    )
    for (route, klass), count in sorted(telemetry.requests_total().items()):
        writer.sample(
            "repro_requests_total",
            {"route": route, "status_class": klass},
            count,
        )

    writer.family(
        "repro_request_latency_seconds",
        "histogram",
        "Request latency by route and status class.",
    )
    for (route, klass), histogram in sorted(telemetry.latency.items()):
        write_histogram(
            writer,
            "repro_request_latency_seconds",
            {"route": route, "status_class": klass},
            histogram,
        )

    writer.family(
        "repro_slo_burn_rate",
        "gauge",
        "Error-budget burn rate per rolling window and objective.",
    )
    window_reports: Dict[str, Mapping[str, float]] = {
        label: telemetry.slo.window(seconds) for seconds, label in WINDOWS
    }
    for label, report in window_reports.items():
        writer.sample(
            "repro_slo_burn_rate",
            {"window": label, "objective": "availability"},
            report["availability_burn"],
        )
        writer.sample(
            "repro_slo_burn_rate",
            {"window": label, "objective": "latency"},
            report["latency_burn"],
        )

    writer.family(
        "repro_slo_fast_burn",
        "gauge",
        "1 while both the 1m and 5m windows burn above the threshold.",
    )
    writer.sample("repro_slo_fast_burn", None, 1.0 if telemetry.slo.fast_burn() else 0.0)
