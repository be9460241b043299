"""Shared configuration for the paper-claim pytest modules.

Every module regenerates one table or figure of the paper by running the
corresponding *registered scenario* (see :mod:`repro.bench.scenarios`)
through exactly the same plan / execute / aggregate pipeline as the
``repro-bench`` orchestrator, so the two paths cannot drift.  Each
module prints the figure-style table of reproduced numbers and asserts
the paper's shape claims on top, so running ``pytest benchmarks/ -s``
regenerates the paper's results.  Per-task seconds are recorded by
``repro-bench run``.

Scale resolution is centralized in :mod:`repro.bench.config`: the suite
runs at the ``reduced`` scale by default and at the full paper scale
with ``REPRO_BENCH_SCALE=paper`` (``repro-bench run --suite ...`` uses
the same resolution).
"""

from __future__ import annotations

import pytest

from repro.bench.config import resolve_scale

SCALE = resolve_scale()


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """The resolved benchmark scale (``smoke`` / ``reduced`` / ``paper``)."""
    return SCALE


def pytest_report_header(config):
    return (
        "repro benchmark scale: %s (set REPRO_BENCH_SCALE=paper for full scale)" % SCALE
    )
