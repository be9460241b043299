"""Observability overhead gate: instrumentation must be provably cheap.

The workload is one deterministic tour through every instrumented
subsystem — an SSPC fit, a block of streaming batches, a serve
predict/partial-update pass, a (serial) executor job and a
fake-clock pass through the serving telemetry hot path — fingerprinted
by hashing every label array (and telemetry export) it produces.
Three claims are gated:

* **disabled overhead < 2%** — with no recorder installed every hook is
  one module-global load plus an ``is None`` test.  Timing that
  directly is hopeless (it vanishes into scheduler noise), so the gate
  is an *upper bound*: the enabled run counts every hook crossing
  (``recorder.n_hook_calls``), a tight loop measures the worst-case
  per-call cost of a disabled hook, and their product over the
  disabled workload's wall clock bounds the relative overhead.  The
  always-on serving telemetry is priced the same way: a probe loop
  measures the per-request begin/finish cost and the bound charges
  one record per telemetry-leg request.
* **bit identity** — the fingerprint with a recorder installed equals
  the fingerprint without one: observability never perturbs results.
* **subsystem coverage** — the enabled run's trace spans at least four
  distinct categories (fit, engine, stream, serve, executor), so the
  instrumentation cannot silently rot away.

The committed baselines of the ``obs_overhead`` scenario live in
``BENCH_smoke.json`` / ``BENCH_reduced.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from typing import Mapping

import numpy as np

from repro import obs
from repro.core.sspc import SSPC
from repro.data.generator import SyntheticDataGenerator
from repro.obs.prom import PromWriter, write_telemetry
from repro.obs.slo import SLOConfig
from repro.obs.telemetry import Telemetry
from repro.serving.index import ProjectedClusterIndex
from repro.stream import StreamConfig, StreamingSSPC
from repro.utils.executor import SerialExecutor

#: Gate: estimated disabled-path overhead must stay under this.
MAX_DISABLED_OVERHEAD_PCT = 2.0

#: Gate: the enabled run must span at least this many subsystems.
MIN_SUBSYSTEM_CATEGORIES = 4

#: Calls used to measure the per-call cost of a disabled hook.
PROBE_CALLS = 200_000

#: Calls used to measure the per-request cost of serving telemetry.
TELEMETRY_PROBE_CALLS = 20_000


def _executor_leg(item: int) -> int:
    return item * item


def run_workload(params: Mapping[str, object]) -> str:
    """One deterministic pass through fit / stream / serve / executor.

    Returns a fingerprint hash of every produced label array; identical
    inputs must yield an identical fingerprint whether or not a
    recorder is installed.
    """
    n_dimensions = params["n_dimensions"]
    batch_size = params["batch_size"]
    seed = params["seed"]
    dataset = SyntheticDataGenerator(
        n_objects=params["n_objects"],
        n_dimensions=n_dimensions,
        n_clusters=params["n_clusters"],
        avg_cluster_dimensionality=max(n_dimensions // 10, 3),
        outlier_fraction=0.05,
        random_state=seed,
    ).generate(seed)
    digest = hashlib.sha256()

    model = SSPC(
        n_clusters=params["n_clusters"],
        m=0.5,
        max_iterations=params["fit_iterations"],
        random_state=seed,
    ).fit(dataset.data)
    digest.update(np.ascontiguousarray(model.labels_).tobytes())
    digest.update(np.float64(model.objective_).tobytes())

    engine = StreamingSSPC(
        model.to_artifact(),
        config=StreamConfig(seed=seed, drift_check_every=2, lifecycle_every=4),
    )
    rng = np.random.default_rng(seed + 1)
    for _ in range(params["stream_batches"]):
        result = engine.process_batch(rng.normal(size=(batch_size, n_dimensions)))
        digest.update(np.ascontiguousarray(result.labels).tobytes())

    index = ProjectedClusterIndex(model.to_artifact())
    queries = rng.normal(size=(batch_size, n_dimensions))
    labels = index.predict(queries)
    index.partial_update(queries, labels)
    digest.update(np.ascontiguousarray(labels).tobytes())

    squares = SerialExecutor().map(_executor_leg, list(range(16)))
    digest.update(np.asarray(squares, dtype=np.int64).tobytes())

    digest.update(run_telemetry_workload(params).encode("ascii"))
    return digest.hexdigest()


def run_telemetry_workload(params: Mapping[str, object]) -> str:
    """One deterministic tour through the serving-telemetry hot path.

    A counter clock makes every duration, SLO window and burn rate
    reproducible, so the aggregate snapshot and the Prometheus
    rendering fold into the workload fingerprint: the always-on
    telemetry must neither perturb nor be perturbed by a recorder
    being installed.
    """
    ticks = itertools.count()
    telemetry = Telemetry(
        SLOConfig(latency_budget_ms=0.5),
        clock=lambda: next(ticks) * 1e-4,
        trace_prefix="bench",
    )
    statuses = (200, 200, 200, 200, 404, 200, 500, 200)
    for i in range(params["telemetry_requests"]):
        route = "predict" if i % 3 else "predict_soft"
        trace = telemetry.begin_request("POST", route, telemetry.next_request_id())
        if i % 5 == 0:
            batch_id = i // 5 + 1
            trace.link_batch(
                {
                    "batch_id": batch_id,
                    "batch_size": 4,
                    "flush_reason": "full",
                    "queue_wait_us": 150.0,
                    "kernel_s": 2e-4,
                },
                trace.start,
            )
            telemetry.observe_flush(batch_id, "full", 4, i * 1e-4, 2e-4)
        telemetry.finish_request(trace, statuses[i % len(statuses)])

    writer = PromWriter()
    write_telemetry(writer, telemetry)
    digest = hashlib.sha256()
    digest.update(json.dumps(telemetry.snapshot(), sort_keys=True).encode("utf-8"))
    digest.update(writer.render().encode("utf-8"))
    # The assembled tail trace carries process ids, so only its shape
    # (event count) joins the fingerprint.
    n_events = len(telemetry.tail_trace()["traceEvents"])
    digest.update(b"tail:%d" % n_events)
    return digest.hexdigest()


def measure_disabled_hook_seconds() -> float:
    """Worst-case per-call cost of a hook with no recorder installed."""
    with obs.suspended():
        per_call = []
        for hook in (lambda: obs.incr("probe"), lambda: obs.span("probe")):
            start = time.perf_counter()
            for _ in range(PROBE_CALLS):
                hook()
            per_call.append((time.perf_counter() - start) / PROBE_CALLS)
    return max(per_call)


def measure_telemetry_record_seconds() -> float:
    """Per-request cost of the always-on telemetry aggregation path."""
    telemetry = Telemetry(trace_prefix="probe")
    start = time.perf_counter()
    for _ in range(TELEMETRY_PROBE_CALLS):
        trace = telemetry.begin_request("POST", "predict", "probe")
        telemetry.finish_request(trace, 200)
    return (time.perf_counter() - start) / TELEMETRY_PROBE_CALLS


def run_benchmark(params: Mapping[str, object]) -> dict:
    # ---- disabled arm: plain wall clock, shielded from outer recorders
    disabled_times = []
    fingerprint_disabled = ""
    with obs.suspended():
        for _ in range(params["repeats"]):
            start = time.perf_counter()
            fingerprint_disabled = run_workload(params)
            disabled_times.append(time.perf_counter() - start)
    disabled_seconds = min(disabled_times)

    # ---- enabled arm: a fresh recorder captures the whole workload
    with obs.recording() as recorder:
        start = time.perf_counter()
        fingerprint_enabled = run_workload(params)
        enabled_seconds = time.perf_counter() - start
        n_hook_calls = recorder.n_hook_calls
        n_spans = len(recorder.spans)
        categories = {span["cat"] for span in recorder.spans}

    per_hook_seconds = measure_disabled_hook_seconds()
    per_telemetry_seconds = measure_telemetry_record_seconds()
    # Upper bound: every hook the enabled run crossed plus every
    # always-on telemetry record, each priced at its measured per-call
    # cost, relative to the real workload.
    hook_seconds = n_hook_calls * per_hook_seconds
    telemetry_requests = params["telemetry_requests"]
    telemetry_seconds = telemetry_requests * per_telemetry_seconds
    overhead_disabled_pct = 100.0 * (hook_seconds + telemetry_seconds) / disabled_seconds
    telemetry_overhead_pct = 100.0 * telemetry_seconds / disabled_seconds
    overhead_enabled_pct = 100.0 * (enabled_seconds - disabled_seconds) / disabled_seconds

    return {
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "n_hook_calls": n_hook_calls,
        "per_hook_disabled_ns": per_hook_seconds * 1e9,
        "n_telemetry_requests": telemetry_requests,
        "per_telemetry_record_ns": per_telemetry_seconds * 1e9,
        "telemetry_overhead_pct": telemetry_overhead_pct,
        "overhead_disabled_pct": overhead_disabled_pct,
        "overhead_enabled_pct": overhead_enabled_pct,
        "overhead_disabled_ok": overhead_disabled_pct < MAX_DISABLED_OVERHEAD_PCT,
        "enabled_bit_identical": fingerprint_disabled == fingerprint_enabled,
        "categories": sorted(categories),
        "subsystem_coverage_ok": len(categories) >= MIN_SUBSYSTEM_CATEGORIES,
        "n_spans": n_spans,
        "fingerprint": fingerprint_disabled,
    }
