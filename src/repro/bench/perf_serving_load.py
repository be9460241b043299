"""Load benchmark of the serving daemon: micro-batched HTTP throughput.

Boots a real :class:`~repro.server.app.PredictServer` (loopback TCP,
hand-rolled HTTP/1.1) inside the benchmark's event loop and drives it
with single-point ``/predict`` requests in three phases:

1. **sequential floor** — one keep-alive connection, one request at a
   time.  This is the daemon's un-batched unit of account: what a
   client sees with zero concurrency.
2. **capacity** — a closed-loop pool of ``connections`` keep-alive
   connections.  Concurrent singles coalesce in the micro-batcher and
   ride the blocked kernel together; sustained requests/sec here over
   the floor is the **batching speedup** the daemon buys (the
   acceptance gate: >= 4x at the smoke configuration, workers=0).
3. **Poisson open-loop** — requests scheduled by a Poisson process at
   ``open_utilization`` of the measured capacity; latency is counted
   from the *scheduled* arrival, not the send (no coordinated
   omission), and reported as p50/p99.

Every label returned over HTTP — all three phases — is compared
bit-for-bit against an in-process
:meth:`~repro.serving.index.ProjectedClusterIndex.predict` over the
same queries; any mismatch fails the run.

The client deliberately shares the server's event loop: on a
single-core CI shard a separate load-generator process would steal the
daemon's CPU and measure scheduler contention instead of serving
throughput.  Ratios (speedup) are robust to the shared-loop overhead
because both phases pay it.

The committed floors of the ``serving_load`` scenario live in
``BENCH_smoke.json`` / ``BENCH_reduced.json``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import tempfile
import time
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.bench.perf_serving import build_dataset, build_queries
from repro.core.sspc import SSPC
from repro.obs.histogram import nearest_rank
from repro.serving.artifact import load_artifact
from repro.serving.index import ProjectedClusterIndex
from repro.server.app import PredictServer, ServerConfig


def _make_request_bytes(point: np.ndarray) -> bytes:
    """Pre-serialized ``POST /predict`` — client overhead off the clock."""
    payload = json.dumps({"point": [float(value) for value in point]}).encode("ascii")
    return (
        b"POST /predict HTTP/1.1\r\n"
        b"Host: bench\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(payload)).encode("ascii") + b"\r\n\r\n" + payload
    )


async def _read_label(reader: asyncio.StreamReader) -> int:
    """Read one HTTP response off a keep-alive connection; return the label."""
    header = await reader.readuntil(b"\r\n\r\n")
    content_length = 0
    for line in header.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            content_length = int(line.split(b":", 1)[1])
    body = await reader.readexactly(content_length) if content_length else b""
    status = int(header.split(b" ", 2)[1])
    if status != 200:
        raise RuntimeError("server returned %d: %s" % (status, body[:200].decode("utf-8", "replace")))
    return int(json.loads(body)["label"])


def _percentile_ms(latencies_s: List[float], fraction: float) -> float:
    return nearest_rank(sorted(latencies_s), fraction) * 1e3


async def _run_phases(
    params: Mapping[str, object], artifact_path: str, queries: np.ndarray
) -> dict:
    config = ServerConfig(
        port=0,
        workers=params["workers"],
        max_batch=params["max_batch"],
        max_wait_us=params["max_wait_us"],
    )
    server = PredictServer(artifact_path, config)
    host, port = await server.start()
    bodies = [_make_request_bytes(point) for point in queries]
    # query index -> label seen over HTTP, for the bit-identity gate
    seen: Dict[int, int] = {}

    # Cyclic GC off for the timed phases (re-enabled in the finally):
    # when the host process carries a large heap (the repro-bench
    # orchestrator imports every experiment module), full collections
    # triggered by the request storm show up as tail-latency spikes that
    # measure the caller's heap size, not the daemon.  This mirrors how
    # latency-sensitive services deploy (collect + freeze at boot).
    gc.collect()
    gc.disable()
    try:
        # ---- warmup + sequential floor -------------------------------
        reader, writer = await asyncio.open_connection(host, port)
        for index in range(min(params["warmup"], len(bodies))):
            writer.write(bodies[index])
            await _read_label(reader)
        n_sequential = min(params["n_sequential"], len(bodies))
        start = time.perf_counter()
        for index in range(n_sequential):
            writer.write(bodies[index])
            seen[index] = await _read_label(reader)
        sequential_pps = n_sequential / (time.perf_counter() - start)
        writer.close()

        # ---- capacity: closed loop over the connection pool ----------
        connections: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        for _ in range(params["connections"]):
            connections.append(await asyncio.open_connection(host, port))
        n_capacity = min(params["n_capacity"], len(bodies))
        cursor = {"next": 0}

        async def capacity_worker(conn) -> None:
            conn_reader, conn_writer = conn
            while cursor["next"] < n_capacity:
                index = cursor["next"]
                cursor["next"] += 1
                conn_writer.write(bodies[index])
                seen[index] = await _read_label(conn_reader)

        start = time.perf_counter()
        await asyncio.gather(*(capacity_worker(conn) for conn in connections))
        capacity_pps = n_capacity / (time.perf_counter() - start)

        # ---- Poisson open loop at a fraction of measured capacity ----
        offered_pps = params["open_utilization"] * capacity_pps
        n_open = min(params["n_open"], len(bodies))
        gaps = np.random.default_rng(params["seed"] + 2).exponential(
            scale=1.0 / offered_pps, size=n_open
        )
        arrivals = np.cumsum(gaps)
        free: asyncio.Queue = asyncio.Queue()
        for conn in connections:
            free.put_nowait(conn)
        latencies: List[float] = []

        async def open_loop_request(index: int, scheduled: float, epoch: float) -> None:
            conn = await free.get()
            conn_reader, conn_writer = conn
            try:
                conn_writer.write(bodies[index])
                seen[index] = await _read_label(conn_reader)
            finally:
                free.put_nowait(conn)
            # Latency from the *scheduled* arrival: queueing for a free
            # connection and scheduler lag stay on the clock.
            latencies.append(time.perf_counter() - (epoch + scheduled))

        epoch = time.perf_counter()
        open_tasks = []
        for index in range(n_open):
            delay = (epoch + arrivals[index]) - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            open_tasks.append(
                asyncio.ensure_future(open_loop_request(index, arrivals[index], epoch))
            )
        await asyncio.gather(*open_tasks)
        open_wall = time.perf_counter() - epoch
        for _, conn_writer in connections:
            conn_writer.close()

        batcher_snapshot = server.batcher.stats.snapshot()
    finally:
        gc.enable()
        await server.stop()

    return {
        "sequential_points_per_sec": sequential_pps,
        "batched_points_per_sec": capacity_pps,
        "batching_speedup": capacity_pps / sequential_pps,
        "offered_points_per_sec": offered_pps,
        "achieved_open_loop_pps": n_open / open_wall,
        "p50_latency_ms": _percentile_ms(latencies, 0.50),
        "p99_latency_ms": _percentile_ms(latencies, 0.99),
        "batcher": batcher_snapshot,
        "labels_seen": seen,
    }


def run_benchmark(params: Mapping[str, object]) -> dict:
    n_clusters = params["n_clusters"]
    seed = params["seed"]
    dataset = build_dataset(params["n_objects"], params["n_dimensions"], n_clusters, seed)
    fit_start = time.perf_counter()
    model = SSPC(
        n_clusters=n_clusters,
        m=0.5,
        max_iterations=params["fit_iterations"],
        random_state=seed,
    ).fit(dataset.data)
    fit_seconds = time.perf_counter() - fit_start

    n_queries = max(
        params["n_sequential"] + params["warmup"], params["n_capacity"], params["n_open"]
    )
    queries = build_queries(dataset, n_queries, seed)

    with tempfile.TemporaryDirectory(prefix="repro-serving-load-") as tmp:
        artifact_path = "%s/model" % tmp
        model.to_artifact().save(artifact_path)
        phases = asyncio.run(_run_phases(params, artifact_path, queries))
        reference_labels = ProjectedClusterIndex(load_artifact(artifact_path)).predict(queries)

    seen = phases.pop("labels_seen")
    labels_bit_identical = all(
        reference_labels[index] == label for index, label in seen.items()
    )

    return {
        "fit_seconds": fit_seconds,
        **phases,
        "n_labels_checked": len(seen),
        "labels_bit_identical": bool(labels_bit_identical),
        "speedup_floor_ok": bool(phases["batching_speedup"] >= params["min_speedup"]),
        "p99_within_budget": bool(phases["p99_latency_ms"] <= params["p99_budget_ms"]),
    }
