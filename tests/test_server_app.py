"""End-to-end tests of PredictServer over real HTTP connections."""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import multiprocessing
import re
import threading

import numpy as np
import pytest

from repro import obs
from repro.reliability import FaultPlan, FaultSpec, GenerationStore, active
from repro.serving.artifact import load_artifact
from repro.serving.index import ProjectedClusterIndex
from repro.server import app as app_module
from repro.server.app import ArtifactInStateDirError, PredictServer, ServerConfig
from repro.server.http import HTTPRequest

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: In-process and pool daemons; the pool leg needs fork.
WORKER_COUNTS = [0, pytest.param(2, marks=pytest.mark.skipif(not HAS_FORK, reason="needs fork"))]


@pytest.fixture(scope="module")
def query_points():
    rng = np.random.default_rng(42)
    return rng.normal(size=(20, 40))


@contextlib.asynccontextmanager
async def running_server(artifact_path, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    server = PredictServer(artifact_path, ServerConfig(**config_kwargs))
    host, port = await server.start()
    try:
        yield server, host, port
    finally:
        await server.stop()


async def exchange(reader, writer, method, path, body=b"", extra_headers=""):
    """One HTTP round trip on an open connection: ``(status, headers, json)``."""
    head = "%s %s HTTP/1.1\r\nHost: test\r\n%s" % (method, path, extra_headers)
    if body:
        head += "Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body)
    writer.write(head.encode() + b"\r\n" + body)
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
    raw = await reader.readexactly(int(headers["content-length"]))
    return status, headers, json.loads(raw)


async def request_on(reader, writer, method, path, payload=None):
    """One HTTP round trip on an already-open connection."""
    body = b"" if payload is None else json.dumps(payload).encode()
    status, _, parsed = await exchange(reader, writer, method, path, body)
    return status, parsed


async def raw_request(host, port, method, path, body=b"", extra_headers=""):
    """One round trip with a literal body on a fresh connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await exchange(reader, writer, method, path, body, extra_headers)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


async def request(host, port, method, path, payload=None):
    """One HTTP round trip on a fresh connection."""
    body = b"" if payload is None else json.dumps(payload).encode()
    status, _, parsed = await raw_request(host, port, method, path, body)
    return status, parsed


def body_with_literal(key, row, literal):
    """A ``{key: row}`` JSON body whose first coordinate is ``literal``."""
    values = [literal] + [json.dumps(float(value)) for value in row[1:]]
    if key == "points":
        return ('{"points": [[%s]]}' % ", ".join(values)).encode()
    return ('{"point": [%s]}' % ", ".join(values)).encode()


async def assert_no_server_errors(host, port):
    """``/metrics`` counts no 5xx and ``/healthz`` stays 200 at generation 0."""
    status, metrics = await request(host, port, "GET", "/metrics")
    assert status == 200
    assert not [code for code in metrics["errors"] if code.startswith("5")], metrics["errors"]
    status, health = await request(host, port, "GET", "/healthz")
    assert status == 200, health
    assert health["generation"] == 0


def test_healthz_reports_shape(artifact_on_disk):
    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            return await request(host, port, "GET", "/healthz")

    status, body = asyncio.run(drive())
    assert status == 200
    assert body["status"] == "ok"
    assert body["generation"] == 0
    assert body["n_dimensions"] == 40
    assert body["uptime_s"] >= 0.0


def test_predict_single_and_batch_bit_identical(artifact_on_disk, query_points):
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk)).predict(
        query_points
    )

    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            singles = []
            for row in query_points:
                status, body = await request(
                    host, port, "POST", "/predict", {"point": list(row)}
                )
                assert status == 200
                singles.append(body["label"])
            status, body = await request(
                host, port, "POST", "/predict", {"points": query_points.tolist()}
            )
            assert status == 200
            return singles, body["labels"]

    singles, batch = asyncio.run(drive())
    np.testing.assert_array_equal(np.array(singles), reference)
    np.testing.assert_array_equal(np.array(batch), reference)


def test_predict_soft_single_and_batch(artifact_on_disk, query_points):
    index = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    labels, clusters, gains = index.top_assignments(query_points, 2)

    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            status, batch = await request(
                host,
                port,
                "POST",
                "/predict_soft",
                {"points": query_points.tolist(), "top_m": 2},
            )
            assert status == 200
            status, single = await request(
                host,
                port,
                "POST",
                "/predict_soft",
                {"point": list(query_points[0]), "top_m": 2},
            )
            assert status == 200
            return batch, single

    batch, single = asyncio.run(drive())
    np.testing.assert_array_equal(np.array(batch["labels"]), labels)
    np.testing.assert_array_equal(np.array(batch["clusters"]), clusters)
    np.testing.assert_allclose(np.array(batch["gains"]), gains)
    assert single["label"] == int(labels[0])
    assert "labels" not in single
    assert len(single["clusters"]) == 2


def test_concurrent_singles_coalesce(artifact_on_disk, query_points):
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk)).predict(
        query_points
    )

    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            results = await asyncio.gather(
                *(
                    request(host, port, "POST", "/predict", {"point": list(row)})
                    for row in query_points
                )
            )
            return results, server.batcher.stats.snapshot()

    results, stats = asyncio.run(drive())
    labels = np.array([body["label"] for _, body in results])
    np.testing.assert_array_equal(labels, reference)
    # 20 concurrent singles must NOT mean 20 kernel calls.
    assert stats["n_flushes"] < query_points.shape[0]
    assert stats["max_batch_size"] >= 2


def test_error_routes(artifact_on_disk):
    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            missing = await request(host, port, "GET", "/nope")
            wrong_method = await request(host, port, "GET", "/predict")
            bad_body = await request(host, port, "POST", "/predict", {"nope": 1})
            both_keys = await request(
                host, port, "POST", "/predict", {"point": [0.0], "points": [[0.0]]}
            )
            wrong_dims = await request(
                host, port, "POST", "/predict", {"point": [1.0, 2.0]}
            )
            return missing, wrong_method, bad_body, both_keys, wrong_dims

    missing, wrong_method, bad_body, both_keys, wrong_dims = asyncio.run(drive())
    assert missing[0] == 404
    assert wrong_method[0] == 405
    assert bad_body[0] == 400
    assert both_keys[0] == 400
    assert wrong_dims[0] == 400
    assert "40" in wrong_dims[1]["error"]


def test_metrics_counts_requests_and_errors(artifact_on_disk, query_points):
    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            await request(
                host, port, "POST", "/predict", {"point": list(query_points[0])}
            )
            await request(host, port, "GET", "/nope")
            return await request(host, port, "GET", "/metrics")

    status, body = asyncio.run(drive())
    assert status == 200
    assert body["requests"]["POST /predict"] == 1
    assert body["errors"]["404"] == 1
    assert body["batcher"]["n_submitted"] == 1
    assert body["generation"] == 0
    assert body["batcher_depth"] == 0


def test_partial_update_bumps_generation_and_persists(
    artifact_on_disk, query_points, tmp_path
):
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    expected_applied = reference.partial_update(query_points)
    expected_post = reference.predict(query_points)
    state_dir = tmp_path / "state"

    async def drive():
        async with running_server(
            artifact_on_disk, state_dir=str(state_dir)
        ) as (server, host, port):
            status, update = await request(
                host,
                port,
                "POST",
                "/partial_update",
                {"points": query_points.tolist()},
            )
            assert status == 200
            status, predict = await request(
                host, port, "POST", "/predict", {"points": query_points.tolist()}
            )
            assert status == 200
            return update, predict

    update, predict = asyncio.run(drive())
    assert update["generation"] == 1
    np.testing.assert_array_equal(np.array(update["applied_labels"]), expected_applied)
    # Predictions after the fold come from the folded state.
    np.testing.assert_array_equal(np.array(predict["labels"]), expected_post)
    assert predict["generation"] == 1
    # The generation is durable: committed to the store, CURRENT flipped.
    assert (state_dir / "CURRENT").read_text() == "gen-00000001\n"
    folded = ProjectedClusterIndex(load_artifact(state_dir / "gen-00000001" / "model"))
    np.testing.assert_array_equal(folded.predict(query_points), expected_post)


def test_partial_update_label_length_mismatch_is_400(artifact_on_disk, query_points):
    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            return await request(
                host,
                port,
                "POST",
                "/partial_update",
                {"points": query_points.tolist(), "labels": [0]},
            )

    status, body = asyncio.run(drive())
    assert status == 400
    assert "labels" in body["error"]


def test_keep_alive_serves_many_requests_per_connection(
    artifact_on_disk, query_points
):
    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                statuses = []
                for row in query_points[:5]:
                    status, body = await request_on(
                        reader, writer, "POST", "/predict", {"point": list(row)}
                    )
                    statuses.append(status)
                return statuses
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()

    assert asyncio.run(drive()) == [200] * 5


def test_worker_pool_end_to_end(artifact_on_disk, query_points, tmp_path):
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    expected_labels = reference.predict(query_points)
    expected_applied = reference.partial_update(query_points)
    expected_post = reference.predict(query_points)

    async def drive():
        async with running_server(
            artifact_on_disk, workers=2, state_dir=str(tmp_path / "state")
        ) as (server, host, port):
            status, health = await request(host, port, "GET", "/healthz")
            assert status == 200
            assert health["alive_workers"] == 2
            results = await asyncio.gather(
                *(
                    request(host, port, "POST", "/predict", {"point": list(row)})
                    for row in query_points
                )
            )
            labels = [body["label"] for _, body in results]
            status, update = await request(
                host,
                port,
                "POST",
                "/partial_update",
                {"points": query_points.tolist()},
            )
            assert status == 200
            # After the owner folds and replicas reload, every worker
            # serves the folded state — hammer both via the batch path.
            post = [
                (
                    await request(
                        host,
                        port,
                        "POST",
                        "/predict",
                        {"points": query_points.tolist()},
                    )
                )[1]["labels"]
                for _ in range(4)
            ]
            return labels, update, post

    labels, update, post = asyncio.run(drive())
    np.testing.assert_array_equal(np.array(labels), expected_labels)
    np.testing.assert_array_equal(np.array(update["applied_labels"]), expected_applied)
    assert update["generation"] == 1
    for batch in post:
        np.testing.assert_array_equal(np.array(batch), expected_post)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_non_finite_point_is_a_400_and_spares_its_batch(
    artifact_on_disk, query_points, workers
):
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk)).predict(
        query_points
    )
    good = [json.dumps({"point": list(row)}).encode() for row in query_points[:3]]

    async def drive():
        async with running_server(artifact_on_disk, workers=workers) as (server, host, port):
            for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
                bad = body_with_literal("point", query_points[3], literal)
                # The bad point arrives among concurrent good ones, so it
                # would share their micro-batch if it got that far.
                results = await asyncio.gather(
                    *(raw_request(host, port, "POST", "/predict", body) for body in good),
                    raw_request(host, port, "POST", "/predict", bad),
                )
                for status, _, body in results[:3]:
                    assert status == 200, (literal, body)
                assert [body["label"] for _, _, body in results[:3]] == list(reference[:3])
                status, headers, body = results[3]
                assert status == 400, (literal, body)
                assert headers.get("x-request-id")
                assert "finite" in body["error"]
                for path in ("/predict", "/predict_soft", "/partial_update"):
                    batch = body_with_literal("points", query_points[3], literal)
                    status, headers, body = await raw_request(host, port, "POST", path, batch)
                    assert status == 400, (literal, path, body)
                    assert headers.get("x-request-id")
            await assert_no_server_errors(host, port)

    asyncio.run(drive())


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_partial_update_labels_and_top_m_are_validated(
    artifact_on_disk, query_points, workers, tmp_path
):
    points = query_points[:4].tolist()
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    valid = [int(label) for label in reference.predict(query_points[:4])]
    valid[0] = -1  # the outlier sentinel is a valid label

    async def drive():
        async with running_server(
            artifact_on_disk, workers=workers, state_dir=str(tmp_path / "state")
        ) as (server, host, port):
            k = server.backend.describe()["n_clusters"]
            for bad in ("a", 1.5, True, None, [0], k, 99, -2, -5):
                labels = [bad] + valid[1:]
                status, headers, body = await raw_request(
                    host,
                    port,
                    "POST",
                    "/partial_update",
                    json.dumps({"points": points, "labels": labels}).encode(),
                )
                assert status == 400, (bad, body)
                assert headers.get("x-request-id")
                assert "labels" in body["error"]
            for top_m in (True, False, 1.5, "2"):
                status, body = await request(
                    host,
                    port,
                    "POST",
                    "/predict_soft",
                    {"point": points[0], "top_m": top_m},
                )
                assert status == 400, (top_m, body)
                assert "top_m" in body["error"]
            await assert_no_server_errors(host, port)
            return await request(
                host, port, "POST", "/partial_update", {"points": points, "labels": valid}
            )

    status, body = asyncio.run(drive())
    assert status == 200
    assert body["applied_labels"] == valid
    assert body["generation"] == 1


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_worker_failure_body_carries_no_traceback(
    artifact_on_disk, query_points, monkeypatch
):
    def boom(self, points, top_m):
        raise RuntimeError("boom")

    # Patched before the pool forks, so every worker inherits it.
    monkeypatch.setattr(ProjectedClusterIndex, "top_assignments", boom)

    async def drive():
        async with running_server(artifact_on_disk, workers=2) as (server, host, port):
            return await request(
                host, port, "POST", "/predict_soft", {"point": list(query_points[0])}
            )

    with obs.recording() as recorder:
        status, body = asyncio.run(drive())
    assert status == 503
    assert re.fullmatch(r"worker \d failed 'predict_soft': RuntimeError: boom", body["error"])
    events = [event for event in recorder.events if event["kind"] == "backend_error"]
    assert len(events) == 1
    assert events[0]["details"]["error"] == body["error"]
    worker_traceback = events[0]["details"]["worker_traceback"]
    assert worker_traceback.startswith("Traceback") and "boom" in worker_traceback


def _tree_bytes(directory):
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fifty_updates_keep_two_generations_and_a_spare(
    artifact_on_disk, query_points, workers, tmp_path
):
    state_dir = tmp_path / "state"
    batches = np.random.default_rng(8).normal(size=(50, 4, query_points.shape[1]))
    directories = []

    async def drive():
        async with running_server(
            artifact_on_disk, workers=workers, state_dir=str(state_dir)
        ) as (server, host, port):
            for number, batch in enumerate(batches, 1):
                status, update = await request(
                    host, port, "POST", "/partial_update", {"points": batch.tolist()}
                )
                assert status == 200, update
                assert update["generation"] == number
                directories.append(sorted(p.name for p in state_dir.iterdir() if p.is_dir()))
            status, body = await request(
                host, port, "POST", "/predict", {"points": query_points.tolist()}
            )
            assert status == 200
            return body["labels"]

    labels = asyncio.run(drive())
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    for batch in batches:
        reference.partial_update(batch)
    np.testing.assert_array_equal(np.array(labels), reference.predict(query_points))
    assert max(len(names) for names in directories) == 3
    assert directories[-1] == ["gen-00000049", "gen-00000050", "spare"]
    assert sorted(p.name for p in state_dir.iterdir() if p.is_file()) == [
        "CURRENT", "CURRENT.spare"
    ]
    assert (state_dir / "CURRENT").read_bytes() == b"gen-00000050\n"
    newest = ProjectedClusterIndex(load_artifact(state_dir / "gen-00000050" / "model"))
    np.testing.assert_array_equal(newest.predict(query_points), reference.predict(query_points))
    load_artifact(state_dir / "gen-00000049" / "model")  # the rollback target stays intact
    # Recycled files are padded to the length they overwrite, never
    # beyond one zero-filled member per bundle (234 bytes of headers).
    largest = max(_tree_bytes(state_dir / name) for name in directories[-1])
    assert _tree_bytes(state_dir) <= 3 * (largest + 2 * 256) + 64


def test_an_artifact_inside_the_state_dir_is_refused_at_start(fitted_sspc, tmp_path):
    state_dir = tmp_path / "state"
    inside = state_dir / "gen-00000001" / "model"
    fitted_sspc.to_artifact().save(inside)
    (tmp_path / "alias").symlink_to(inside)
    for artifact in (inside, tmp_path / "alias"):
        server = PredictServer(artifact, ServerConfig(state_dir=str(state_dir)))
        with pytest.raises(ArtifactInStateDirError) as excinfo:
            asyncio.run(server.start())
        assert str(artifact) in str(excinfo.value) and str(state_dir) in str(excinfo.value)
    # A sibling whose name merely extends the state directory's is outside it.
    sibling = tmp_path / "state-v2" / "model"
    fitted_sspc.to_artifact().save(sibling)

    async def drive():
        async with running_server(sibling, state_dir=str(state_dir)) as (server, host, port):
            return await request(host, port, "GET", "/healthz")

    status, _ = asyncio.run(drive())
    assert status == 200


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
def test_every_worker_serves_the_folded_state_bit_for_bit(
    artifact_on_disk, query_points, tmp_path
):
    batches = np.random.default_rng(9).normal(size=(10, 6, query_points.shape[1]))

    async def drive():
        async with running_server(
            artifact_on_disk, workers=2, state_dir=str(tmp_path / "state")
        ) as (server, host, port):
            for batch in batches:
                status, update = await request(
                    host, port, "POST", "/partial_update", {"points": batch.tolist()}
                )
                assert status == 200, update
            k = server.backend.describe()["n_clusters"]
            assert server.backend.alive_workers == 2
            # Each worker answers directly: the owner folded, the replica
            # reloaded the 10th generation from a recycled directory.
            return [
                await server.backend._call(handle, ("predict_soft", query_points, k))
                for handle in server.backend._handles
            ]

    answers = asyncio.run(drive())
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    for batch in batches:
        reference.partial_update(batch)
    expected = reference.top_assignments(query_points, reference.n_clusters)
    for answer in answers:
        for got, want in zip(answer, expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_predict_soft_top_m_is_bounded_by_the_cluster_count(artifact_on_disk, query_points):
    point = list(query_points[0])

    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            k = server.backend.describe()["n_clusters"]
            for top_m in (k + 1, 10**6):
                status, body = await request(
                    host, port, "POST", "/predict_soft", {"point": point, "top_m": top_m}
                )
                assert status == 400, (top_m, body)
                assert "top_m" in body["error"] and "at most %d" % k in body["error"]
            status, body = await request(
                host, port, "POST", "/predict_soft", {"point": point, "top_m": k}
            )
            assert status == 200 and len(body["clusters"]) == k
            await assert_no_server_errors(host, port)

    asyncio.run(drive())


def test_predict_soft_defaults_top_m_to_at_most_the_cluster_count(
    small_dataset, query_points, tmp_path
):
    from repro.core.sspc import SSPC

    path = tmp_path / "two-clusters"
    SSPC(n_clusters=2, m=0.5, random_state=0).fit(small_dataset.data).to_artifact().save(path)
    labels, clusters, _ = ProjectedClusterIndex(load_artifact(path)).top_assignments(
        query_points, 2
    )
    points = query_points.tolist()

    async def drive():
        async with running_server(path) as (server, host, port):
            default = await request(host, port, "POST", "/predict_soft", {"points": points})
            explicit = await request(
                host, port, "POST", "/predict_soft", {"points": points, "top_m": 3}
            )
            return default, explicit

    (status, body), (explicit_status, explicit_body) = asyncio.run(drive())
    assert status == 200, body
    assert body["labels"] == labels.tolist() and body["clusters"] == clusters.tolist()
    assert explicit_status == 400 and "at most 2" in explicit_body["error"]


def test_request_headers_past_16_kib_are_a_413(artifact_on_disk, query_points):
    """``MAX_HEADER_BYTES`` bounds the request head, not the body of a 64-row predict."""
    rows = np.resize(query_points, (64, query_points.shape[1]))

    async def drive():
        async with running_server(artifact_on_disk) as (_, host, port):
            padded = []
            for size in (8000, 20000):
                pad = "X-Pad: %s\r\n" % ("x" * size)
                padded.append(await raw_request(host, port, "GET", "/healthz", extra_headers=pad))
            batch = await request(host, port, "POST", "/predict", {"points": rows.tolist()})
            return padded, batch

    (small, large), (status, body) = asyncio.run(drive())
    assert small[0] == 200
    assert large[0] == 413
    assert large[2]["error"] == "request headers exceed 16384 bytes"
    assert large[1]["x-request-id"]
    assert status == 200 and len(body["labels"]) == 64


def test_idle_keep_alive_connections_are_swept(artifact_on_disk, query_points, monkeypatch):
    monkeypatch.setattr(app_module, "IDLE_TIMEOUT_S", 0.5)
    point = {"point": list(query_points[0])}

    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            idle = await asyncio.open_connection(host, port)
            active = await asyncio.open_connection(host, port)
            try:
                # The sweep runs once a second; stay active past the first.
                statuses = []
                for _ in range(15):
                    statuses.append((await request_on(*active, "POST", "/predict", point))[0])
                    await asyncio.sleep(0.1)
                idle_read = await asyncio.wait_for(idle[0].read(), timeout=5.0)
                statuses.append((await request_on(*active, "POST", "/predict", point))[0])
                return statuses, idle_read
            finally:
                for _, writer in (idle, active):
                    writer.close()
                    with contextlib.suppress(ConnectionError):
                        await writer.wait_closed()

    statuses, idle_read = asyncio.run(drive())
    assert idle_read == b"", "the idle connection was not closed"
    assert statuses == [200] * 16


def test_string_and_boolean_coordinates_are_400_on_every_route(artifact_on_disk, query_points):
    row = [float(value) for value in query_points[0]]
    other = [float(value) for value in query_points[1]]
    bad_bodies = [
        {"point": ["1.5"] + row[1:]},
        {"point": [True] + row[1:]},
        {"point": [row[0], True] + row[2:]},
        {"point": [0.5, True] + row[2:]},
        {"point": [True] * len(row)},
        {"point": [1, False] + [int(v) for v in row[2:]]},
        {"points": [row, ["2e0"] + other[1:]]},
        {"points": [row, other[:5] + [False] + other[6:]]},
        {"points": [row, [True] * len(row)]},
        {"points": [[True] * len(row), [False] * len(row)]},
    ]
    # Numbers equal to 0 or 1 are coordinates, not booleans.
    zeros_and_ones = [0, 1, 0.0, 1.0] + row[4:]

    async def drive():
        async with running_server(artifact_on_disk) as (server, host, port):
            for path in ("/predict", "/predict_soft", "/partial_update"):
                for body in bad_bodies:
                    status, headers, parsed = await raw_request(
                        host, port, "POST", path, json.dumps(body).encode()
                    )
                    assert status == 400, (path, body, parsed)
                    assert headers.get("x-request-id")
                    assert "JSON numbers" in parsed["error"], parsed
            for payload in ({"point": zeros_and_ones}, {"points": [zeros_and_ones, row]}):
                status, body = await request(host, port, "POST", "/predict", payload)
                assert status == 200, body
            await assert_no_server_errors(host, port)

    asyncio.run(drive())


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a_failed_commit_is_a_503_that_names_no_path(
    artifact_on_disk, query_points, workers, tmp_path
):
    state_dir = tmp_path / "state"
    # The first write of the first commit fails; pool workers inherit the
    # plan when they fork.
    plan = FaultPlan(specs=[FaultSpec(op="write", index=0, kind="enospc")])

    async def drive():
        with active(plan):
            async with running_server(
                artifact_on_disk, workers=workers, state_dir=str(state_dir)
            ) as (server, host, port):
                update = await request(
                    host, port, "POST", "/partial_update", {"points": query_points.tolist()}
                )
                status, health = await request(host, port, "GET", "/healthz")
                assert status == 200 and health["generation"] == 0
                return update

    with obs.recording() as recorder:
        status, body = asyncio.run(drive())
    assert status == 503, body
    backend = "worker 0" if workers else "in-process backend"
    assert body["error"] == (
        "%s failed 'partial_update': OSError: [Errno 28 ENOSPC] No space left on device"
        % backend
    )
    # The full text and the traceback, which name the state directory,
    # go only to the daemon's own event.
    events = [event for event in recorder.events if event["kind"] == "backend_error"]
    assert len(events) == 1
    assert str(state_dir) in events[0]["details"]["error"]
    assert str(state_dir) in events[0]["details"]["worker_traceback"]


@contextlib.contextmanager
def recording_threads(index, names):
    """Record the thread of every call to the index methods ``names``."""
    threads = {name: set() for name in names}
    for name in names:
        method = getattr(index, name)

        def recorded(*args, _name=name, _method=method, **kwargs):
            threads[_name].add(threading.get_ident())
            return _method(*args, **kwargs)

        setattr(index, name, recorded)
    try:
        yield threads
    finally:
        for name in names:
            delattr(index, name)


def test_in_process_reads_run_on_the_loop_and_writes_on_the_compute_thread(
    artifact_on_disk, query_points, tmp_path, monkeypatch
):
    commit_threads = set()
    original_commit = GenerationStore.commit

    def commit(self):
        commit_threads.add(threading.get_ident())
        return original_commit(self)

    monkeypatch.setattr(GenerationStore, "commit", commit)
    rows = query_points.tolist()

    reads = (
        ("/predict", {"point": rows[0]}),
        ("/predict", {"points": rows}),
        ("/predict_soft", {"points": rows}),
    )

    async def drive():
        async with running_server(
            artifact_on_disk, state_dir=str(tmp_path / "state")
        ) as (server, host, port):
            phases = []
            # Reads before and after a write; the fold itself predicts
            # the rows it absorbs, so each phase is recorded on its own.
            for requests in (reads, (("/partial_update", {"points": rows}),), reads):
                names = ("predict", "top_assignments", "partial_update")
                with recording_threads(server.backend.index, names) as threads:
                    for path, payload in requests:
                        status, body = await request(host, port, "POST", path, payload)
                        assert status == 200, (path, body)
                phases.append(threads)
            return threading.get_ident(), phases

    loop_thread, (before, write, after) = asyncio.run(drive())
    for threads in (before, after):
        assert threads["predict"] == threads["top_assignments"] == {loop_thread}
    assert len(write["partial_update"]) == 1
    assert commit_threads == write["partial_update"]
    assert loop_thread not in commit_threads


@pytest.mark.parametrize("commit_fails", [False, True], ids=["commit_lands", "commit_fails"])
def test_reads_wait_for_the_write_in_flight(
    artifact_on_disk, small_dataset, query_points, tmp_path, monkeypatch, commit_fails
):
    holding, release = threading.Event(), threading.Event()
    original_commit = GenerationStore.commit

    def held_commit(self):
        holding.set()
        assert release.wait(timeout=30)
        if commit_fails:
            raise OSError(errno.ENOSPC, "held commit failed")
        return original_commit(self)

    monkeypatch.setattr(GenerationStore, "commit", held_commit)
    # Training rows: the fold absorbs them, so the served gains move.
    fold = small_dataset.data[:40]
    rows = query_points.tolist()

    async def drive():
        async with running_server(
            artifact_on_disk, state_dir=str(tmp_path / "state")
        ) as (server, host, port):
            # Count the reads that reach their handler.
            reached = {}
            for route in (("POST", "/predict"), ("POST", "/predict_soft")):
                handler = server._routes[route]

                async def counted(request, trace, handler=handler, route=route):
                    reached[route] = reached.get(route, 0) + 1
                    return await handler(request, trace)

                server._routes[route] = counted
            update = asyncio.ensure_future(
                request(host, port, "POST", "/partial_update", {"points": fold.tolist()})
            )
            for _ in range(2000):
                if holding.is_set():
                    break
                await asyncio.sleep(0.005)
            assert holding.is_set(), "the update never reached its commit"
            # The fold has run; its commit is held on the compute thread.
            reads = [
                asyncio.ensure_future(request(host, port, "POST", "/predict", {"point": row}))
                for row in rows[:3]
            ]
            reads.append(
                asyncio.ensure_future(request(host, port, "POST", "/predict", {"points": rows}))
            )
            reads.append(
                asyncio.ensure_future(
                    request(host, port, "POST", "/predict_soft", {"points": rows, "top_m": 3})
                )
            )
            try:
                # Every read reaches its handler while the commit is held...
                arrived = {("POST", "/predict"): 4, ("POST", "/predict_soft"): 1}
                for _ in range(2000):
                    if reached == arrived:
                        break
                    await asyncio.sleep(0.005)
                await asyncio.sleep(0.2)
                # ...and none answers before it lands.
                assert reached == arrived
                assert not update.done() and not any(read.done() for read in reads)
                # The loop itself is free: health answers while the write is held.
                status, health = await request(host, port, "GET", "/healthz")
                assert status == 200 and health["generation"] == 0
            finally:
                release.set()
            return await update, await asyncio.gather(*reads)

    (update_status, _), answers = asyncio.run(drive())
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    before = reference.top_assignments(query_points, 3)
    if commit_fails:
        assert update_status >= 500
        generation = 0
    else:
        assert update_status == 200
        reference.partial_update(fold)
        generation = 1
    labels, clusters, gains = reference.top_assignments(query_points, 3)
    assert commit_fails or gains.tobytes() != before[2].tobytes()
    for status, body in answers:
        assert status == 200, body
        assert body["generation"] == generation
    assert [body["label"] for _, body in answers[:3]] == labels[:3].tolist()
    assert answers[3][1]["labels"] == labels.tolist()
    soft = answers[4][1]
    assert soft["labels"] == labels.tolist() and soft["clusters"] == clusters.tolist()
    assert np.array(soft["gains"]).tobytes() == gains.tobytes()


def test_a_read_starting_as_the_write_settles_answers_under_its_generation(
    artifact_on_disk, small_dataset, query_points, tmp_path, monkeypatch
):
    # A read that starts in the loop step in which the fold's future
    # completes runs ahead of the writer's continuation, which bumps the
    # generation.  It must wait for that bump, not see the folded state
    # under the old tag.
    fold = small_dataset.data[:40]
    rows = query_points.tolist()

    async def drive():
        async with running_server(
            artifact_on_disk, state_dir=str(tmp_path / "state")
        ) as (server, host, port):
            loop = asyncio.get_running_loop()
            run_in_executor = loop.run_in_executor
            reads = []

            def start_reads(_):
                for path, handler, payload in (
                    ("/predict", server._handle_predict, {"points": rows}),
                    ("/predict_soft", server._handle_predict_soft, {"points": rows, "top_m": 3}),
                ):
                    request = HTTPRequest("POST", path, "", body=json.dumps(payload).encode())
                    trace = server.telemetry.begin_request("POST", path, "settle-read")
                    reads.append(asyncio.ensure_future(handler(request, trace)))

            def run_with_reads(executor, fn, *args):
                write = run_in_executor(executor, fn, *args)
                if executor is server.backend._compute:
                    # Registered before the backend awaits it, so the reads
                    # start in the step the write completes in.
                    write.add_done_callback(start_reads)
                return write

            monkeypatch.setattr(loop, "run_in_executor", run_with_reads)
            status, body = await request(
                host, port, "POST", "/partial_update", {"points": fold.tolist()}
            )
            monkeypatch.undo()
            assert status == 200 and body["generation"] == 1, body
            assert len(reads) == 2
            return await asyncio.gather(*reads)

    (labels_body, labels_status), (soft_body, soft_status) = asyncio.run(drive())
    reference = ProjectedClusterIndex(load_artifact(artifact_on_disk))
    before = reference.top_assignments(query_points, 3)
    reference.partial_update(fold)
    labels, clusters, gains = reference.top_assignments(query_points, 3)
    assert gains.tobytes() != before[2].tobytes()
    assert labels_status == soft_status == 200
    assert labels_body["generation"] == soft_body["generation"] == 1
    assert labels_body["labels"] == labels.tolist()
    assert soft_body["labels"] == labels.tolist() and soft_body["clusters"] == clusters.tolist()
    assert np.array(soft_body["gains"]).tobytes() == gains.tobytes()
