#!/usr/bin/env python
"""CI smoke test: boot the real ``repro-server`` daemon and exercise it.

End to end over an actual subprocess and actual sockets:

1. fit a small model and save it as an artifact directory;
2. boot ``python -m repro.server.cli`` on an ephemeral port and wait
   for the ``READY host=... port=...`` banner;
3. hit ``/healthz``; send a non-finite point and an out-of-range fold
   label and require a 400 carrying an ``X-Request-Id`` for each, no 5xx
   in ``/metrics`` and a healthy ``/healthz`` after them;
4. ``/predict`` every query point and assert the daemon's labels are
   bit-identical to an in-process
   :class:`~repro.serving.index.ProjectedClusterIndex` over the same
   artifact;
5. check the request-id contract: an inbound ``X-Request-Id`` is
   echoed back, a request without one gets a generated id, and even a
   404 response carries one;
6. scan 200 unknown paths under several methods and require that the
   number of ``repro_http_requests_total`` samples does not grow (each
   counts as ``other``);
7. scrape ``/metrics?format=prometheus`` and validate the exposition:
   every line parses, every histogram series has ascending ``le``
   bounds with monotone non-decreasing cumulative counts ending at a
   ``+Inf`` bucket equal to ``_count``, and the predict-route counts
   agree with the JSON ``/metrics`` telemetry snapshot;
8. send 600 single predicts, more flushes than the 512 an older daemon
   kept, then fetch ``/debug/tail_trace`` and require every captured
   one to have a ``server.flush`` child that has a ``worker.predict``
   child, all three stamped with that request's id; optionally save it
   (``--tail-trace-out``, the nightly workflow uploads it as an
   artifact);
9. on Linux, require that the daemon (an ``m``-scheme artifact, so no
   chi-square code) maps no file of scipy's package directory;
10. SIGTERM the daemon and require a clean ``STOPPED`` exit within the
    timeout;
11. boot a second daemon on a ``p=0.05`` artifact of the same data,
    with ``--state-dir`` in the work directory: its ``/predict`` labels,
    before and after each of 5 accepted ``/partial_update`` requests (the
    4th and 5th stage in a recycled spare), must be bit-identical to an
    in-process index that folds the same rows, and the state directory
    must end with at most 3 generation directories.

Run from the repository root (CI does)::

    PYTHONPATH=src python tools/daemon_smoke.py [--workers N]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.sspc import SSPC  # noqa: E402
from repro.data.generator import make_projected_clusters  # noqa: E402
from repro.serving.artifact import load_artifact  # noqa: E402
from repro.serving.index import ProjectedClusterIndex  # noqa: E402

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: Single predicts sent before the tail trace is fetched: more flushes
#: than the 512 an older daemon retained for its tail trace.
TAIL_PREDICTS = 600
#: Request ids of those predicts; the tail check looks for these.
TAIL_ID_PREFIX = "smoke-single-"


def build_artifact(directory: Path, name: str = "model", **threshold) -> Path:
    """Fit the smoke model (``m=0.5`` unless ``threshold`` says) and save it."""
    dataset = make_projected_clusters(
        n_objects=240,
        n_dimensions=40,
        n_clusters=3,
        avg_cluster_dimensionality=6,
        random_state=1234,
    )
    model = SSPC(n_clusters=3, random_state=0, **(threshold or {"m": 0.5})).fit(dataset.data)
    path = directory / name
    model.to_artifact().save(path)
    return path


def wait_ready(process: subprocess.Popen) -> tuple:
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                "daemon exited before READY:\n%s" % process.stderr.read()
            )
        sys.stdout.write(line)
        if line.startswith("READY"):
            fields = dict(part.split("=") for part in line.split()[1:])
            return fields["host"], int(fields["port"])
    raise SystemExit("daemon did not print READY within %.0fs" % BOOT_TIMEOUT_S)


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=15) as response:
        return json.loads(response.read())


def get_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=15) as response:
        return response.read().decode("utf-8")


def post_json(url: str, payload: dict, headers: dict = None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        return json.loads(response.read()), dict(response.headers)


def expect_client_error(url: str, payload: dict) -> str:
    """POST ``payload``; require a 400 with an ``X-Request-Id``; return the error."""
    try:
        post_json(url, payload)
    except urllib.error.HTTPError as error:
        assert error.code == 400, error.code
        assert error.headers.get("X-Request-Id"), "400 carried no X-Request-Id"
        return json.loads(error.read())["error"]
    raise AssertionError("%s accepted %r" % (url, payload))


def check_input_boundary(base: str, queries: np.ndarray) -> None:
    """Bad client input is a 400 before it reaches the batcher or a worker."""
    nan_point = [float("nan")] + [0.0] * (queries.shape[1] - 1)
    finite_error = expect_client_error(base + "/predict", {"point": nan_point})
    label_error = expect_client_error(
        base + "/partial_update",
        {"points": queries[:2].tolist(), "labels": [99, 0]},
    )
    errors = get_json(base + "/metrics")["errors"]
    assert not [status for status in errors if status.startswith("5")], errors
    health = get_json(base + "/healthz")
    assert health["status"] == "ok" and health["generation"] == 0, health
    print("input boundary ok: %r, %r; errors %s" % (finite_error, label_error, errors))


def check_request_ids(base: str) -> None:
    """The id contract: inbound honored, absent minted, errors tagged."""
    point = {"point": [0.0] * 40}
    _, headers = post_json(base + "/predict", point, {"X-Request-Id": "smoke-42"})
    assert headers.get("X-Request-Id") == "smoke-42", headers
    _, headers = post_json(base + "/predict", point)
    generated = headers.get("X-Request-Id")
    assert generated, "no X-Request-Id on a plain predict: %s" % headers
    try:
        urllib.request.urlopen(base + "/no/such/route", timeout=15)
    except urllib.error.HTTPError as error:
        assert error.code == 404, error.code
        assert error.headers.get("X-Request-Id"), "404 carried no X-Request-Id"
    else:
        raise AssertionError("unknown route did not 404")
    print("request ids ok: inbound echoed, generated=%s, 404 tagged" % generated)


def http_request_samples(base: str) -> int:
    """The number of ``repro_http_requests_total`` samples in a scrape."""
    samples = parse_prometheus(get_text(base + "/metrics?format=prometheus"))
    return sum(1 for name, _ in samples if name == "repro_http_requests_total")


def scan(base: str, number: int) -> None:
    """Request the unknown path ``/scan/<number>`` under one of four methods."""
    method = ("GET", "POST", "PROPFIND", "SCAN%d" % number)[number % 4]
    try:
        urllib.request.urlopen(
            urllib.request.Request(base + "/scan/%d" % number, method=method), timeout=15
        )
    except urllib.error.HTTPError as error:
        assert error.code == 404, (method, number, error.code)
    else:
        raise AssertionError("unknown path /scan/%d did not 404" % number)


def check_bounded_counters(base: str) -> None:
    """A client scanning paths counts as ``other``: the scrape does not grow."""
    for number in range(4):
        scan(base, number)  # each kind of method once
    before = http_request_samples(base)
    for number in range(4, 204):
        scan(base, number)
    after = http_request_samples(base)
    assert after == before, "repro_http_requests_total grew from %d to %d samples" % (
        before,
        after,
    )
    print("bounded counters ok: 200 unknown paths, %d request samples before and after" % after)


def send_single_predicts(base: str, queries: np.ndarray) -> None:
    """Single predicts, one flush each, tagged for the tail-trace check."""
    for number in range(TAIL_PREDICTS):
        post_json(
            base + "/predict",
            {"point": list(queries[number % len(queries)])},
            {"X-Request-Id": "%s%04d" % (TAIL_ID_PREFIX, number)},
        )
    print("sent %d single predicts" % TAIL_PREDICTS)


def parse_prometheus(text: str):
    """``{(name, labels): value}`` for every sample line; raises on junk."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        body, _, value = line.rpartition(" ")
        assert body and value, "unparseable sample line: %r" % line
        if "{" in body:
            name, _, rest = body.partition("{")
            assert rest.endswith("}"), "bad label block: %r" % line
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


def check_prometheus(base: str) -> None:
    """Scrape the text exposition and cross-check it against JSON."""
    telemetry = get_json(base + "/metrics")["telemetry"]
    samples = parse_prometheus(get_text(base + "/metrics?format=prometheus"))

    # Group histogram bucket series and validate cumulative monotony.
    series = {}
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        le = dict(labels)["le"]
        rest = tuple(pair for pair in labels if pair[0] != "le")
        bound = float("inf") if le == "+Inf" else float(le)
        series.setdefault((name, rest), []).append((bound, value))
    assert series, "no histogram bucket series in the scrape"
    for (name, rest), buckets in series.items():
        bounds = [bound for bound, _ in buckets]
        counts = [count for _, count in buckets]
        assert bounds == sorted(bounds), "unsorted le in %s%s" % (name, rest)
        assert bounds[-1] == float("inf"), "no +Inf bucket in %s%s" % (name, rest)
        assert counts == sorted(counts), "non-monotone buckets in %s%s" % (name, rest)
        total = samples[(name[: -len("_bucket")] + "_count", rest)]
        assert counts[-1] == total, "+Inf bucket != _count for %s%s" % (name, rest)

    # The predict series froze when predict traffic stopped: the scrape
    # must agree exactly with the JSON snapshot taken just before it.
    key = tuple(sorted((("route", "predict"), ("status_class", "2xx"))))
    json_side = telemetry["latency_seconds"]["predict"]["2xx"]
    count = samples[("repro_request_latency_seconds_count", key)]
    assert count == json_side["count"], (count, json_side["count"])
    prom_cumulative = [
        count for _, count in sorted(series[("repro_request_latency_seconds_bucket", key)])
    ]
    assert prom_cumulative == [float(c) for c in json_side["buckets"]["cumulative"]], (
        "bucket counts diverge between Prometheus and JSON"
    )
    assert samples[("repro_requests_total", key)] == (
        telemetry["requests_total"]["predict"]["2xx"]
    )
    print(
        "prometheus ok: %d samples, %d histogram series, predict counts match JSON"
        % (len(samples), len(series))
    )


def check_tail_trace(base: str, out: str = None) -> None:
    """Every captured single predict links request → flush → kernel under its id."""
    trace = get_json(base + "/debug/tail_trace")
    spans = [event for event in trace["traceEvents"] if event.get("ph") == "X"]
    by_id = {span["args"]["span_id"]: span for span in spans}

    def parent(span, name):
        found = by_id.get(span["args"].get("parent_id"))
        return found if found is not None and found["name"] == name else None

    linked = set()
    for kernel in (span for span in spans if span["name"] == "worker.predict"):
        flush = parent(kernel, "server.flush")
        request = flush and parent(flush, "server.request")
        ids = {span["args"].get("request_id") for span in (kernel, flush, request or kernel)}
        if request and len(ids) == 1:
            linked |= ids
    captured = {
        span["args"]["request_id"]
        for span in spans
        if span["name"] == "server.request"
        and span["args"]["request_id"].startswith(TAIL_ID_PREFIX)
    }
    assert captured, "no single predict was captured in the tail"
    unlinked = sorted(captured - linked)
    assert not unlinked, "%d of %d captured single predicts lost their flush, e.g. %s" % (
        len(unlinked),
        len(captured),
        unlinked[:3],
    )
    print(
        "tail trace ok: %d spans; all %d captured single predicts link request -> flush -> kernel"
        % (len(spans), len(captured))
    )
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace))
        print("tail trace saved: %s" % path)


def start_daemon(artifact: Path, workers: int, state_dir: Path = None) -> tuple:
    """Boot ``repro-server`` on ``artifact``; return the process and its base URL."""
    state = ["--state-dir", str(state_dir)] if state_dir is not None else []
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.cli",
            str(artifact),
            "--port",
            "0",
            "--workers",
            str(workers),
            *state,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))
            ),
        },
    )
    try:
        host, port = wait_ready(process)
    except BaseException:
        process.kill()
        process.wait(timeout=10)
        raise
    return process, "http://%s:%d" % (host, port)


def stop_daemon(process: subprocess.Popen) -> None:
    """SIGTERM the daemon; require ``STOPPED`` and exit code 0."""
    process.send_signal(signal.SIGTERM)
    stdout, stderr = process.communicate(timeout=STOP_TIMEOUT_S)
    sys.stdout.write(stdout)
    assert "STOPPED" in stdout, "daemon never printed STOPPED:\n%s" % stderr
    assert process.returncode == 0, "daemon exited %d:\n%s" % (process.returncode, stderr)
    print("shutdown ok (exit 0)")


def check_no_scipy_mapped(pid: int) -> None:
    """An ``m``-scheme daemon, and any worker it forked, maps no file of scipy."""
    if not Path("/proc/%d/maps" % pid).exists():
        print("scipy mapping check skipped: no /proc/<pid>/maps")
        return
    scipy_dir = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    prefix = str(scipy_dir.resolve()) + os.sep
    pids = [pid]
    for children in Path("/proc/%d/task" % pid).glob("*/children"):
        pids += [int(child) for child in children.read_text().split()]
    for process_id in pids:
        with open("/proc/%d/maps" % process_id) as maps:
            mapped = {line.split()[-1] for line in maps if prefix in line}
        assert not mapped, "daemon process %d maps %d scipy files, e.g. %s" % (
            process_id, len(mapped), sorted(mapped)[:3]
        )
    print("no scipy mapped in %d daemon process(es)" % len(pids))


def check_p_scheme(workdir: Path, workers: int, queries: np.ndarray) -> None:
    """A ``p``-scheme daemon predicts and folds exactly like an in-process index."""
    artifact = build_artifact(workdir, "model-p", p=0.05)
    index = ProjectedClusterIndex(load_artifact(artifact))
    state_dir = workdir / "state-p"
    process, base = start_daemon(artifact, workers, state_dir)
    try:
        before, _ = post_json(base + "/predict", {"points": queries.tolist()})
        assert before["labels"] == index.predict(queries).tolist(), (
            "p-scheme daemon labels differ from the in-process index"
        )
        for number in range(1, 6):
            rows = queries[(number - 1) * 4 : number * 4 + 4]
            update, _ = post_json(base + "/partial_update", {"points": rows.tolist()})
            assert update["generation"] == number, update
            assert update["applied_labels"] == index.partial_update(rows).tolist(), update
            after, _ = post_json(base + "/predict", {"points": queries.tolist()})
            assert after["labels"] == index.predict(queries).tolist(), (
                "p-scheme daemon labels differ from the in-process index after update %d"
                % number
            )
        generations = sorted(entry.name for entry in state_dir.iterdir() if entry.is_dir())
        assert len(generations) <= 3, generations
        print(
            "p-scheme ok: %d labels bit-identical before and after each of 5 updates; "
            "state dir holds %s" % (len(queries), ", ".join(generations))
        )
        stop_daemon(process)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--n-queries", type=int, default=32)
    parser.add_argument(
        "--tail-trace-out",
        default=None,
        help="save the daemon's /debug/tail_trace JSON here before shutdown",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="daemon-smoke-") as workdir:
        artifact = build_artifact(Path(workdir))
        queries = np.random.default_rng(5).normal(size=(args.n_queries, 40))
        expected = ProjectedClusterIndex(load_artifact(artifact)).predict(queries)

        process, base = start_daemon(artifact, args.workers)
        try:
            health = get_json(base + "/healthz")
            assert health["status"] == "ok", health
            assert health["generation"] == 0, health
            print("healthz ok: %s" % health)

            check_input_boundary(base, queries)

            labels = [
                post_json(base + "/predict", {"point": list(row)})[0]["label"]
                for row in queries
            ]
            mismatches = int(np.sum(np.array(labels) != expected))
            assert mismatches == 0, (
                "%d/%d daemon labels differ from the in-process index"
                % (mismatches, len(labels))
            )
            print("predict ok: %d/%d labels bit-identical" % (len(labels), len(labels)))

            batch, _ = post_json(base + "/predict", {"points": queries.tolist()})
            assert batch["labels"] == [int(label) for label in expected], (
                "batch labels differ from the in-process index"
            )
            print("batch predict ok")

            check_request_ids(base)
            check_bounded_counters(base)
            check_prometheus(base)

            send_single_predicts(base, queries)
            check_tail_trace(base, args.tail_trace_out)

            check_no_scipy_mapped(process.pid)
            stop_daemon(process)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        check_p_scheme(Path(workdir), args.workers, queries)
        return 0


if __name__ == "__main__":
    sys.exit(main())
