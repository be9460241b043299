"""``serve_mixed``: the ``repro-server`` daemon driven over HTTP.

One client process (this one) holds 2 keep-alive connections served by 2
threads.  The load is an open-loop Poisson schedule drawn from the seed:
90% single-point ``/predict``, 9% 64-row ``/predict`` and 1% 32-row
``/partial_update``, stepping through ``LADDER`` req/s.  Every request is
timed from its scheduled send, so a stall also delays what was due
behind it.  A closed-loop phase over the same connections follows.

Each run boots fresh daemons (the ``repro-server`` entry point with
``--workers 0``, started through ``serve_daemon.py``) from an artifact
fitted here off the clock, so one run's generations never carry into the
next.
Every label the daemon returns is checked against an in-process
``ProjectedClusterIndex`` replaying the writes in generation order.
"""

from __future__ import annotations

import http.client
import json
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import common
import spec
from repro.core import SSPC
from repro.data.generator import make_projected_clusters
from repro.evaluation import adjusted_rand_index
from repro.semisupervision import sample_knowledge
from repro.serving.artifact import ModelArtifact
from repro.serving.index import ProjectedClusterIndex

TRAIN_ROWS = 5000
QUERY_ROWS = 2000
LADDER = (250, 500, 750, 1000)
#: The step whose latencies are the headline numbers.  250 rather than
#: 500 req/s: at 500 the daemon and the client queue behind each write's
#: fsync often enough that the single-point p50 of one run moved by more
#: than 2x between runs on 2 shared cores.  Even at 250 req/s the p50
#: tripled while the machine was busy, so the gated serve metrics are the
#: daemon's CPU cost per request; the latencies are reported beside them.
HEADLINE_RATE = 250
P99_LIMIT_MS = 35.0
#: A step whose unsent-but-due requests at its end reach this is backlogged.
BACKLOG_LIMIT = 10
MIX = (("single", 0.90, 1), ("batch", 0.09, 64), ("update", 0.01, 32))
BOOTS = 5
WARMUP_REQUESTS = 200
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
#: Share of ``--seconds`` spent on each open-loop step (8 steps: the
#: headline step on each of the BOOTS daemons plus the rest of the ladder
#: on the last) and on the closed loop.
STEP_SHARE = 0.1
CLOSED_SHARE = 0.05
#: A run whose single-point labels score below this ARI counts as failed.
ARI_FLOOR = 0.3


# -- inputs -------------------------------------------------------------------


class Inputs:
    """Artifact, query rows and their pre-encoded JSON, all made from the seed."""

    def __init__(self, seed, work):
        rng = np.random.default_rng([21, seed])
        dataset = make_projected_clusters(
            n_objects=TRAIN_ROWS + QUERY_ROWS,
            n_dimensions=spec.N_DIMENSIONS,
            n_clusters=spec.N_CLUSTERS,
            avg_cluster_dimensionality=spec.CLUSTER_DIMENSIONALITY,
            random_state=rng,
        )
        order = rng.permutation(TRAIN_ROWS + QUERY_ROWS)
        train, query = order[:TRAIN_ROWS], order[TRAIN_ROWS:]
        knowledge = sample_knowledge(
            dataset.labels[train],
            dataset.relevant_dimensions,
            category="both",
            input_size=5,
            coverage=1.0,
            random_state=rng,
        )
        model = SSPC(spec.N_CLUSTERS, random_state=seed).fit(dataset.data[train], knowledge)
        self.artifact = work / "serve-model"
        model.save(self.artifact)
        self.query = dataset.data[query]
        self.truth = dataset.labels[query]
        self.row_json = [json.dumps(row).encode() for row in self.query.tolist()]
        self.schedule_rng = np.random.default_rng([22, seed])

    def body(self, kind, rows):
        if kind == "single":
            return b'{"point": ' + self.row_json[rows[0]] + b"}"
        return b'{"points": [' + b",".join(self.row_json[r] for r in rows) + b"]}"

    def schedule(self, rate, duration):
        """Poisson arrivals at ``rate`` over ``duration`` s: (offset, kind, rows, request)."""
        rng = self.schedule_rng
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < duration]
        # Exact shares, shuffled: with the kinds drawn independently the
        # number of writes in a step (each saves a generation) moved the
        # daemon's CPU per request by several percent from seed to seed.
        counts = [int(round(share * offsets.size)) for _, share, _ in MIX[1:]]
        counts.insert(0, offsets.size - sum(counts))
        kinds = rng.permutation(np.repeat(np.arange(len(MIX)), counts))
        items = []
        for offset, choice in zip(offsets.tolist(), kinds.tolist()):
            kind, _, n_rows = MIX[choice]
            rows = rng.integers(QUERY_ROWS, size=n_rows).tolist()
            path = "/partial_update" if kind == "update" else "/predict"
            items.append((offset, kind, rows, ("POST", path, self.body(kind, rows))))
        return items


# -- HTTP client ----------------------------------------------------------------

JSON_HEADERS = {"Content-Type": "application/json"}


def _send(conn, request):
    """Send one ``(method, path, body)`` request; return ``(status, body)``.

    A transport error reads as status 0; the connection reconnects on its
    next request.
    """
    method, path, body = request
    try:
        conn.request(method, path, body, JSON_HEADERS if body is not None else {})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        return 0, str(exc).encode()


def _get_json(conn, path):
    status, body = _send(conn, ("GET", path, None))
    return json.loads(body) if status == 200 else None


def run_open_loop(conns, schedule):
    """Send ``schedule`` on time over ``conns``, one thread per connection.

    Returns one ``(lag_s, latency_s, status, body)`` per request, both
    measured from the request's scheduled send time.
    """
    results = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.02

    def worker(conn):
        while True:
            with lock:
                index = cursor[0]
                if index >= len(schedule):
                    return
                cursor[0] = index + 1
            due = start + schedule[index][0]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            status, body = _send(conn, schedule[index][3])
            results[index] = (sent - due, time.monotonic() - due, status, body)

    helper = threading.Thread(target=worker, args=(conns[1],))
    helper.start()
    try:
        worker(conns[0])
    finally:
        helper.join()
    return results


def run_closed_loop(conns, requests, duration):
    """Back-to-back requests over every connection for ``duration`` s."""
    results = [[] for _ in conns]
    stop_at = time.monotonic() + duration

    def worker(slot):
        position = slot
        while time.monotonic() < stop_at:
            rows, request = requests[position % len(requests)]
            status, body = _send(conns[slot], request)
            results[slot].append((rows, status, body))
            position += len(conns)

    helpers = [threading.Thread(target=worker, args=(slot,)) for slot in range(1, len(conns))]
    for helper in helpers:
        helper.start()
    try:
        worker(0)
    finally:
        for helper in helpers:
            helper.join()
    return [item for per_conn in results for item in per_conn]


# -- daemon ---------------------------------------------------------------------


class Daemon:
    """One ``repro-server --workers 0`` process; ``setup_s`` is spawn to READY.

    The daemon runs through ``serve_daemon.py``, which takes a host-speed
    reading in the daemon's process before it imports the library.
    ``setup_raw_s`` is spawn to READY as measured, less that reading's
    own time; ``setup_s`` is the same at reference speed.
    """

    def __init__(self, artifact, work, tag, trace_out=None):
        command = [sys.executable, str(common.BENCH_DIR / "serve_daemon.py"),
                   str(trace_out or "-"), str(artifact),
                   "--port", "0", "--workers", "0", "--state-dir", str(work / ("state-" + tag))]
        self.log = open(work / ("daemon-%s.log" % tag), "wb")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            command, env=common.child_env(), cwd=str(common.ROOT),
            stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            self.host, self.port = self._wait_ready(start + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_raw_s = time.monotonic() - start - self.reference_elapsed_s
        self.setup_s = common.at_reference_speed(self.setup_raw_s, self.reference)
        self.pid = self.proc.pid

    def _wait_ready(self, deadline):
        """Read the REFERENCE line, then return host and port from READY."""
        while True:
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise RuntimeError("daemon printed no READY line in %.0f s" % BOOT_TIMEOUT_S)
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before READY (see its log)")
            if line.startswith(b"REFERENCE"):
                self.reference, self.reference_elapsed_s = map(float, line.split()[1:3])
            elif line.startswith(b"READY"):
                fields = dict(part.split(b"=", 1) for part in line.split()[1:])
                return fields[b"host"].decode(), int(fields[b"port"])

    def stop(self):
        """SIGTERM, then wait; SIGKILL if it does not stop in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


# -- one daemon's session ----------------------------------------------------------


def _step_summary(rate, schedule, results, duration):
    latency = {"single": [], "batch": [], "update": []}
    lags = []
    backlog = 0
    for (offset, kind, _, _), (lag, elapsed, status, _) in zip(schedule, results):
        lags.append(1e3 * lag)
        if status == 200:
            latency[kind].append(1e3 * elapsed)
        if offset <= duration < offset + lag:
            backlog += 1
    singles = latency["single"]
    p99 = common.quantile(singles, 0.99)
    return {
        "rate": rate,
        "requests": len(schedule),
        "latency_ms": latency,
        "p99_ms": p99,
        "lag_p99_ms": common.quantile(lags, 0.99),
        "backlog_end": backlog,
        "ok": bool(singles) and p99 <= P99_LIMIT_MS and backlog < BACKLOG_LIMIT,
    }


def _decode(kind, rows, status, body):
    """One response as ``(kind, rows, status, payload-or-None)``."""
    payload = None
    if status == 200:
        try:
            payload = json.loads(body)
        except ValueError:
            status = -1
    return kind, rows, status, payload


def session(inputs, daemon, rates, step_s, *, closed_s=0.0, scrape=False):
    """Warm up, run open-loop steps at ``rates``, then the closed loop if asked.

    The ladder stops after the first step at or above the headline rate
    that misses the latency limit or ends with a backlog.
    """
    conns = [http.client.HTTPConnection(daemon.host, daemon.port, timeout=30.0) for _ in range(2)]
    responses = []
    steps = []
    closed = []
    try:
        for i in range(WARMUP_REQUESTS):
            row = i % QUERY_ROWS
            request = ("POST", "/predict", inputs.body("single", [row]))
            status, reply = _send(conns[i % 2], request)
            responses.append(_decode("single", [row], status, reply))
        for rate in rates:
            schedule = inputs.schedule(rate, step_s)
            before = _scrape(conns[0]) if scrape else None
            references = common.reference_each_cpu()
            cpu_s = common.cpu_seconds(daemon.pid)
            results = run_open_loop(conns, schedule)
            cpu_s = common.cpu_seconds(daemon.pid) - cpu_s
            references += common.reference_each_cpu()
            step = _step_summary(rate, schedule, results, step_s)
            step["cpu_s"] = cpu_s
            step["references"] = references
            if scrape:
                step["server"] = (before, _scrape(conns[0]))
            steps.append(step)
            for (_, kind, rows, _), (_, _, status, body) in zip(schedule, results):
                responses.append(_decode(kind, rows, status, body))
            if not step["ok"] and rate >= HEADLINE_RATE:
                break
        if closed_s:
            requests = [
                ([row], ("POST", "/predict", inputs.body("single", [row])))
                for row in range(QUERY_ROWS)
            ]
            closed = run_closed_loop(conns, requests, closed_s)
            for rows, status, body in closed:
                responses.append(_decode("single", rows, status, body))
        final = _get_json(conns[0], "/metrics") if scrape else None
        peak_rss = common.peak_rss_mib(daemon.pid)
    finally:
        for conn in conns:
            conn.close()
    return {
        "responses": responses,
        "steps": steps,
        "closed_per_s": len(closed) / closed_s if closed_s else 0.0,
        "peak_rss_mib": peak_rss,
        "final_metrics": final,
    }


def _scrape(conn):
    status, prom = _send(conn, ("GET", "/metrics?format=prometheus", None))
    return {
        "json": _get_json(conn, "/metrics"),
        "prom": prom.decode() if status == 200 else "",
    }


# -- output checks -------------------------------------------------------------------


def verify(inputs, responses, checks):
    """Replay one daemon's writes in generation order; every read must match g or g-1.

    Returns the single-point reads as ``[(row, label), ...]``.
    """
    writes, reads = {}, []
    for kind, rows, status, payload in responses:
        if payload is None:
            checks.attempt("%s request (status %d)" % (kind, status), False)
        elif kind == "update":
            writes[int(payload["generation"])] = (rows, payload["applied_labels"])
        else:
            labels = [payload["label"]] if kind == "single" else payload["labels"]
            reads.append((int(payload["generation"]), rows, np.asarray(labels)))
    last = len(writes)
    if sorted(writes) != list(range(1, last + 1)):
        checks.fail("write generations %s are not 1..%d" % (sorted(writes)[:5], last))
    index = ProjectedClusterIndex(ModelArtifact.load(inputs.artifact))
    by_generation = {}
    for position, (generation, _, _) in enumerate(reads):
        by_generation.setdefault(generation, []).append(position)
    matched = np.zeros(len(reads), dtype=bool)
    for state in range(last + 1):
        # Reads tagged `state` may see this state; reads tagged `state + 1`
        # may still have been computed against it.
        for tag in (state, state + 1):
            positions = by_generation.get(tag, [])
            if not positions:
                continue
            rows = np.concatenate([reads[p][1] for p in positions])
            predicted = index.predict(inputs.query[rows])
            cursor = 0
            for p in positions:
                size = len(reads[p][1])
                matched[p] |= np.array_equal(predicted[cursor:cursor + size], reads[p][2])
                cursor += size
        if state < last and state + 1 in writes:
            rows, applied = writes[state + 1]
            replayed = index.partial_update(inputs.query[rows])
            checks.attempt("write generation %d" % (state + 1), np.array_equal(replayed, applied))
    for p in range(len(reads)):
        checks.attempt("read at generation %d" % reads[p][0], bool(matched[p]))
    return [(rows[0], labels[0]) for _, rows, labels in reads if len(rows) == 1]


def single_point_ari(inputs, singles, checks):
    """ARI of the single-point labels ``[(row, label), ...]`` against the truth."""
    rows = np.asarray([row for row, _ in singles])
    ari = adjusted_rand_index(inputs.truth[rows], np.asarray([label for _, label in singles]))
    if ari < ARI_FLOOR:
        checks.fail("single-point ARI %.3f below %.2f" % (ari, ARI_FLOOR))
    return ari


# -- runs ----------------------------------------------------------------------------


def _headline(steps):
    for step in steps:
        if step["rate"] == HEADLINE_RATE:
            return step
    raise RuntimeError("the ladder never reached %d req/s" % HEADLINE_RATE)


def _max_rate(steps):
    best = 0
    for step in steps:
        if not step["ok"]:
            break
        best = step["rate"]
    return best


def run(workload, seed, seconds, work, checks):
    inputs = Inputs(seed, work)
    step_s = seconds * STEP_SHARE
    sessions, setup_s, setup_raw_s = [], [], []
    for boot in range(BOOTS):
        last = boot == BOOTS - 1
        daemon = Daemon(inputs.artifact, work, "boot%d" % boot)
        try:
            sessions.append(session(
                inputs, daemon, LADDER if last else (HEADLINE_RATE,), step_s,
                closed_s=seconds * CLOSED_SHARE if last else 0.0,
            ))
        finally:
            daemon.stop()
        setup_s.append(daemon.setup_s)
        setup_raw_s.append(daemon.setup_raw_s)
    singles = []
    for result in sessions:
        singles += verify(inputs, result["responses"], checks)
    ari = single_point_ari(inputs, singles, checks)
    heads = [_headline(result["steps"]) for result in sessions]
    pooled = {kind: sum((h["latency_ms"][kind] for h in heads), []) for kind in heads[0]["latency_ms"]}
    ladder = sessions[-1]
    p50s = [common.median(h["latency_ms"]["single"]) for h in heads]
    cpu_ms = [1e3 * h["cpu_s"] / h["requests"] for h in heads]
    # One scale for the run, from the median of all its readings: a single
    # step's readings sample too little of it to scale that step alone.
    references = [reading for h in heads for reading in h["references"]]
    op_ms = common.at_reference_speed(common.median(cpu_ms), *references)
    metrics = {
        "setup_s": common.median(setup_s),
        "peak_rss_mib": ladder["peak_rss_mib"],
        "op_p50_ms": op_ms,
        "throughput_per_s": 1e3 / op_ms,
        "ari": ari,
    }
    label, tail_ms = common.tail(pooled["single"])
    lines = [
        "predict_p50_ms  %.3f ms at %d req/s (median of %d daemons' p50; per daemon %s)"
        % (common.median(p50s), HEADLINE_RATE, len(heads), ", ".join("%.3f" % p for p in p50s)),
        "predict_%s_ms  %.3f ms (pooled, n=%d)" % (label, tail_ms, len(pooled["single"])),
        "batch_p50_ms    %s" % common.timing(pooled["batch"]),
        "update_p50_ms   %s" % common.timing(pooled["update"]),
        "max_rate_rps    %d req/s (p99 <= %.0f ms, backlog < %d)"
        % (_max_rate(ladder["steps"]), P99_LIMIT_MS, BACKLOG_LIMIT),
        "daemon CPU      %.3f ms per request at %d req/s at reference speed "
        "(%.0f requests per CPU-second); "
        "closed loop %.0f single-point predictions/s over 2 connections"
        % (metrics["op_p50_ms"], HEADLINE_RATE, metrics["throughput_per_s"],
           ladder["closed_per_s"]),
        "daemon CPU raw  %s ms per request (as measured, per daemon; median host reading "
        "%.2f ms, %.2f ms at full speed)"
        % (", ".join("%.3f" % ms for ms in cpu_ms), 1e3 * common.median(references),
           1e3 * common.REFERENCE_S),
        "setup_s raw     %s s (as measured, per daemon)"
        % ", ".join("%.3f" % s for s in setup_raw_s),
        "ari             %.4f (single-point labels vs truth)" % ari,
    ]
    for step in ladder["steps"]:
        lines.append(
            "  step %4d req/s: %5d requests, single p50 %.3f ms p99 %.3f ms, "
            "lag p99 %.3f ms, backlog at end %d%s"
            % (step["rate"], step["requests"], common.median(step["latency_ms"]["single"]),
               step["p99_ms"], step["lag_p99_ms"], step["backlog_end"],
               "" if step["ok"] else "  (over the limit)")
        )
    return metrics, lines


# -- traced run ----------------------------------------------------------------------


def _bucket_delta_quantile(bounds, before, after, q):
    """Quantile of the observations added between two cumulative bucket snapshots.

    Linear inside the bucket that holds it; the ``+Inf`` bucket reads as
    its lower bound.
    """
    counts = [a - b for a, b in zip(after, before)]
    if not counts or counts[-1] <= 0:
        return 0.0
    target = q * counts[-1]
    lower, below = 0.0, 0.0
    for bound, cumulative in zip(bounds, counts):
        if cumulative >= target:
            if bound == float("inf"):
                return lower
            return lower + (target - below) / (cumulative - below) * (bound - lower)
        lower, below = bound, cumulative
    return lower


def _route_buckets(scrape, route):
    latency = scrape["json"]["telemetry"]["latency_seconds"].get(route, {}).get("2xx")
    if latency is None:
        return None
    bounds = [float("inf") if le == "+Inf" else float(le) for le in latency["buckets"]["le"]]
    return bounds, latency["buckets"]["cumulative"]


def _route_p50_ms(before, after, route):
    new = _route_buckets(after, route)
    if new is None:
        return 0.0
    old = _route_buckets(before, route)
    old_counts = old[1] if old else [0] * len(new[1])
    return 1e3 * _bucket_delta_quantile(new[0], old_counts, new[1], 0.5)


def _prom_buckets(text, family):
    bounds, counts = [], []
    for line in text.splitlines():
        if line.startswith(family + "_bucket"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            bounds.append(float("inf") if le == "+Inf" else float(le))
            counts.append(float(line.rsplit(" ", 1)[1]))
    return bounds, counts


def _in_process(inputs, work):
    """The serving layer alone, in this process, on the same query rows."""
    index = ProjectedClusterIndex(ModelArtifact.load(inputs.artifact))
    timings = {}
    for rows in (1, 64):
        points = inputs.query[:rows]
        for _ in range(20):
            index.predict(points)
        samples = []
        for _ in range(200):
            start = time.perf_counter()
            index.predict(points)
            samples.append(1e6 * (time.perf_counter() - start))
        timings[rows] = common.median(samples)
    updates = []
    for i in range(20):
        points = inputs.query[32 * i:32 * (i + 1)]
        start = time.perf_counter()
        index.partial_update(points)
        updates.append(1e3 * (time.perf_counter() - start))
    saves, loads = [], []
    for i in range(5):
        path = work / ("save-%d" % i)
        start = time.perf_counter()
        index.export_artifact().save(path)
        saves.append(1e3 * (time.perf_counter() - start))
        start = time.perf_counter()
        ModelArtifact.load(path, mmap_mode="r")
        loads.append(1e3 * (time.perf_counter() - start))
    return {
        "index.predict_us.1row": timings[1],
        "index.predict_us.64rows": timings[64],
        "index.partial_update_ms": common.median(updates),
        "artifact.save_ms": common.median(saves),
        "artifact.load_ms": common.median(loads),
        "artifact.bytes": common.dir_bytes(inputs.artifact),
    }


def run_traced(workload, seed, seconds, work, checks):
    from repro import obs

    inputs = Inputs(seed, work)
    step_s = seconds * STEP_SHARE
    plain = Daemon(inputs.artifact, work, "plain")
    try:
        untraced = session(inputs, plain, (HEADLINE_RATE,), step_s)
    finally:
        plain.stop()
    trace_out = work / "daemon-trace.json"
    daemon = Daemon(inputs.artifact, work, "traced", trace_out)
    try:
        result = session(inputs, daemon, LADDER, step_s, scrape=True)
    finally:
        daemon.stop()
    verify(inputs, untraced["responses"], checks)
    verify(inputs, result["responses"], checks)

    recorder = obs.Recorder()
    recorder.ingest(json.loads(trace_out.read_text()))
    table = common.span_table(recorder.spans)
    common.write_trace("%s-seed%d" % (workload, seed), recorder)

    head = _headline(result["steps"])
    before, after = head["server"]
    client_p50 = common.median(head["latency_ms"]["single"])
    route_p50 = _route_p50_ms(before, after, "predict")
    bounds, old = _prom_buckets(before["prom"], "repro_queue_wait_seconds")
    _, new = _prom_buckets(after["prom"], "repro_queue_wait_seconds")
    batcher_old, batcher_new = before["json"]["batcher"], after["json"]["batcher"]
    flushes = batcher_new["n_flushes"] - batcher_old["n_flushes"]
    batched = batcher_new.get("n_batched", 0) - batcher_old.get("n_batched", 0)
    plain_head = _headline(untraced["steps"])
    cpu_ms = 1e3 * head["cpu_s"] / head["requests"]
    untraced_cpu_ms = 1e3 * plain_head["cpu_s"] / plain_head["requests"]
    metrics = {
        "server.route_p50_ms.predict": route_p50,
        "server.route_p50_ms.partial_update": _route_p50_ms(before, after, "partial_update"),
        "client.transport_p50_ms": client_p50 - route_p50,
        "server.queue_wait_p99_us": 1e6 * _bucket_delta_quantile(bounds, old, new, 0.99),
        "server.batch_size_mean": batched / flushes if flushes else 0.0,
        "server.flushes": flushes,
        "server.cpu_ms_per_request": cpu_ms,
        "server.errors": sum(result["final_metrics"]["errors"].values()),
        "server.max_rate_rps": _max_rate(result["steps"]),
        "client.lag_p99_ms": head["lag_p99_ms"],
        "client.backlog_end": head["backlog_end"],
        "trace.overhead_share": cpu_ms / untraced_cpu_ms - 1.0,
        "trace.fit_spans": common.fit_span_count(table),
        "trace.spans": len(recorder.spans),
    }
    metrics.update(_in_process(inputs, work))
    lines = [
        "daemon CPU per request %.3f ms traced, %.3f ms untraced, at %d req/s"
        % (cpu_ms, untraced_cpu_ms, HEADLINE_RATE),
        "in-process predict of 1 row %.1f us = %.1f%% of the HTTP p50"
        % (metrics["index.predict_us.1row"], 0.1 * metrics["index.predict_us.1row"] / client_p50),
        "fit spans in the daemon: %d" % metrics["trace.fit_spans"],
    ]
    return metrics, lines
