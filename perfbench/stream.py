"""``stream_drift``: StreamingSSPC over a drifting stream, with checkpoints.

The parent draws the stream, fits the starting model on a warmup block
(with labeled objects and dimensions, so the start is good on every
seed) and writes the batches to a raw float64 file, all off the clock.
``stream_child.py`` is the process under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import common
import spec
from repro.core import SSPC
from repro.data.streams import DriftingStreamGenerator, make_drift_schedule
from repro.evaluation import adjusted_rand_index
from repro.semisupervision import sample_knowledge
from repro.stream.checkpoint import resolve_checkpoint_dir

BATCH_SIZE = 256
CHECKPOINT_EVERY = 50
#: Stream length per second of ``--seconds`` (1000 batches at 20 s, which
#: leaves 10 batches beyond the p99 of batch latency).
BATCHES_PER_SECOND = 50
WARMUP_POINTS = 3000
#: Newest rows each cluster keeps for its median (bounded memory).  With
#: the unbounded default every fold recomputes the median over the whole
#: history, so batch cost grew with stream length and its timings moved by
#: up to 0.29 (quartile spread over ten seeds) with the host's load; with
#: the window they moved by 0.08.
PROJECTION_WINDOW = 2048
#: Set-up-only processes per run, besides the streaming one, half before
#: it and half after; ``setup_s`` is the median spawn-to-ready time over all
#: of them, at reference speed.  With 2 probes its quartile spread over
#: ten seeds was 0.11; each probe costs about a second.
SETUP_PROBES = 6
#: A post-drift window scoring below this mean batch ARI counts as failed.
ARI_FLOOR = 0.3


def _prepare(seed, seconds, work):
    n_batches = max(8, int(round(BATCHES_PER_SECOND * seconds)))
    stream = DriftingStreamGenerator(
        n_dimensions=spec.N_DIMENSIONS,
        n_clusters=spec.N_CLUSTERS,
        avg_cluster_dimensionality=spec.CLUSTER_DIMENSIONALITY,
        outlier_fraction=0.05,
        events=make_drift_schedule("mixed", drift_batch=n_batches // 4),
        random_state=seed,
    )
    warmup = stream.warmup(WARMUP_POINTS)
    relevant = stream.relevant_dimensions(0)
    knowledge = sample_knowledge(
        warmup.labels,
        [relevant[cluster] for cluster in range(spec.N_CLUSTERS)],
        category="both",
        input_size=5,
        coverage=1.0,
        random_state=seed,
    )
    model = SSPC(spec.N_CLUSTERS, random_state=seed).fit(warmup.data, knowledge)
    artifact = work / "stream-model"
    model.save(artifact)
    truth = []
    with open(work / "batches.f64", "wb") as handle:
        for batch in stream.batches(n_batches, BATCH_SIZE):
            np.ascontiguousarray(batch.data, dtype="<f8").tofile(handle)
            truth.append(batch.labels)
    return n_batches, artifact, truth


def _job(seed, n_batches, artifact, work, trace):
    tag = "stream-t%d" % int(trace)
    return {
        "artifact": str(artifact),
        "batches": str(work / "batches.f64"),
        "n_batches": n_batches,
        "batch_size": BATCH_SIZE,
        "n_dimensions": spec.N_DIMENSIONS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "checkpoint_dir": str(work / ("%s-checkpoint" % tag)),
        "seed": int(seed),
        "projection_window": PROJECTION_WINDOW,
        "trace": bool(trace),
        "labels_out": str(work / ("%s.labels.npy" % tag)),
        "out": str(work / ("%s.result.json" % tag)),
    }


def _run_child(job, work):
    result = common.run_child("stream_child.py", job, work / ("%s.job.json" % Path(job["out"]).stem))
    # Batches and checkpoints at reference speed, each between the
    # readings that bracket its segment of CHECKPOINT_EVERY batches.
    refs = result["references"]
    result["batch_raw_ms"] = result["batch_ms"]
    result["batch_ms"] = [
        common.at_reference_speed(ms, refs[i // CHECKPOINT_EVERY], refs[i // CHECKPOINT_EVERY + 1])
        for i, ms in enumerate(result["batch_raw_ms"])
    ]
    result["checkpoint_ms"] = [
        common.at_reference_speed(ms, refs[i], refs[i + 1])
        for i, ms in enumerate(result["checkpoint_ms"])
    ]
    result["labels"] = np.load(job["labels_out"])
    result["checkpoint_bytes"] = common.dir_bytes(resolve_checkpoint_dir(job["checkpoint_dir"]))
    return result


def _check(result, truth, n_batches, seed, seconds, checks):
    """Per-batch validity, post-drift ARI and the whole-stream fingerprint."""
    labels = result["labels"]
    aris = []
    for index, batch_truth in enumerate(truth):
        served = labels[index * BATCH_SIZE:(index + 1) * BATCH_SIZE]
        checks.attempt("batch %d" % index, served.shape == batch_truth.shape and served.min() >= -1)
        if index >= n_batches // 4:
            clustered = batch_truth >= 0
            aris.append(adjusted_rand_index(batch_truth[clustered], served[clustered]))
    ari = float(np.mean(aris))
    if ari < ARI_FLOOR:
        checks.fail("post-drift ARI %.3f below %.2f" % (ari, ARI_FLOOR))
    result["fingerprint"] = common.fingerprint(labels)
    checks.fingerprint("stream_drift/seed=%d/seconds=%g" % (seed, seconds), result["fingerprint"])
    return ari


def run(workload, seed, seconds, work, checks):
    n_batches, artifact, truth = _prepare(seed, seconds, work)
    job = _job(seed, n_batches, artifact, work, trace=False)
    setup_s = common.setup_times("stream_child.py", job, work, "pre", SETUP_PROBES // 2)
    result = _run_child(job, work)
    setup_s += [result["setup_s"]] + common.setup_times(
        "stream_child.py", job, work, "post", SETUP_PROBES - SETUP_PROBES // 2
    )
    ari = _check(result, truth, n_batches, seed, seconds, checks)
    batch_ms, checkpoint_ms = result["batch_ms"], result["checkpoint_ms"]
    busy_s = (sum(batch_ms) + sum(checkpoint_ms)) / 1e3
    metrics = {
        "setup_s": common.median(setup_s),
        "peak_rss_mib": result["peak_rss_mib"],
        "op_p50_ms": common.median(batch_ms),
        "throughput_per_s": n_batches * BATCH_SIZE / busy_s,
        "ari": ari,
    }
    label, value = common.tail(batch_ms)
    lines = [
        "stream_points_per_s  %.0f points/s (%d batches of %d, checkpoints included)"
        % (metrics["throughput_per_s"], n_batches, BATCH_SIZE),
        "stream_batch_%s_ms  %.3f ms (p50 %.3f ms, n=%d)"
        % (label, value, metrics["op_p50_ms"], len(batch_ms)),
        "checkpoint_ms        %s" % common.timing(checkpoint_ms),
        "batch p50 raw        %.3f ms (as measured; the figures above are at reference speed)"
        % common.median(result["batch_raw_ms"]),
        "ari                  %.4f (mean batch ARI after the drift at batch %d)"
        % (ari, n_batches // 4),
        "adaptation           %d spawns (%d rejected), %d retires, %d drift refreshes"
        % (result["spawns"], result["spawns_rejected"], result["retires"],
           result["drift_refreshes"]),
        "fingerprint          %s" % result["fingerprint"],
    ]
    return metrics, lines


def run_traced(workload, seed, seconds, work, checks):
    from repro import obs

    n_batches, artifact, truth = _prepare(seed, seconds, work)
    plain = _run_child(_job(seed, n_batches, artifact, work, trace=False), work)
    traced = _run_child(_job(seed, n_batches, artifact, work, trace=True), work)
    _check(plain, truth, n_batches, seed, seconds, checks)
    _check(traced, truth, n_batches, seed, seconds, checks)
    if plain["fingerprint"] != traced["fingerprint"]:
        checks.fail("tracing changed the stream labels")

    recorder = obs.Recorder()
    recorder.ingest(traced["trace_state"])
    table = common.span_table(recorder.spans)
    common.write_trace("%s-seed%d" % (workload, seed), recorder)
    counters = recorder.counters
    points = counters.get("stream.points", 0.0)
    metrics = {
        "stream.partial_update_ms": 1e3 * common.span_total(table, "serve.partial_update") / n_batches,
        "stream.batch_self_ms": 1e3 * table.get("stream.batch", {}).get("self_s", 0.0) / n_batches,
        "stream.spawn_search_ms": 1e3 * common.span_total(table, "bench.spawn_search") / n_batches,
        "stream.spawns": traced["spawns"],
        "stream.spawns_rejected": traced["spawns_rejected"],
        "stream.retires": traced["retires"],
        "stream.drift_refreshes": traced["drift_refreshes"],
        "stream.outlier_share": counters.get("stream.outliers", 0.0) / points if points else 0.0,
        "checkpoint.bytes": traced["checkpoint_bytes"],
        "stream.projection_rows": traced["projection_rows"],
        "trace.overhead_share": sum(traced["batch_ms"]) / sum(plain["batch_ms"]) - 1.0,
        "trace.fit_spans": common.fit_span_count(table),
        "trace.spans": len(recorder.spans),
    }
    batch_s = common.span_total(table, "stream.batch")
    lines = [
        "process_batch total %.3f s traced, %.3f s untraced"
        % (sum(traced["batch_ms"]) / 1e3, sum(plain["batch_ms"]) / 1e3),
        "spawn search        %.0f%% of process_batch"
        % (100 * common.span_total(table, "bench.spawn_search") / batch_s),
        "partial_update      %.0f%% of process_batch"
        % (100 * common.span_total(table, "serve.partial_update") / batch_s),
    ]
    return metrics, lines
