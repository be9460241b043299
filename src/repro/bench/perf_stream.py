"""Benchmark of the streaming subsystem: sustained throughput + drift recovery.

Measures, on a drifting synthetic stream (a mean shift of one cluster
plus a cluster birth at ``drift_batch``):

* **sustained throughput** — points/second through
  :meth:`StreamingSSPC.process_batch` over the whole stream (assignment,
  gating, exact folds, drift checks and lifecycle sweeps included);
* **post-drift accuracy recovery** — mean batch ARI over the final
  evaluation window, against ground truth, compared with a **full-refit
  oracle**: SSPC refitted from scratch on the freshest points and scored
  on the same evaluation batches;
* **amortized cost ratio** — the per-point cost of the oracle strategy
  (one full refit amortized over the points of its refresh interval)
  divided by the engine's per-point cost.  The acceptance bar is 10x:
  streaming must be at least an order of magnitude cheaper per point
  than staying current by refitting.  Both costs are medians over
  :data:`TIMING_REPEATS` runs (the refit, and the whole stream on a
  fresh engine), taken in alternation so a slow spell of the host
  slows both sides;
* **drift-free control** — a short stationary stream driven through the
  engine *and* through a bare
  :class:`~repro.serving.index.ProjectedClusterIndex`: per-cluster
  statistics must match bit for bit and no adaptation event may fire
  (the engine adds bookkeeping, never arithmetic).

Everything is seeded, so the report is bit-identical across runs and
machines up to floating-point environment differences — which is what
lets the ``stream`` scenario gate its accuracy metrics absolutely.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from repro.core.sspc import SSPC
from repro.data.streams import ClusterBirth, DriftingStreamGenerator, MeanShift
from repro.evaluation import adjusted_rand_index
from repro.serving.index import ProjectedClusterIndex
from repro.stream.engine import StreamConfig, StreamingSSPC

#: Timed runs of the stream (each on a fresh engine) and of the oracle
#: refit; each side reports its median.  One sample of each let the
#: ratio's 10x floor flip between runs of the same code.
TIMING_REPEATS = 5


def build_stream(params: Mapping[str, object], *, drifting: bool) -> DriftingStreamGenerator:
    """The benchmark stream: optional mean shift + birth at ``drift_batch``."""
    events = ()
    if drifting:
        events = (
            MeanShift(batch=params["drift_batch"], cluster=0, magnitude=0.35),
            ClusterBirth(batch=params["drift_batch"]),
        )
    return DriftingStreamGenerator(
        n_dimensions=params["n_dimensions"],
        n_clusters=params["n_clusters"],
        avg_cluster_dimensionality=params["cluster_dim"],
        outlier_fraction=0.05,
        events=events,
        random_state=params["seed"],
    )


def fit_initial_model(stream: DriftingStreamGenerator, params: Mapping[str, object]) -> SSPC:
    """Fit the pre-stream model on a warmup block."""
    warmup = stream.warmup(params["warmup"])
    return SSPC(
        n_clusters=params["n_clusters"],
        m=0.5,
        max_iterations=params["fit_iterations"],
        random_state=params["seed"],
    ).fit(warmup.data)


def engine_config(params: Mapping[str, object]) -> StreamConfig:
    return StreamConfig(
        seed=params["seed"],
        lifecycle_every=4,
        drift_check_every=2,
        spawn_min_points=max(params["batch_size"] // 8, 16),
    )


def _batch_ari(batch, labels: np.ndarray) -> float:
    clustered = batch.labels >= 0
    if not np.any(clustered):
        return float("nan")
    return adjusted_rand_index(batch.labels[clustered], labels[clustered])


def run_control(model: SSPC, params: Mapping[str, object]) -> bool:
    """Drift-free control: engine statistics must equal bare-index ones."""
    stream = build_stream(params, drifting=False)
    engine = StreamingSSPC(model.to_artifact(), config=engine_config(params))
    index = ProjectedClusterIndex(model.to_artifact())
    for batch in stream.batches(params["control_batches"], params["batch_size"]):
        engine.process_batch(batch.data)
        index.partial_update(batch.data)
    if engine.n_spawned or engine.n_retired or engine.n_drift_refreshes:
        return False
    for position in range(index.n_clusters):
        ours = engine.index.cluster_statistics(position)
        theirs = index.cluster_statistics(position)
        if ours.size != theirs.size:
            return False
        if not (
            np.array_equal(ours.mean, theirs.mean)
            and np.array_equal(ours.variance, theirs.variance)
            and np.array_equal(ours.median_selected, theirs.median_selected)
        ):
            return False
    return True


def _timed_stream(model: SSPC, params: Mapping[str, object], batches) -> tuple:
    """One pass over ``batches`` on a fresh engine: ``(seconds, engine, labels)``."""
    engine = StreamingSSPC(model.to_artifact(), config=engine_config(params))
    labels = []
    seconds = 0.0
    for batch in batches:
        start = time.perf_counter()
        result = engine.process_batch(batch.data)
        seconds += time.perf_counter() - start
        labels.append(result.labels)
    return seconds, engine, labels


def _timed_refit(train: np.ndarray, n_clusters: int, params: Mapping[str, object]) -> tuple:
    """One seeded refit of the oracle: ``(seconds, model)``."""
    start = time.perf_counter()
    oracle = SSPC(
        n_clusters=n_clusters,
        m=0.5,
        max_iterations=params["fit_iterations"],
        random_state=params["seed"],
    ).fit(train)
    return time.perf_counter() - start, oracle


def run_benchmark(params: Mapping[str, object]) -> dict:
    n_batches = params["n_batches"]
    batch_size = params["batch_size"]
    drift_batch = params["drift_batch"]
    oracle_window_size = params["oracle_window"]
    stream = build_stream(params, drifting=True)
    model = fit_initial_model(stream, params)
    control_bit_identical = run_control(model, params)

    batches = list(stream.batches(n_batches, batch_size))
    eval_start = n_batches - params["eval_batches"]

    # ---- full-refit oracle ----------------------------------------------
    # The oracle stays current by refitting from scratch on the freshest
    # points every `oracle_refit_every` batches; it trains on the stream
    # slice just before the evaluation window and is scored on the same
    # evaluation batches the engine is.
    train_rows = []
    position = eval_start - 1
    while position >= 0 and sum(block.shape[0] for block in train_rows) < oracle_window_size:
        train_rows.append(batches[position].data)
        position -= 1
    oracle_train = np.concatenate(list(reversed(train_rows)), axis=0)[-oracle_window_size:]
    oracle_k = len(stream.active_cluster_ids(eval_start))

    # Every pass and every refit is seeded, so they all give the same
    # labels and models; only their timings differ, and the first run's
    # engine and oracle are kept.
    stream_times, refit_times = [], []
    for repeat in range(TIMING_REPEATS):
        seconds, run_engine, run_labels = _timed_stream(model, params, batches)
        stream_times.append(seconds)
        seconds, run_oracle = _timed_refit(oracle_train, oracle_k, params)
        refit_times.append(seconds)
        if repeat == 0:
            engine, labels, oracle = run_engine, run_labels, run_oracle
    stream_seconds = float(np.median(stream_times))
    refit_seconds = float(np.median(refit_times))

    aris = [_batch_ari(batch, batch_labels) for batch, batch_labels in zip(batches, labels)]
    total_points = n_batches * batch_size
    points_per_sec = total_points / stream_seconds if stream_seconds > 0 else float("inf")
    pre_window = [a for a in aris[1:drift_batch] if not np.isnan(a)]
    post_window = [a for a in aris[eval_start:] if not np.isnan(a)]
    pre_drift_ari = float(np.mean(pre_window)) if pre_window else float("nan")
    post_drift_ari = float(np.mean(post_window)) if post_window else float("nan")

    oracle_index = ProjectedClusterIndex(oracle.to_artifact())
    oracle_window = [
        _batch_ari(batch, oracle_index.predict(batch.data)) for batch in batches[eval_start:]
    ]
    oracle_window = [a for a in oracle_window if not np.isnan(a)]
    oracle_post_ari = float(np.mean(oracle_window)) if oracle_window else float("nan")
    recovery_gap = max(0.0, oracle_post_ari - post_drift_ari)

    refit_points = params["oracle_refit_every"] * batch_size
    refit_cost_per_point = refit_seconds / refit_points
    stream_cost_per_point = stream_seconds / total_points
    amortized_speedup = (
        refit_cost_per_point / stream_cost_per_point
        if stream_cost_per_point > 0
        else float("inf")
    )

    return {
        "control_bit_identical": bool(control_bit_identical),
        "pre_drift_ari": pre_drift_ari,
        "post_drift_ari": post_drift_ari,
        "oracle_post_ari": oracle_post_ari,
        "recovery_gap_vs_oracle": float(recovery_gap),
        "points_per_sec": float(points_per_sec),
        "stream_seconds": float(stream_seconds),
        "refit_seconds": float(refit_seconds),
        "amortized_speedup_over_refit": float(amortized_speedup),
        "speedup_floor_ok": bool(amortized_speedup >= 10.0),
        "n_spawned": int(engine.n_spawned),
        "n_retired": int(engine.n_retired),
        "n_drift_refreshes": int(engine.n_drift_refreshes),
        "n_clusters_final": int(engine.n_clusters),
    }
