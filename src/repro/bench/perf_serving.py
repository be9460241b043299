"""Benchmark of the serving subsystem: inference throughput + artifact I/O.

Measures, on a model fitted at the scenario's configuration (d=100,
k=10 at paper scale):

* **batch throughput** — points/second of
  :meth:`ProjectedClusterIndex.predict` over large out-of-sample query
  batches (the fused grouped kernel), best of ``repeats`` runs;
* **single-point throughput** — the scalar reference path, for the
  batching speedup headline;
* **artifact round trip** — seconds to ``save`` + ``load`` the model
  artifact, and a **divergence gate**: predictions from the reloaded
  artifact must be bit-identical to the in-memory ones, and the batch
  path bit-identical to the single-point path.

The ``serving`` scenario gates both identities and a 10k points/sec
throughput floor (the acceptance bar at d=100, k=10; the batched numpy
kernel measures orders of magnitude above that); its committed baselines
live in ``BENCH_smoke.json`` / ``BENCH_reduced.json``.
"""

from __future__ import annotations

import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.sspc import SSPC
from repro.data.generator import SyntheticDataGenerator
from repro.serving.artifact import load_artifact
from repro.serving.index import ProjectedClusterIndex


def build_dataset(n_objects: int, n_dimensions: int, n_clusters: int, seed: int):
    """Synthetic projected-cluster dataset matching the paper's model."""
    return SyntheticDataGenerator(
        n_objects=n_objects,
        n_dimensions=n_dimensions,
        n_clusters=n_clusters,
        avg_cluster_dimensionality=max(n_dimensions // 10, 3),
        outlier_fraction=0.05,
        random_state=seed,
    ).generate(seed)


def build_queries(dataset, n_queries: int, seed: int) -> np.ndarray:
    """Out-of-sample traffic: jittered in-cluster points plus background noise."""
    rng = np.random.default_rng(seed + 1)
    data = dataset.data
    n_near = n_queries // 2
    near = data[rng.integers(0, data.shape[0], size=n_near)]
    near = near + rng.normal(scale=0.05 * data.std(), size=near.shape)
    noise = rng.uniform(data.min(axis=0), data.max(axis=0),
                        size=(n_queries - n_near, data.shape[1]))
    queries = np.vstack([near, noise])
    rng.shuffle(queries, axis=0)
    return queries


def run_benchmark(params: Mapping[str, object]) -> dict:
    n_clusters = params["n_clusters"]
    n_queries = params["n_queries"]
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

    queries = build_queries(dataset, n_queries, seed)
    index = ProjectedClusterIndex(model.to_artifact())

    # ---- batch throughput ------------------------------------------------
    batch_times = []
    for _ in range(params["repeats"]):
        start = time.perf_counter()
        labels_batch = index.predict(queries)
        batch_times.append(time.perf_counter() - start)
    batch_points_per_sec = n_queries / min(batch_times)

    # Peak-memory probe (tracemalloc, reported info-only): one untimed
    # batch predict through the index's blocked assignment plan.
    tracemalloc.start()
    index.predict(queries)
    _, predict_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # ---- single-point reference path ------------------------------------
    n_single = min(params["n_single"], n_queries)
    start = time.perf_counter()
    labels_single = np.asarray(
        [index.predict_one(point) for point in queries[:n_single]]
    )
    single_seconds = time.perf_counter() - start
    single_points_per_sec = n_single / single_seconds if single_seconds > 0 else float("inf")
    batch_equals_single = bool(
        np.array_equal(labels_batch[:n_single], labels_single)
    )

    # ---- artifact round trip --------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        artifact_path = Path(tmp) / "model"
        save_start = time.perf_counter()
        model.save(artifact_path)
        save_seconds = time.perf_counter() - save_start
        load_start = time.perf_counter()
        loaded = load_artifact(artifact_path)
        load_seconds = time.perf_counter() - load_start
        artifact_bytes = sum(
            entry.stat().st_size for entry in artifact_path.iterdir()
        )
    labels_reloaded = ProjectedClusterIndex(loaded).predict(queries)
    roundtrip_identical = bool(np.array_equal(labels_batch, labels_reloaded))

    n_outliers = int(np.count_nonzero(labels_batch == -1))
    return {
        "fit_seconds": fit_seconds,
        "batch_points_per_sec": batch_points_per_sec,
        "batch_seconds_best": min(batch_times),
        "single_points_per_sec": single_points_per_sec,
        "batch_speedup_over_single": batch_points_per_sec / single_points_per_sec,
        "artifact_save_seconds": save_seconds,
        "artifact_load_seconds": load_seconds,
        "artifact_roundtrip_seconds": save_seconds + load_seconds,
        "artifact_bytes": artifact_bytes,
        "predict_peak_mib": predict_peak / (1024.0 ** 2),
        "queries_marked_outlier": n_outliers,
        "batch_equals_single": batch_equals_single,
        "roundtrip_predictions_identical": roundtrip_identical,
    }
