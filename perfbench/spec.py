"""What each benchmark metric means, what each layer metric should move, and the seeds.

``BENCHMARK.json`` at the repository root declares the workloads (each
with its one-line "why"), the end-to-end metrics with their units,
directions and regression bounds, and the per-layer metrics with their
units; ``run.py`` reads them from there.  This file adds what that format
has no room for.

Every workload prints every end-to-end metric.  The metric names are
generic because each workload has one headline operation; ``E2E_MEANING``
says what each metric is on each workload, in workload-specific terms
(``fit_s``, ``predict_p50_ms``, ``stream_points_per_s``...).
The detailed report printed above the JSON result line carries all of
those workload-specific names as well.

Every timing is "at reference speed": it is scaled by how much slower
than at full speed the host ran a fixed pure-Python loop next to it
(``common.at_reference_speed``): in the same process for set-up, fits
and the stream, and on each CPU before and after the step for the
daemon's CPU time.  The report also prints them as measured.
"""

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 2005
#: Seed held out while the benchmark was written: every output check must
#: pass on it too, so later speed claims can be re-checked on a seed that
#: did not shape them.
HELD_OUT_SEED = 4242

#: Shape of every generated dataset: d=100 dimensions, k=10 clusters, each
#: relevant in about l_real=6 of them (l_real << d, the paper's setting).
N_DIMENSIONS = 100
N_CLUSTERS = 10
CLUSTER_DIMENSIONALITY = 6

E2E_MEANING = {
    "setup_s": {
        "fit_guided": "spawn until repro.core is imported, at reference speed (median over "
        "the fit processes and 2 set-up-only ones)",
        "serve_mixed": "spawn of repro-server until it prints READY, at reference speed "
        "(median of 5 daemons)",
        "stream_drift": "spawn until StreamingSSPC is built from the artifact, at reference "
        "speed (median over the stream process and 6 set-up-only ones)",
    },
    "peak_rss_mib": {
        "fit_guided": "highest VmHWM of the run's fit processes",
        "serve_mixed": "VmHWM of the daemon that ran the whole ladder, read before SIGTERM",
        "stream_drift": "VmHWM of the stream process",
    },
    "op_p50_ms": {
        "fit_guided": "fit_s: median SSPC.fit wall time at reference speed, in ms",
        "serve_mixed": "daemon CPU ms per request at the 250 req/s step at reference speed "
        "(median over 5 daemons); the single-point p50 latency is in the report",
        "stream_drift": "median process_batch latency at reference speed",
    },
    "throughput_per_s": {
        "fit_guided": "objects clustered per second (n / fit_s)",
        "serve_mixed": "requests served per second of daemon CPU at the 250 req/s step at "
        "reference speed (median over 5 daemons; the inverse of op_p50_ms here)",
        "stream_drift": "stream_points_per_s: points per second of process_batch "
        "plus checkpoint time, at reference speed",
    },
    "ari": {
        "fit_guided": "mean ARI of labels_ against the generator's truth",
        "serve_mixed": "ARI of every single-point HTTP label against the truth",
        "stream_drift": "mean batch ARI over the post-drift window",
    },
}

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: A layer a workload does not run reads 0 there (e.g. every fit.* metric
#: on serve_mixed).
PER_LAYER_TARGET = {
    # repro.core.seed_groups / repro.core.grid
    "seed_groups_s": "fit_s@fit_guided (most of it)",
    "seed_groups.public_groups": "fit_s@fit_guided; expected 0 there (no max-min runs)",
    "seed_groups.private_groups": "fit_s@fit_guided (one per cluster)",
    "grid.builds": "computed: seed groups x grids_per_group; fit_s on both fits",
    "grid.build_ms": "mean benchmark-timed Grid(...) of the fit's seed groups -> fit_s on "
    "both fits",
    "grid.peak_ms": "mean benchmark-timed hill_climb / absolute_peak of the fit's seed groups "
    "-> fit_s on both fits",
    "seed_groups.other_s": "derived seed_groups_s - grid time (seed SelectDim; the max-min "
    "anchor search runs only in stream spawns) -> fit_s@fit_guided",
    # repro.core iteration loop
    "fit.iterations": "fit_s@fit_guided",
    "fit.iteration_s": "fit_s@fit_guided",
    "fit.assign_s": "fit_s@fit_guided",
    "engine.kernel_s": "fit_s@fit_guided",
    "fit.select_dim_s": "fit_s@fit_guided",
    "fit.phi_s": "fit_s@fit_guided",
    "fit.medoid_swap_s": "fit_s@fit_guided",
    "engine.columns_recomputed_share": "fit_s@fit_guided",
    "stats_cache.hit_rate": "fit_s@fit_guided",
    # repro.serving (timed in-process on the serve workload's rows)
    "index.predict_us.1row": "predict_p50_ms@serve_mixed (a minority share)",
    "index.predict_us.64rows": "batch_p50_ms@serve_mixed",
    "index.partial_update_ms": "update_p50_ms@serve_mixed, stream_points_per_s@stream_drift",
    "artifact.save_ms": "update_p50_ms@serve_mixed, checkpoint_ms@stream_drift",
    "artifact.load_ms": "setup_s@serve_mixed",
    "artifact.bytes": "update_p50_ms and setup_s@serve_mixed",
    # repro.server (GET /metrics scraped around the headline 250 req/s step)
    "server.route_p50_ms.predict": "predict_p50_ms@serve_mixed",
    "server.route_p50_ms.partial_update": "update_p50_ms@serve_mixed",
    "client.transport_p50_ms": "predict_p50_ms@serve_mixed (client latency minus server latency)",
    "server.queue_wait_p99_us": "predict_p99_ms@serve_mixed",
    "server.batch_size_mean": "max_rate_rps@serve_mixed",
    "server.flushes": "max_rate_rps@serve_mixed",
    "server.cpu_ms_per_request": "max_rate_rps@serve_mixed",
    "server.errors": "failed_share@serve_mixed",
    "server.max_rate_rps": "highest ladder step with single-point p99 <= 35 ms and no backlog growth",
    "client.lag_p99_ms": "validates the headline step",
    "client.backlog_end": "validates the headline step",
    # repro.stream
    "stream.partial_update_ms": "stream_points_per_s@stream_drift",
    "stream.batch_self_ms": "stream_points_per_s@stream_drift",
    "stream.spawn_search_ms": "stream_points_per_s@stream_drift (spawn attempts run the max-min "
    "anchor search and the grid code)",
    "stream.spawns": "stream_batch_p99_ms@stream_drift",
    "stream.spawns_rejected": "stream_batch_p99_ms@stream_drift",
    "stream.retires": "stream_batch_p99_ms@stream_drift",
    "stream.drift_refreshes": "stream_batch_p99_ms@stream_drift",
    "stream.outlier_share": "stream_batch_p99_ms@stream_drift",
    "checkpoint.bytes": "checkpoint_ms and peak_rss_mib@stream_drift",
    "stream.projection_rows": "checkpoint_ms and peak_rss_mib@stream_drift",
    # repro.obs
    "trace.overhead_share": "traced over untraced headline cost, minus 1 (fit_s, daemon CPU "
    "per request, process_batch time)",
    "trace.fit_spans": "expected 0 on serve_mixed and stream_drift",
    "trace.spans": "spans recorded by the traced run",
}
