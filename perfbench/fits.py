"""``fit_guided``: SSPC.fit in a fresh process per repetition.

Each repetition fits its own dataset, drawn from ``(seed, rep)``, so a
run's median covers several datasets.  The parent generates the data and
the knowledge off the clock and hands them to ``fit_child.py``.
"""

from __future__ import annotations

import numpy as np

import common
import spec
from repro.data.generator import make_projected_clusters
from repro.evaluation import adjusted_rand_index
from repro.semisupervision import sample_knowledge

N_OBJECTS = 20000
#: Fit repetitions per 20 s of ``--seconds``, each on a new dataset (a fit
#: takes 3-5 s on 2 shared cores).  Fit time moves with the dataset (8 to
#: 21 iterations), so more datasets per run make a steadier median.
REPS_PER_20_S = 5
#: Set-up-only processes per run, besides the fits, one before them and
#: one after; ``setup_s`` is the median spawn-to-ready time over all of
#: them, at reference speed (see ``common.at_reference_speed``).
SETUP_PROBES = 2
#: A fit scoring below this against the truth is counted as failed.
ARI_FLOOR = 0.3


def _dataset(seed, rep):
    rng = np.random.default_rng([12, seed, rep])
    dataset = make_projected_clusters(
        n_objects=N_OBJECTS,
        n_dimensions=spec.N_DIMENSIONS,
        n_clusters=spec.N_CLUSTERS,
        avg_cluster_dimensionality=spec.CLUSTER_DIMENSIONALITY,
        random_state=rng,
    )
    knowledge = sample_knowledge(
        dataset.labels,
        dataset.relevant_dimensions,
        category="both",
        input_size=5,
        coverage=1.0,
        random_state=rng,
    )
    pairs = {"objects": [], "dimensions": []}
    for cls in knowledge.objects.classes():
        pairs["objects"] += [[int(o), int(cls)] for o in knowledge.objects.for_class(cls)]
    for cls in knowledge.dimensions.classes():
        pairs["dimensions"] += [[int(j), int(cls)] for j in knowledge.dimensions.for_class(cls)]
    return dataset, pairs


def _fit(workload, seed, rep, work, trace):
    dataset, pairs = _dataset(seed, rep)
    tag = "%s-r%d-t%d" % (workload, rep, int(trace))
    data_path = work / ("%s.npy" % tag)
    np.save(data_path, dataset.data)
    job = {
        "data": str(data_path),
        "knowledge": pairs,
        "n_clusters": spec.N_CLUSTERS,
        "random_state": int(seed) * 1000 + rep,
        "trace": bool(trace),
        "labels_out": str(work / ("%s.labels.npy" % tag)),
        "out": str(work / ("%s.result.json" % tag)),
    }
    result = common.run_child("fit_child.py", job, work / ("%s.job.json" % tag))
    labels = np.load(job["labels_out"])
    result["fit_raw_s"] = result["fit_s"]
    result["fit_s"] = common.at_reference_speed(
        result["fit_raw_s"], result["ready_reference"], result["fit_reference"]
    )
    result["ari"] = adjusted_rand_index(dataset.labels, labels)
    result["fingerprint"] = common.fingerprint(labels)
    result["valid"] = bool(
        labels.shape == dataset.labels.shape
        and labels.min() >= -1
        and labels.max() < spec.N_CLUSTERS
        and result["ari"] >= ARI_FLOOR
    )
    return result


def run(workload, seed, seconds, work, checks):
    """Timed run: returns (end-to-end metrics, report lines)."""
    setup = common.setup_times("fit_child.py", {}, work, workload + "-pre", SETUP_PROBES // 2)
    results = []
    for rep in range(max(1, int(round(REPS_PER_20_S * seconds / 20.0)))):
        result = _fit(workload, seed, rep, work, trace=False)
        results.append(result)
        checks.attempt("fit rep %d" % rep, result["valid"])
        checks.fingerprint("%s/seed=%d/rep=%d" % (workload, seed, rep), result["fingerprint"])
    fit_s = [r["fit_s"] for r in results]
    setup += [r["setup_s"] for r in results] + common.setup_times(
        "fit_child.py", {}, work, workload + "-post", SETUP_PROBES - SETUP_PROBES // 2
    )
    rss = [r["peak_rss_mib"] for r in results]
    ari = float(np.mean([r["ari"] for r in results]))
    metrics = {
        "setup_s": common.median(setup),
        "peak_rss_mib": max(rss),
        "op_p50_ms": 1e3 * common.median(fit_s),
        "throughput_per_s": N_OBJECTS / common.median(fit_s),
        "ari": ari,
    }
    label, worst = common.tail(fit_s)
    lines = [
        "fit_s          p50 %.3f s, %s %.3f s (n=%d fits, one dataset each; at reference speed)"
        % (common.median(fit_s), label, worst, len(fit_s)),
        "fit_s raw      %s s (as measured)" % ", ".join("%.3f" % r["fit_raw_s"] for r in results),
        "peak_rss_mib   %s (per fit)" % ", ".join("%.1f" % value for value in rss),
        "ari            %.4f (mean; per fit %s)" % (ari, ", ".join("%.3f" % r["ari"] for r in results)),
        "iterations     %s" % ", ".join(str(r["n_iterations"]) for r in results),
        "fingerprints   %s" % ", ".join(r["fingerprint"] for r in results),
    ]
    return metrics, lines


def run_traced(workload, seed, seconds, work, checks):
    """Traced run: one untraced and one traced fit of repetition 0."""
    from repro import obs

    plain = _fit(workload, seed, 0, work, trace=False)
    traced = _fit(workload, seed, 0, work, trace=True)
    for name, result in (("untraced fit", plain), ("traced fit", traced)):
        checks.attempt(name, result["valid"])
        checks.fingerprint("%s/seed=%d/rep=0" % (workload, seed), result["fingerprint"])
    if plain["fingerprint"] != traced["fingerprint"]:
        checks.fail("tracing changed the labels")

    recorder = obs.Recorder()
    recorder.ingest(traced["trace_state"])
    table = common.span_table(recorder.spans)
    common.write_trace("%s-seed%d" % (workload, seed), recorder)

    counters = recorder.counters
    gauges = recorder.gauges
    groups = traced["seed_groups"]
    builds = (groups["private"] + groups["public"]) * traced["grids_per_group"]
    seed_groups_s = common.span_total(table, "fit.seed_groups")
    grid_build_s, grid_peak_s = traced["grid_times"]["build"], traced["grid_times"]["peak"]
    grid_s = sum(grid_build_s) + sum(grid_peak_s)
    gains_calls = counters.get("engine.gains_calls", 0.0)
    metrics = {
        "seed_groups_s": seed_groups_s,
        "seed_groups.public_groups": groups["public"],
        "seed_groups.private_groups": groups["private"],
        "grid.builds": builds,
        "grid.build_ms": 1e3 * sum(grid_build_s) / max(1, len(grid_build_s)),
        "grid.peak_ms": 1e3 * sum(grid_peak_s) / max(1, len(grid_peak_s)),
        "seed_groups.other_s": seed_groups_s - grid_s,
        "fit.iterations": traced["n_iterations"],
        "fit.iteration_s": common.span_total(table, "fit.iteration"),
        "fit.assign_s": common.span_total(table, "fit.assign"),
        "engine.kernel_s": common.span_total(table, "engine.kernel"),
        "fit.select_dim_s": common.span_total(table, "fit.select_dim"),
        "fit.phi_s": common.span_total(table, "fit.phi"),
        "fit.medoid_swap_s": common.span_total(table, "fit.medoid_swap"),
        "engine.columns_recomputed_share": (
            counters.get("engine.columns_recomputed", 0.0) / (gains_calls * spec.N_CLUSTERS)
            if gains_calls else 0.0
        ),
        "stats_cache.hit_rate": gauges.get("stats_cache.hit_rate", 0.0),
        "trace.overhead_share": traced["fit_s"] / plain["fit_s"] - 1.0,
        "trace.fit_spans": common.fit_span_count(table),
        "trace.spans": len(recorder.spans),
    }
    fit_s = traced["fit_s"]
    lines = [
        "fit_s (traced) %.3f s, untraced %.3f s" % (fit_s, plain["fit_s"]),
        "seed_groups_s  %.3f s = %.0f%% of fit_s" % (seed_groups_s, 100 * seed_groups_s / fit_s),
        "grid time      %.3f s over %d timed grids (grid.builds %d is computed)"
        % (grid_s, len(grid_build_s), builds),
        "iteration loop %.3f s = %.0f%% of fit_s"
        % (metrics["fit.iteration_s"], 100 * metrics["fit.iteration_s"] / fit_s),
    ]
    return metrics, lines
