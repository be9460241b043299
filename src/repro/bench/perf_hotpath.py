"""Micro-benchmark of the SSPC per-iteration hot loop.

Times one full iteration of the main loop (Listing 2, steps 3-6:
assignment + ``SelectDim`` + ``phi`` + representative replacement) in
two configurations that produce **bit-identical** results:

* **naive** — the seed implementation's behaviour: one stateless
  :func:`~repro.core.objective.grouped_assignment_gains` pass per
  cluster, a second full set of those passes for the forced assignment,
  and a fresh statistics pass in each of ``SelectDim``, the ``phi``
  evaluation and the median replacement (statistics cache disabled via
  ``max_entries=0``).
* **optimized** — the shared-workspace path: one fused broadcasted gain
  pass reused by the forced assignment, and one cached statistics pass
  per member set shared by all three consumers.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full (n=5000, d=100, k=10)
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # quick CI smoke run

Reports the per-iteration timings, the measured speedup and the
statistics-pass counts of both arms (``--output`` writes them as JSON;
the committed baselines live in ``BENCH_smoke.json`` /
``BENCH_reduced.json`` through the ``repro-bench`` gate).  The script
exits non-zero if the two arms ever disagree on labels, selected
dimensions or ``phi`` — the benchmark doubles as an equivalence check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from typing import List, Tuple

import numpy as np

from repro.core.assignment import ClusterState, compute_gains_matrix, members_from_labels
from repro.core.dimension_selection import select_dimensions
from repro.core.model import OUTLIER_LABEL
from repro.core.objective import ObjectiveFunction, grouped_assignment_gains
from repro.core.representatives import compute_phi_scores, replace_representatives
from repro.core.stats_cache import ClusterStatsCache
from repro.core.thresholds import make_threshold
from repro.data.generator import SyntheticDataGenerator


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


def initial_states(objective: ObjectiveFunction, truth_labels: np.ndarray, n_clusters: int,
                   seed: int) -> List[ClusterState]:
    """Plausible mid-optimisation states: noisy medoids + estimated dims."""
    rng = np.random.default_rng(seed)
    states: List[ClusterState] = []
    prior = max(objective.n_objects // n_clusters, 2)
    for cluster in range(n_clusters):
        members = np.flatnonzero(truth_labels == cluster)
        if members.size == 0:
            members = np.arange(objective.n_objects)
        # A partial member sample keeps the dimension estimates imperfect,
        # as they are in real iterations.
        sample = rng.choice(members, size=max(members.size // 2, 2), replace=False)
        sample = np.sort(sample)
        dims = select_dimensions(objective, sample)
        if dims.size == 0:
            dims = np.arange(objective.n_dimensions)
        medoid = int(rng.choice(members))
        states.append(
            ClusterState(
                representative=objective.data[medoid].copy(),
                dimensions=dims,
                members=np.empty(0, dtype=int),
                size_hint=prior,
            )
        )
    return states


def naive_gains_matrix(objective: ObjectiveFunction, states: List[ClusterState]) -> np.ndarray:
    """The seed implementation's gain matrix: one kernel pass per cluster."""
    gains = np.full((objective.n_objects, len(states)), -np.inf)
    for index, state in enumerate(states):
        dims = state.dimensions
        if dims.size == 0:
            continue
        thresholds = objective.threshold.values(max(state.size_hint, 2))[dims]
        gains[:, index] = grouped_assignment_gains(
            objective.data, [dims], [state.representative[dims]], [thresholds]
        )[:, 0]
    return gains


def labels_from_gains(gains: np.ndarray) -> np.ndarray:
    """The assignment tail shared by both arms (argmax + outlier rule)."""
    n_objects = gains.shape[0]
    labels = np.full(n_objects, OUTLIER_LABEL, dtype=int)
    best_cluster = np.argmax(gains, axis=1)
    best_gain = gains[np.arange(n_objects), best_cluster]
    positive = best_gain > 0.0
    labels[positive] = best_cluster[positive]
    return labels


def run_iterations(
    objective: ObjectiveFunction,
    states: List[ClusterState],
    n_iterations: int,
    *,
    optimized: bool,
) -> Tuple[float, list]:
    """Drive ``n_iterations`` of the hot loop; return (seconds, trace)."""
    states = [state.copy() for state in states]
    trace = []
    start = time.perf_counter()
    for _ in range(n_iterations):
        if optimized:
            gains = compute_gains_matrix(objective, states)
            labels = labels_from_gains(gains)
            # Forced assignment reuses the gain matrix.
            outliers = np.flatnonzero(labels == OUTLIER_LABEL)
            if outliers.size:
                labels[outliers] = np.argmax(gains[outliers], axis=1)
        else:
            gains = naive_gains_matrix(objective, states)
            labels = labels_from_gains(gains)
            # Seed behaviour: the forced assignment recomputes every
            # cluster's gains from scratch.
            outliers = np.flatnonzero(labels == OUTLIER_LABEL)
            if outliers.size:
                redone = naive_gains_matrix(objective, states)[outliers]
                labels[outliers] = np.argmax(redone, axis=1)

        members = members_from_labels(labels, len(states))
        for state, cluster_members in zip(states, members):
            state.members = cluster_members
        for state in states:
            state.dimensions = select_dimensions(objective, state.members)
        phi_scores, overall = compute_phi_scores(objective, states)
        trace.append(
            (
                labels.copy(),
                [state.dimensions.copy() for state in states],
                float(overall),
            )
        )
        # Median replacement for every cluster (deterministic; the bad-
        # cluster medoid draw is outside the timed hot path).
        states = replace_representatives(objective, states, bad_cluster=-1,
                                         new_medoid=None, new_medoid_dimensions=None)
    return time.perf_counter() - start, trace


def traces_identical(first: list, second: list) -> bool:
    """Whether two iteration traces match bit for bit."""
    if len(first) != len(second):
        return False
    for (labels_a, dims_a, phi_a), (labels_b, dims_b, phi_b) in zip(first, second):
        if not np.array_equal(labels_a, labels_b):
            return False
        if len(dims_a) != len(dims_b):
            return False
        for a, b in zip(dims_a, dims_b):
            if not np.array_equal(a, b):
                return False
        if phi_a != phi_b:
            return False
    return True


def run_benchmark(args: argparse.Namespace) -> dict:
    dataset = build_dataset(args.n_objects, args.n_dimensions, args.n_clusters, args.seed)
    data = dataset.data

    # Separate evaluators so the naive arm cannot benefit from the cache.
    threshold_naive = make_threshold(m=0.5)
    naive_cache = ClusterStatsCache(data, max_entries=0)
    objective_naive = ObjectiveFunction(data, threshold_naive, stats_cache=naive_cache)

    threshold_fast = make_threshold(m=0.5)
    fast_cache = ClusterStatsCache(data)
    objective_fast = ObjectiveFunction(data, threshold_fast, stats_cache=fast_cache)

    states = initial_states(objective_fast, dataset.labels, args.n_clusters, args.seed)

    naive_times, fast_times = [], []
    identical = True
    for _ in range(args.repeats):
        fast_cache.clear()
        naive_cache.clear()
        naive_seconds, naive_trace = run_iterations(
            objective_naive, states, args.iterations, optimized=False
        )
        fast_seconds, fast_trace = run_iterations(
            objective_fast, states, args.iterations, optimized=True
        )
        identical = identical and traces_identical(naive_trace, fast_trace)
        naive_times.append(naive_seconds)
        fast_times.append(fast_seconds)

    naive_per_iter = min(naive_times) / args.iterations
    fast_per_iter = min(fast_times) / args.iterations
    # Snapshot the statistics-pass counters before the memory probe
    # below adds its own (untimed, uncounted) iterations.
    stat_passes_naive = naive_cache.n_stat_passes
    stat_passes_fast = fast_cache.n_stat_passes

    # Peak-memory probe (tracemalloc, reported info-only): one untimed
    # iteration per arm, after the timed runs so instrumentation
    # overhead never touches the timings.
    tracemalloc.start()
    run_iterations(objective_naive, states, 1, optimized=False)
    _, peak_naive = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    run_iterations(objective_fast, states, 1, optimized=True)
    _, peak_fast = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "config": {
            "n_objects": args.n_objects,
            "n_dimensions": args.n_dimensions,
            "n_clusters": args.n_clusters,
            "iterations": args.iterations,
            "repeats": args.repeats,
            "seed": args.seed,
            "smoke": bool(args.smoke),
        },
        "naive_seconds_per_iteration": naive_per_iter,
        "optimized_seconds_per_iteration": fast_per_iter,
        "speedup": naive_per_iter / fast_per_iter if fast_per_iter > 0 else float("inf"),
        "stat_passes_naive_last_repeat": stat_passes_naive,
        "stat_passes_optimized_last_repeat": stat_passes_fast,
        "stat_pass_reduction": (
            stat_passes_naive / max(stat_passes_fast, 1)
        ),
        "peak_naive_mib": peak_naive / (1024.0 ** 2),
        "peak_optimized_mib": peak_fast / (1024.0 ** 2),
        "results_identical": bool(identical),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-objects", type=int, default=5000)
    parser.add_argument("--n-dimensions", type=int, default=100)
    parser.add_argument("--n-clusters", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=5,
                        help="hot-loop iterations per timed run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per arm; the best run is reported")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--smoke", action="store_true",
                        help="small configuration for CI smoke runs")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here (default: print only; "
                             "committed baselines live in BENCH_smoke.json / "
                             "BENCH_reduced.json via repro-bench)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when the speedup falls below this")
    args = parser.parse_args(argv)
    for name in ("n_objects", "n_dimensions", "n_clusters", "iterations", "repeats"):
        if getattr(args, name) < 1:
            parser.error("--%s must be at least 1" % name.replace("_", "-"))
    if args.smoke:
        args.n_objects = min(args.n_objects, 800)
        args.n_dimensions = min(args.n_dimensions, 40)
        args.n_clusters = min(args.n_clusters, 5)
        args.iterations = min(args.iterations, 3)
        # repeats stay as requested: best-of-N damps scheduler noise on
        # shared CI runners, and each smoke repeat costs well under a
        # second.

    report = run_benchmark(args)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)

    print("SSPC hot-path micro-benchmark (n=%d, d=%d, k=%d)" % (
        args.n_objects, args.n_dimensions, args.n_clusters))
    print("  naive     : %.4f s/iteration (%d statistics passes)" % (
        report["naive_seconds_per_iteration"], report["stat_passes_naive_last_repeat"]))
    print("  optimized : %.4f s/iteration (%d statistics passes)" % (
        report["optimized_seconds_per_iteration"],
        report["stat_passes_optimized_last_repeat"]))
    print("  speedup   : %.2fx   stat-pass reduction: %.2fx" % (
        report["speedup"], report["stat_pass_reduction"]))
    print("  peak mem  : naive %.2f MiB, optimized %.2f MiB (per iteration)" % (
        report["peak_naive_mib"], report["peak_optimized_mib"]))
    print("  results identical: %s" % report["results_identical"])
    if args.output:
        print("  report written to %s" % args.output)

    if not report["results_identical"]:
        print("ERROR: naive and optimized paths diverged", file=sys.stderr)
        return 1
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print("ERROR: speedup %.2fx below required %.2fx" % (
            report["speedup"], args.min_speedup), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
