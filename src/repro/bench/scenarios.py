"""The built-in scenario catalogue: every figure and perf benchmark as data.

Each registration declares the scenario's identity (figure reference,
shard group), its ``smoke`` / ``reduced`` / ``paper`` configurations, a
*plan* that fans the configuration out into independently seeded tasks
(sweep points, categories, axes ...), the *execute* function for one
task and the *aggregate* extractor that folds the task payloads back
into figure-level metrics and a printable table.

Seeding: every plan derives one integer seed per task from the
configuration's root seed via :func:`repro.utils.rng.spawn_rngs`, so a
task's result is bit-identical no matter which worker executes it —
this is what makes ``--workers N`` equal to ``--workers 1``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.bench import registry
from repro.bench.chaos import (
    PAPER_CONFIG as _CHAOS_PAPER,
    REDUCED_CONFIG as _CHAOS_REDUCED,
    SMOKE_CONFIG as _CHAOS_SMOKE,
    chaos_aggregate,
    chaos_execute,
    chaos_plan,
)
from repro.bench.scenario import MetricSpec, Scenario, TaskSpec
from repro.bench.perf_hotpath import run_benchmark as run_hotpath_benchmark
from repro.bench.perf_obs import run_benchmark as run_obs_benchmark
from repro.bench.perf_serving import run_benchmark as run_serving_benchmark
from repro.bench.perf_serving_load import run_benchmark as run_serving_load_benchmark
from repro.bench.perf_stream import run_benchmark as run_stream_benchmark
from repro.data.generator import make_projected_clusters
from repro.data.multigroup import make_multigroup_dataset
from repro.experiments.ablations import (
    AblationRow,
    format_ablation_table,
    run_initialisation_ablation,
    run_representative_ablation,
    run_threshold_scheme_ablation,
)
from repro.experiments.harness import ExperimentResult, format_series_table
from repro.experiments.knowledge_analysis import KnowledgeAnalysisResult, run_figure1, run_figure2
from repro.experiments.knowledge_input import run_coverage_experiment, run_input_size_experiment
from repro.experiments.multiple_groupings import (
    MultiGroupingRow,
    format_multigrouping_table,
    run_multiple_groupings,
)
from repro.experiments.outlier_immunity import run_outlier_immunity
from repro.experiments.parameter_sensitivity import run_parameter_sensitivity
from repro.experiments.raw_accuracy import run_raw_accuracy
from repro.experiments.scalability import (
    ScalabilityRow,
    format_scalability_table,
    linear_fit_quality,
    run_scalability,
)
from repro.utils.rng import random_seed_from, spawn_rngs


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _task_seeds(root_seed: int, count: int) -> List[int]:
    """One deterministic, independent integer seed per task."""
    return [random_seed_from(rng) for rng in spawn_rngs(int(root_seed), count)]


def _result_to_dict(row: ExperimentResult) -> Dict[str, object]:
    return {
        "algorithm": row.algorithm,
        "configuration": dict(row.configuration),
        "ari": float(row.ari),
        "objective": float(row.objective),
        "runtime_seconds": float(row.runtime_seconds),
        "n_outliers": int(row.n_outliers),
        "extra": {key: float(value) for key, value in row.extra.items()},
    }


def _result_from_dict(payload: Mapping[str, object]) -> ExperimentResult:
    return ExperimentResult(
        algorithm=str(payload["algorithm"]),
        configuration=dict(payload["configuration"]),
        ari=float(payload["ari"]),
        objective=float(payload["objective"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        n_outliers=int(payload["n_outliers"]),
        extra=dict(payload.get("extra", {})),
    )


def _collect_rows(payloads: Sequence[Mapping[str, object]]) -> List[ExperimentResult]:
    rows: List[ExperimentResult] = []
    for payload in payloads:
        rows.extend(_result_from_dict(entry) for entry in payload["rows"])
    return rows


def _series(rows: Sequence[ExperimentResult], prefix: str, x_key: str) -> Dict[str, float]:
    return {
        str(row.configuration[x_key]): row.ari
        for row in rows
        if row.algorithm.startswith(prefix)
    }


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else float("nan")


# ---------------------------------------------------------------------------
# Figures 1-2: analytical knowledge-requirement curves
# ---------------------------------------------------------------------------


def _plan_knowledge_analysis(config: Mapping[str, object]) -> List[TaskSpec]:
    fractions = list(config["relevant_fractions"])
    tasks = []
    for fraction in fractions:
        params = {key: value for key, value in config.items() if key != "relevant_fractions"}
        params["fraction"] = float(fraction)
        tasks.append(TaskSpec(name="frac-%03d" % int(round(fraction * 1000)), params=params))
    return tasks


def _execute_figure1(params: Mapping[str, object]) -> Dict[str, object]:
    result = run_figure1(
        input_sizes=list(params["input_sizes"]),
        relevant_fractions=(float(params["fraction"]),),
        n_dimensions=int(params["n_dimensions"]),
        p=float(params["p"]),
        grid_dimensions=int(params["grid_dimensions"]),
        n_grids=int(params["n_grids"]),
        variance_ratio=float(params["variance_ratio"]),
    )
    return {
        "fraction": float(params["fraction"]),
        "input_sizes": list(result.input_sizes),
        "probabilities": [float(value) for value in result.probabilities[0]],
    }


def _execute_figure2(params: Mapping[str, object]) -> Dict[str, object]:
    result = run_figure2(
        input_sizes=list(params["input_sizes"]),
        relevant_fractions=(float(params["fraction"]),),
        n_dimensions=int(params["n_dimensions"]),
        n_clusters=int(params["n_clusters"]),
        grid_dimensions=int(params["grid_dimensions"]),
        n_grids=int(params["n_grids"]),
    )
    return {
        "fraction": float(params["fraction"]),
        "input_sizes": list(result.input_sizes),
        "probabilities": [float(value) for value in result.probabilities[0]],
        "n_dimensions": int(params["n_dimensions"]),
    }


def _knowledge_curves(payloads: Sequence[Mapping[str, object]]):
    ordered = sorted(payloads, key=lambda payload: payload["fraction"])
    input_sizes = list(ordered[0]["input_sizes"])
    fractions = [payload["fraction"] for payload in ordered]
    matrix = np.array([payload["probabilities"] for payload in ordered])
    table = KnowledgeAnalysisResult(
        input_sizes=input_sizes,
        relevant_fractions=fractions,
        probabilities=matrix,
    ).as_table()
    curves = {
        "%g" % fraction: [float(value) for value in row]
        for fraction, row in zip(fractions, matrix)
    }
    return input_sizes, fractions, matrix, table, curves


def _probability_at(input_sizes, fractions, matrix, fraction: float, size: int) -> float:
    return float(matrix[fractions.index(fraction), input_sizes.index(size)])


def _aggregate_figure1(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    input_sizes, fractions, matrix, table, curves = _knowledge_curves(payloads)
    monotonic = all(
        all(b >= a - 1e-9 for a, b in zip(row, row[1:])) for row in matrix
    )
    return {
        "metrics": {
            "prob_size5_frac5": _probability_at(input_sizes, fractions, matrix, 0.05, 5),
            "prob_size5_frac1": _probability_at(input_sizes, fractions, matrix, 0.01, 5),
            "monotonic": 1.0 if monotonic else 0.0,
            "mean_probability": float(matrix.mean()),
        },
        "table": table,
        "details": {"input_sizes": input_sizes, "curves": curves},
    }


def _aggregate_figure2(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    input_sizes, fractions, matrix, table, curves = _knowledge_curves(payloads)
    p_5_frac1 = _probability_at(input_sizes, fractions, matrix, 0.01, 5)
    p_5_frac10 = _probability_at(input_sizes, fractions, matrix, 0.10, 5)
    # Complementarity with Figure 1: at di/d = 1% and 3 labeled items,
    # labeled dimensions beat labeled objects (closed form, cheap).
    figure1 = run_figure1(
        input_sizes=[3],
        relevant_fractions=[0.01],
        n_dimensions=int(payloads[0]["n_dimensions"]),
    )
    p3_objects = float(figure1.probabilities[0, 0])
    p3_dimensions = _probability_at(input_sizes, fractions, matrix, 0.01, 3)
    return {
        "metrics": {
            "prob_size5_frac1": p_5_frac1,
            "low_dim_advantage": p_5_frac1 - p_5_frac10,
            "dims_beat_objects_at3": 1.0 if p3_dimensions > p3_objects else 0.0,
            "mean_probability": float(matrix.mean()),
        },
        "table": table,
        "details": {
            "input_sizes": input_sizes,
            "curves": curves,
            "figure1_frac1_size3": p3_objects,
        },
    }


# ---------------------------------------------------------------------------
# Figure 3: raw accuracy vs average cluster dimensionality
# ---------------------------------------------------------------------------


def _plan_figure3(config: Mapping[str, object]) -> List[TaskSpec]:
    dimensionalities = [int(value) for value in config["dimensionalities"]]
    seeds = _task_seeds(int(config["seed"]), len(dimensionalities))
    return [
        TaskSpec(
            name="l-%03d" % l_real,
            params={
                "l_real": l_real,
                "n_objects": int(config["n_objects"]),
                "n_dimensions": int(config["n_dimensions"]),
                "n_clusters": int(config["n_clusters"]),
                "n_repeats": int(config["n_repeats"]),
                "include_clarans": bool(config["include_clarans"]),
                "include_harp": bool(config["include_harp"]),
                "seed": seed,
            },
        )
        for l_real, seed in zip(dimensionalities, seeds)
    ]


def _execute_figure3(params: Mapping[str, object]) -> Dict[str, object]:
    rows = run_raw_accuracy(
        dimensionalities=(int(params["l_real"]),),
        n_objects=int(params["n_objects"]),
        n_dimensions=int(params["n_dimensions"]),
        n_clusters=int(params["n_clusters"]),
        n_repeats=int(params["n_repeats"]),
        include_clarans=bool(params["include_clarans"]),
        include_harp=bool(params["include_harp"]),
        random_state=int(params["seed"]),
    )
    return {"rows": [_result_to_dict(row) for row in rows]}


def _aggregate_figure3(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = sorted(_collect_rows(payloads), key=lambda row: row.configuration["l_real"])
    sspc_m = _series(rows, "SSPC(m", "l_real")
    clarans = _series(rows, "CLARANS", "l_real")
    l_values = sorted(sspc_m, key=float)
    metrics = {
        "sspc_m_mean_ari": _mean(sspc_m.values()),
        "sspc_p_mean_ari": _mean(_series(rows, "SSPC(p", "l_real").values()),
        "proclus_mean_ari": _mean(_series(rows, "PROCLUS", "l_real").values()),
        "sspc_lowest_l_ari": float(sspc_m[l_values[0]]),
        "sspc_highest_l_ari": float(sspc_m[l_values[-1]]),
    }
    if clarans:
        metrics["clarans_mean_ari"] = _mean(clarans.values())
        metrics["sspc_advantage_over_clarans"] = (
            metrics["sspc_m_mean_ari"] - metrics["clarans_mean_ari"]
        )
    series = {}
    for row in rows:
        series.setdefault(row.algorithm, {})[str(row.configuration["l_real"])] = float(row.ari)
    return {
        "metrics": metrics,
        "table": format_series_table(rows, x_key="l_real"),
        "details": {"series": series},
    }


# ---------------------------------------------------------------------------
# Figure 4: parameter sensitivity
# ---------------------------------------------------------------------------

_FIGURE4_FAMILIES = ("proclus_l", "sspc_m", "sspc_p")


def _plan_figure4(config: Mapping[str, object]) -> List[TaskSpec]:
    # All three sweeps share the same root seed, so the dataset (drawn
    # first inside the runner) is identical across the family tasks.
    return [
        TaskSpec(
            name="family-%s" % family,
            params={
                "family": family,
                "values": list(config["%s_values" % family]),
                "n_objects": int(config["n_objects"]),
                "n_dimensions": int(config["n_dimensions"]),
                "n_clusters": int(config["n_clusters"]),
                "l_real": int(config["l_real"]),
                "n_repeats": int(config["n_repeats"]),
                "seed": int(config["seed"]),
            },
        )
        for family in _FIGURE4_FAMILIES
    ]


def _execute_figure4(params: Mapping[str, object]) -> Dict[str, object]:
    family = str(params["family"])
    values = tuple(params["values"])
    rows = run_parameter_sensitivity(
        n_objects=int(params["n_objects"]),
        n_dimensions=int(params["n_dimensions"]),
        n_clusters=int(params["n_clusters"]),
        l_real=int(params["l_real"]),
        proclus_l_values=values if family == "proclus_l" else (),
        sspc_m_values=values if family == "sspc_m" else (),
        sspc_p_values=values if family == "sspc_p" else (),
        n_repeats=int(params["n_repeats"]),
        random_state=int(params["seed"]),
    )
    return {"rows": [_result_to_dict(row) for row in rows]}


def _aggregate_figure4(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = _collect_rows(payloads)
    by_algorithm: Dict[str, Dict[str, float]] = {}
    for row in rows:
        by_algorithm.setdefault(row.algorithm, {})[str(row.configuration["value"])] = float(row.ari)
    sspc_m = list(by_algorithm.get("SSPC(m)", {}).values())
    sspc_p = list(by_algorithm.get("SSPC(p)", {}).values())
    proclus = by_algorithm.get("PROCLUS", {})
    proclus_values = list(proclus.values())
    table_lines = ["%-10s %-10s %8s" % ("algorithm", "value", "ARI")]
    for row in rows:
        table_lines.append(
            "%-10s %-10s %8.3f" % (row.algorithm, str(row.configuration["value"]), row.ari)
        )
    return {
        "metrics": {
            "sspc_m_min_ari": float(min(sspc_m)),
            "sspc_p_min_ari": float(min(sspc_p)),
            "sspc_m_spread": float(max(sspc_m) - min(sspc_m)),
            "proclus_spread": float(max(proclus_values) - min(proclus_values)),
            "proclus_best_l": float(max(proclus, key=proclus.get)),
        },
        "table": "\n".join(table_lines),
        "details": {"series": by_algorithm},
    }


# ---------------------------------------------------------------------------
# Figures 5-6: accuracy with input knowledge
# ---------------------------------------------------------------------------


def _plan_knowledge_input(config: Mapping[str, object]) -> List[TaskSpec]:
    categories = list(config["categories"])
    seeds = _task_seeds(int(config["seed"]), len(categories))
    tasks = []
    for category, seed in zip(categories, seeds):
        params = {key: value for key, value in config.items() if key != "categories"}
        params["category"] = category
        params["seed"] = seed
        tasks.append(TaskSpec(name="category-%s" % category, params=params))
    return tasks


def _knowledge_input_dataset(params: Mapping[str, object]):
    return make_projected_clusters(
        n_objects=int(params["n_objects"]),
        n_dimensions=int(params["n_dimensions"]),
        n_clusters=int(params["n_clusters"]),
        avg_cluster_dimensionality=int(params["l_real"]),
        random_state=int(params["dataset_seed"]),
    )


def _execute_figure5(params: Mapping[str, object]) -> Dict[str, object]:
    rows = run_input_size_experiment(
        input_sizes=[int(value) for value in params["input_sizes"]],
        categories=(str(params["category"]),),
        dataset=_knowledge_input_dataset(params),
        n_knowledge_draws=int(params["n_knowledge_draws"]),
        random_state=int(params["seed"]),
    )
    return {"rows": [_result_to_dict(row) for row in rows]}


def _execute_figure6(params: Mapping[str, object]) -> Dict[str, object]:
    rows = run_coverage_experiment(
        coverages=[float(value) for value in params["coverages"]],
        categories=(str(params["category"]),),
        dataset=_knowledge_input_dataset(params),
        input_size=int(params["input_size"]),
        n_knowledge_draws=int(params["n_knowledge_draws"]),
        random_state=int(params["seed"]),
    )
    return {"rows": [_result_to_dict(row) for row in rows]}


def _knowledge_input_series(rows: Sequence[ExperimentResult], x_key: str):
    series: Dict[str, Dict[str, float]] = {}
    for row in rows:
        category = str(row.configuration["category"])
        series.setdefault(category, {})[str(row.configuration[x_key])] = float(row.ari)
    return series


def _knowledge_input_table(rows: Sequence[ExperimentResult], x_key: str) -> str:
    blocks = []
    for category in sorted({str(row.configuration["category"]) for row in rows}):
        subset = [row for row in rows if row.configuration["category"] == category]
        blocks.append("-- category: %s" % category)
        blocks.append(format_series_table(subset, x_key=x_key))
    return "\n".join(blocks)


def _aggregate_figure5(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = _collect_rows(payloads)
    series = _knowledge_input_series(rows, "input_size")
    gains = {}
    largest_aris = {}
    for category, curve in series.items():
        sizes = sorted(curve, key=float)
        gains[category] = curve[sizes[-1]] - curve[sizes[0]]
        largest_aris[category] = curve[sizes[-1]]
    return {
        "metrics": {
            "knowledge_gain_min": float(min(gains.values())),
            "dimensions_largest_ari": float(largest_aris.get("dimensions", float("nan"))),
            "both_largest_ari": float(largest_aris.get("both", float("nan"))),
        },
        "table": _knowledge_input_table(rows, "input_size"),
        "details": {"series": series},
    }


def _aggregate_figure6(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = _collect_rows(payloads)
    series = _knowledge_input_series(rows, "coverage")
    gains, recoveries, full_aris = [], [], []
    for curve in series.values():
        coverages = sorted(curve, key=float)
        none_ari, full_ari = curve[coverages[0]], curve[coverages[-1]]
        gains.append(full_ari - none_ari)
        full_aris.append(full_ari)
        partial = [c for c in coverages if 0.5 <= float(c) < 1.0]
        if partial:
            recoveries.append(
                (curve[partial[-1]] - none_ari) - 0.5 * (full_ari - none_ari)
            )
    metrics = {
        "coverage_gain_min": float(min(gains)),
        "full_coverage_ari_min": float(min(full_aris)),
    }
    if recoveries:
        metrics["partial_recovery_margin"] = float(min(recoveries))
    return {
        "metrics": metrics,
        "table": _knowledge_input_table(rows, "coverage"),
        "details": {"series": series},
    }


# ---------------------------------------------------------------------------
# Figure 7: multiple groupings
# ---------------------------------------------------------------------------


def _plan_figure7(config: Mapping[str, object]) -> List[TaskSpec]:
    return [TaskSpec(name="all", params=dict(config))]


def _execute_figure7(params: Mapping[str, object]) -> Dict[str, object]:
    dataset = make_multigroup_dataset(
        n_objects=int(params["n_objects"]),
        n_dimensions_per_grouping=int(params["n_dimensions_per_grouping"]),
        n_clusters=int(params["n_clusters"]),
        avg_cluster_dimensionality=int(params["l_real"]),
        random_state=int(params["dataset_seed"]),
    )
    rows = run_multiple_groupings(
        dataset=dataset,
        n_clusters=int(params["n_clusters"]),
        avg_cluster_dimensionality=int(params["l_real"]),
        input_size=int(params["input_size"]),
        include_harp=bool(params["include_harp"]),
        include_proclus=bool(params["include_proclus"]),
        n_repeats=int(params["n_repeats"]),
        random_state=int(params["seed"]),
    )
    return {
        "rows": [
            {
                "algorithm": row.algorithm,
                "guidance": row.guidance,
                "ari_grouping1": float(row.ari_grouping1),
                "ari_grouping2": float(row.ari_grouping2),
            }
            for row in rows
        ],
    }


def _aggregate_figure7(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = [
        MultiGroupingRow(
            algorithm=str(entry["algorithm"]),
            guidance=str(entry["guidance"]),
            ari_grouping1=float(entry["ari_grouping1"]),
            ari_grouping2=float(entry["ari_grouping2"]),
        )
        for payload in payloads
        for entry in payload["rows"]
    ]
    guided1 = [r for r in rows if r.algorithm == "SSPC" and r.guidance == "grouping 1"][0]
    guided2 = [r for r in rows if r.algorithm == "SSPC" and r.guidance == "grouping 2"][0]
    return {
        "metrics": {
            "guided1_margin": float(guided1.ari_grouping1 - guided1.ari_grouping2),
            "guided2_margin": float(guided2.ari_grouping2 - guided2.ari_grouping1),
            "guided1_target_ari": float(guided1.ari_grouping1),
            "guided2_target_ari": float(guided2.ari_grouping2),
        },
        "table": format_multigrouping_table(rows),
        "details": {
            "rows": [
                {
                    "algorithm": row.algorithm,
                    "guidance": row.guidance,
                    "ari_grouping1": row.ari_grouping1,
                    "ari_grouping2": row.ari_grouping2,
                }
                for row in rows
            ],
        },
    }


# ---------------------------------------------------------------------------
# Figure 8: scalability
# ---------------------------------------------------------------------------


def _plan_figure8(config: Mapping[str, object]) -> List[TaskSpec]:
    points = [("n_objects", int(size)) for size in config["object_counts"]]
    points += [("n_dimensions", int(size)) for size in config["dimension_counts"]]
    seeds = _task_seeds(int(config["seed"]), len(points))
    tasks = []
    for (axis, size), seed in zip(points, seeds):
        tasks.append(
            TaskSpec(
                name="%s-%05d" % (axis.replace("n_", ""), size),
                params={
                    "axis": axis,
                    "size": size,
                    "base_objects": int(config["base_objects"]),
                    "base_dimensions": int(config["base_dimensions"]),
                    "n_clusters": int(config["n_clusters"]),
                    "l_real": int(config["l_real"]),
                    "n_repeats": int(config["n_repeats"]),
                    "seed": seed,
                },
            )
        )
    return tasks


def _execute_figure8(params: Mapping[str, object]) -> Dict[str, object]:
    axis = str(params["axis"])
    rows = run_scalability(
        object_counts=(int(params["size"]),) if axis == "n_objects" else (),
        dimension_counts=(int(params["size"]),) if axis == "n_dimensions" else (),
        base_objects=int(params["base_objects"]),
        base_dimensions=int(params["base_dimensions"]),
        n_clusters=int(params["n_clusters"]),
        l_real=int(params["l_real"]),
        n_repeats=int(params["n_repeats"]),
        random_state=int(params["seed"]),
    )
    return {
        "rows": [
            {
                "algorithm": row.algorithm,
                "axis": row.axis,
                "size": int(row.size),
                "total_seconds": float(row.total_seconds),
                "n_repeats": int(row.n_repeats),
            }
            for row in rows
        ],
    }


def _aggregate_figure8(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = [
        ScalabilityRow(
            algorithm=str(entry["algorithm"]),
            axis=str(entry["axis"]),
            size=int(entry["size"]),
            total_seconds=float(entry["total_seconds"]),
            n_repeats=int(entry["n_repeats"]),
        )
        for payload in payloads
        for entry in payload["rows"]
    ]
    metrics: Dict[str, float] = {"total_seconds": float(sum(r.total_seconds for r in rows))}
    for axis in ("n_objects", "n_dimensions"):
        fit = linear_fit_quality(rows, "SSPC", axis)
        short = axis.replace("n_", "")
        metrics["sspc_%s_slope_positive" % short] = 1.0 if fit["slope"] > 0 else 0.0
        metrics["sspc_%s_r_squared" % short] = float(fit["r_squared"])
        sspc = sorted((r for r in rows if r.algorithm == "SSPC" and r.axis == axis),
                      key=lambda r: r.size)
        proclus = sorted((r for r in rows if r.algorithm == "PROCLUS" and r.axis == axis),
                         key=lambda r: r.size)
        metrics["sspc_vs_proclus_%s" % short] = float(
            sspc[-1].total_seconds / max(proclus[-1].total_seconds, 1e-3)
        )
    return {
        "metrics": metrics,
        "table": format_scalability_table(rows),
        "details": {},
    }


# ---------------------------------------------------------------------------
# Outlier immunity (Section 5.2)
# ---------------------------------------------------------------------------


def _plan_outliers(config: Mapping[str, object]) -> List[TaskSpec]:
    fractions = [float(value) for value in config["outlier_fractions"]]
    seeds = _task_seeds(int(config["seed"]), len(fractions))
    return [
        TaskSpec(
            name="fraction-%03d" % int(round(fraction * 100)),
            params={
                "outlier_fraction": fraction,
                "n_objects": int(config["n_objects"]),
                "n_dimensions": int(config["n_dimensions"]),
                "n_clusters": int(config["n_clusters"]),
                "l_real": int(config["l_real"]),
                "n_repeats": int(config["n_repeats"]),
                "seed": seed,
            },
        )
        for fraction, seed in zip(fractions, seeds)
    ]


def _execute_outliers(params: Mapping[str, object]) -> Dict[str, object]:
    rows = run_outlier_immunity(
        outlier_fractions=(float(params["outlier_fraction"]),),
        n_objects=int(params["n_objects"]),
        n_dimensions=int(params["n_dimensions"]),
        n_clusters=int(params["n_clusters"]),
        l_real=int(params["l_real"]),
        n_repeats=int(params["n_repeats"]),
        random_state=int(params["seed"]),
    )
    return {"rows": [_result_to_dict(row) for row in rows]}


def _aggregate_outliers(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = sorted(
        _collect_rows(payloads), key=lambda row: float(row.configuration["outlier_fraction"])
    )
    clean, dirty = rows[0], rows[-1]
    table_lines = [
        "%-18s %8s %14s %18s %18s"
        % ("outlier fraction", "ARI", "true outliers", "detected outliers", "outlier recall"),
    ]
    for row in rows:
        table_lines.append(
            "%-18s %8.3f %14d %18d %18.3f"
            % (
                row.configuration["outlier_fraction"],
                row.ari,
                int(row.extra["true_outliers"]),
                int(row.extra["detected_outliers"]),
                row.extra["outlier_recall"],
            )
        )
    return {
        "metrics": {
            "clean_ari": float(clean.ari),
            "dirty_ari": float(dirty.ari),
            "ari_drop": float(clean.ari - dirty.ari),
            "dirty_outlier_recall": float(dirty.extra["outlier_recall"]),
        },
        "table": "\n".join(table_lines),
        "details": {
            "by_fraction": {
                str(row.configuration["outlier_fraction"]): {
                    "ari": row.ari,
                    "extra": dict(row.extra),
                }
                for row in rows
            },
        },
    }


# ---------------------------------------------------------------------------
# Ablations A1-A3
# ---------------------------------------------------------------------------

_ABLATION_RUNNERS = {
    "representative": run_representative_ablation,
    "initialisation": run_initialisation_ablation,
    "threshold_scheme": run_threshold_scheme_ablation,
}


def _plan_ablations(config: Mapping[str, object]) -> List[TaskSpec]:
    return [
        TaskSpec(
            name="a%d-%s" % (index + 1, ablation),
            params={
                "ablation": ablation,
                "kwargs": dict(config[ablation]),
            },
        )
        for index, ablation in enumerate(("representative", "initialisation", "threshold_scheme"))
    ]


def _execute_ablations(params: Mapping[str, object]) -> Dict[str, object]:
    runner = _ABLATION_RUNNERS[str(params["ablation"])]
    rows = runner(**dict(params["kwargs"]))
    return {
        "rows": [
            {
                "ablation": row.ablation,
                "variant": row.variant,
                "configuration": dict(row.configuration),
                "ari": float(row.ari),
            }
            for row in rows
        ],
    }


def _aggregate_ablations(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    rows = [
        AblationRow(
            ablation=str(entry["ablation"]),
            variant=str(entry["variant"]),
            configuration=dict(entry["configuration"]),
            ari=float(entry["ari"]),
        )
        for payload in payloads
        for entry in payload["rows"]
    ]
    by_variant = {row.variant: row.ari for row in rows}
    threshold_aris = [row.ari for row in rows if row.ablation == "threshold scheme"]
    return {
        "metrics": {
            "representative_margin": float(
                by_variant["median (paper)"] - by_variant["mean (ablated)"]
            ),
            "initialisation_margin": float(
                by_variant["seed groups (paper)"] - by_variant["random medoids (ablated)"]
            ),
            "threshold_min_ari": float(min(threshold_aris)),
        },
        "table": format_ablation_table(rows),
        "details": {"by_variant": by_variant},
    }


# ---------------------------------------------------------------------------
# Perf: hot path + serving
# ---------------------------------------------------------------------------


#: Hard floor on batched serving throughput (points/sec) — the old CI
#: smoke gate's acceptance bar, far under any healthy measurement.
SERVING_MIN_POINTS_PER_SEC = 10_000


def _plan_single(config: Mapping[str, object]) -> List[TaskSpec]:
    return [TaskSpec(name="all", params=dict(config))]


def _aggregate_hotpath(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    report = dict(payloads[0])
    table = "\n".join(
        [
            "naive     : %.4f s/iteration (%d statistics passes)"
            % (report["naive_seconds_per_iteration"], report["stat_passes_naive_last_repeat"]),
            "optimized : %.4f s/iteration (%d statistics passes)"
            % (
                report["optimized_seconds_per_iteration"],
                report["stat_passes_optimized_last_repeat"],
            ),
            "speedup   : %.2fx   stat-pass reduction: %.2fx"
            % (report["speedup"], report["stat_pass_reduction"]),
            "peak mem  : naive %.2f MiB, optimized %.2f MiB"
            % (
                report.get("peak_naive_mib", float("nan")),
                report.get("peak_optimized_mib", float("nan")),
            ),
            "results identical: %s" % report["results_identical"],
        ]
    )
    return {
        "metrics": {
            "speedup": float(report["speedup"]),
            "stat_pass_reduction": float(report["stat_pass_reduction"]),
            "results_identical": 1.0 if report["results_identical"] else 0.0,
            "naive_seconds_per_iteration": float(report["naive_seconds_per_iteration"]),
            "optimized_seconds_per_iteration": float(report["optimized_seconds_per_iteration"]),
            "peak_naive_mib": float(report.get("peak_naive_mib", float("nan"))),
            "peak_optimized_mib": float(report.get("peak_optimized_mib", float("nan"))),
        },
        "table": table,
        "details": {"report": report},
    }


def _aggregate_serving(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    report = dict(payloads[0])
    table = "\n".join(
        [
            "batch inference   : %.0f points/s" % report["batch_points_per_sec"],
            "single-point path : %.0f points/s (batch speedup %.1fx)"
            % (report["single_points_per_sec"], report["batch_speedup_over_single"]),
            "artifact roundtrip: %.4f s (%.1f KiB)"
            % (report["artifact_roundtrip_seconds"], report["artifact_bytes"] / 1024.0),
            "predict peak mem  : %.2f MiB" % report.get("predict_peak_mib", float("nan")),
            "batch == single   : %s" % report["batch_equals_single"],
            "roundtrip identical: %s" % report["roundtrip_predictions_identical"],
        ]
    )
    return {
        "metrics": {
            "batch_speedup_over_single": float(report["batch_speedup_over_single"]),
            # Absolute 10k points/sec floor: ~40x under the measured
            # throughput, it catches catastrophic kernel regressions that
            # slow batch and single-point paths equally (invisible to the
            # speedup ratio) while staying immune to runner noise.
            "throughput_floor_ok": (
                1.0 if report["batch_points_per_sec"] >= SERVING_MIN_POINTS_PER_SEC else 0.0
            ),
            "batch_equals_single": 1.0 if report["batch_equals_single"] else 0.0,
            "roundtrip_predictions_identical": (
                1.0 if report["roundtrip_predictions_identical"] else 0.0
            ),
            "batch_points_per_sec": float(report["batch_points_per_sec"]),
            "artifact_roundtrip_seconds": float(report["artifact_roundtrip_seconds"]),
            "predict_peak_mib": float(report.get("predict_peak_mib", float("nan"))),
            "queries_marked_outlier": float(report["queries_marked_outlier"]),
        },
        "table": table,
        "details": {"report": report},
    }


def _aggregate_serving_load(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    report = dict(payloads[0])
    batcher = report.get("batcher", {})
    table = "\n".join(
        [
            "sequential floor : %.0f req/s" % report["sequential_points_per_sec"],
            "batched capacity : %.0f req/s (speedup %.2fx)"
            % (report["batched_points_per_sec"], report["batching_speedup"]),
            "open loop        : offered %.0f req/s, achieved %.0f req/s"
            % (report["offered_points_per_sec"], report["achieved_open_loop_pps"]),
            "latency          : p50 %.1f ms, p99 %.1f ms"
            % (report["p50_latency_ms"], report["p99_latency_ms"]),
            "batcher          : mean batch %.1f over %d flushes"
            % (batcher.get("mean_batch_size", 0.0), batcher.get("n_flushes", 0)),
            "bit-identical    : %s (%d labels)"
            % (report["labels_bit_identical"], report["n_labels_checked"]),
        ]
    )
    return {
        "metrics": {
            "labels_bit_identical": 1.0 if report["labels_bit_identical"] else 0.0,
            # The absolute claim rides the boolean floor (>= min_speedup
            # measured in-process, both phases equally contended); the
            # raw ratio is additionally tracked with a wide tolerance
            # for trend visibility on shared runners.
            "speedup_floor_ok": 1.0 if report["speedup_floor_ok"] else 0.0,
            "p99_within_budget": 1.0 if report["p99_within_budget"] else 0.0,
            "batching_speedup": float(report["batching_speedup"]),
            "sequential_points_per_sec": float(report["sequential_points_per_sec"]),
            "batched_points_per_sec": float(report["batched_points_per_sec"]),
            "p50_latency_ms": float(report["p50_latency_ms"]),
            "p99_latency_ms": float(report["p99_latency_ms"]),
            "mean_batch_size": float(batcher.get("mean_batch_size", 0.0)),
            "achieved_open_loop_pps": float(report["achieved_open_loop_pps"]),
        },
        "table": table,
        "details": {"report": report},
    }


def _aggregate_obs(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    report = dict(payloads[0])
    table = "\n".join(
        [
            "workload (disabled) : %.3f s" % report["disabled_seconds"],
            "workload (enabled)  : %.3f s (%+.1f%%, info only)"
            % (report["enabled_seconds"], report["overhead_enabled_pct"]),
            "hook crossings      : %d at %.1f ns disabled"
            % (report["n_hook_calls"], report["per_hook_disabled_ns"]),
            "telemetry records   : %d at %.0f ns each"
            % (report["n_telemetry_requests"], report["per_telemetry_record_ns"]),
            "disabled overhead   : %.4f%% (bound incl. telemetry; gate < 2%%)"
            % report["overhead_disabled_pct"],
            "bit identical       : %s" % report["enabled_bit_identical"],
            "subsystems spanned  : %s" % ", ".join(report["categories"]),
        ]
    )
    return {
        "metrics": {
            "overhead_disabled_ok": 1.0 if report["overhead_disabled_ok"] else 0.0,
            "enabled_bit_identical": 1.0 if report["enabled_bit_identical"] else 0.0,
            "subsystem_coverage_ok": 1.0 if report["subsystem_coverage_ok"] else 0.0,
            "overhead_disabled_pct": float(report["overhead_disabled_pct"]),
            "overhead_enabled_pct": float(report["overhead_enabled_pct"]),
            "n_hook_calls": float(report["n_hook_calls"]),
            "per_hook_disabled_ns": float(report["per_hook_disabled_ns"]),
            "n_telemetry_requests": float(report["n_telemetry_requests"]),
            "per_telemetry_record_ns": float(report["per_telemetry_record_ns"]),
            "telemetry_overhead_pct": float(report["telemetry_overhead_pct"]),
            "n_subsystems": float(len(report["categories"])),
        },
        "table": table,
        "details": {"report": report},
    }


def _aggregate_stream(payloads: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    report = dict(payloads[0])
    table = "\n".join(
        [
            "sustained throughput : %.0f points/s" % report["points_per_sec"],
            "pre-drift ARI        : %.3f" % report["pre_drift_ari"],
            "post-drift ARI       : %.3f (oracle %.3f, gap %.3f)"
            % (
                report["post_drift_ari"],
                report["oracle_post_ari"],
                report["recovery_gap_vs_oracle"],
            ),
            "amortized vs refit   : %.1fx cheaper per point" % (
                report["amortized_speedup_over_refit"]
            ),
            "adaptation           : %d spawned, %d retired, %d drift refreshes"
            % (report["n_spawned"], report["n_retired"], report["n_drift_refreshes"]),
            "drift-free control   : bit-identical = %s" % report["control_bit_identical"],
        ]
    )
    return {
        "metrics": {
            # The streaming layer must add zero arithmetic over the
            # serving primitive on a drift-free stream.
            "control_bit_identical": 1.0 if report["control_bit_identical"] else 0.0,
            "pre_drift_ari": float(report["pre_drift_ari"]),
            "post_drift_ari": float(report["post_drift_ari"]),
            "recovery_gap_vs_oracle": float(report["recovery_gap_vs_oracle"]),
            # Hard 10x floor on the amortized per-point advantage over a
            # stay-current-by-refitting oracle.  The ratio divides two
            # timings from the same process, so runner speed cancels to
            # first order and the floor is safe to gate absolutely.
            "speedup_floor_ok": 1.0 if report["speedup_floor_ok"] else 0.0,
            "amortized_speedup_over_refit": float(report["amortized_speedup_over_refit"]),
            "points_per_sec": float(report["points_per_sec"]),
            "stream_seconds": float(report["stream_seconds"]),
            "refit_seconds": float(report["refit_seconds"]),
            "n_spawned": float(report["n_spawned"]),
            "n_drift_refreshes": float(report["n_drift_refreshes"]),
            "oracle_post_ari": float(report["oracle_post_ari"]),
        },
        "table": table,
        "details": {"report": report},
    }


# ---------------------------------------------------------------------------
# registrations
# ---------------------------------------------------------------------------

_ANALYSIS_COMMON = {"p": 0.01, "grid_dimensions": 3, "n_grids": 20, "variance_ratio": 0.15}

registry.register(
    Scenario(
        scenario_id="figure1_knowledge_analysis",
        figure="Figure 1",
        title="P(all-relevant grid) vs labeled objects (analytical)",
        group="knowledge",
        scale_configs={
            "smoke": {
                "input_sizes": list(range(0, 7)),
                "relevant_fractions": [0.01, 0.05],
                "n_dimensions": 1500,
                **_ANALYSIS_COMMON,
            },
            "reduced": {
                "input_sizes": list(range(0, 21)),
                "relevant_fractions": [0.01, 0.02, 0.05, 0.10],
                "n_dimensions": 3000,
                **_ANALYSIS_COMMON,
            },
            "paper": {
                "input_sizes": list(range(0, 21)),
                "relevant_fractions": [0.01, 0.02, 0.05, 0.10],
                "n_dimensions": 3000,
                **_ANALYSIS_COMMON,
            },
        },
        plan=_plan_knowledge_analysis,
        execute=_execute_figure1,
        aggregate=_aggregate_figure1,
        metrics=(
            MetricSpec("prob_size5_frac5", "accuracy", "higher", 0.02),
            MetricSpec("prob_size5_frac1", "accuracy", "match", 0.02),
            MetricSpec("monotonic", "accuracy", "higher", 0.0),
            MetricSpec("mean_probability", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="figure2_knowledge_analysis",
        figure="Figure 2",
        title="P(exclusively-relevant grid) vs labeled dimensions (analytical)",
        group="knowledge",
        scale_configs={
            "smoke": {
                "input_sizes": list(range(0, 7)),
                "relevant_fractions": [0.01, 0.10],
                "n_dimensions": 1500,
                "n_clusters": 5,
                "grid_dimensions": 3,
                "n_grids": 20,
            },
            "reduced": {
                "input_sizes": list(range(0, 21)),
                "relevant_fractions": [0.01, 0.02, 0.05, 0.10],
                "n_dimensions": 3000,
                "n_clusters": 5,
                "grid_dimensions": 3,
                "n_grids": 20,
            },
            "paper": {
                "input_sizes": list(range(0, 21)),
                "relevant_fractions": [0.01, 0.02, 0.05, 0.10],
                "n_dimensions": 3000,
                "n_clusters": 5,
                "grid_dimensions": 3,
                "n_grids": 20,
            },
        },
        plan=_plan_knowledge_analysis,
        execute=_execute_figure2,
        aggregate=_aggregate_figure2,
        metrics=(
            MetricSpec("prob_size5_frac1", "accuracy", "higher", 0.02),
            MetricSpec("low_dim_advantage", "accuracy", "higher", 0.02),
            MetricSpec("dims_beat_objects_at3", "accuracy", "higher", 0.0),
            MetricSpec("mean_probability", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="figure3_raw_accuracy",
        figure="Figure 3",
        title="Best-of-repeats ARI vs average cluster dimensionality, no knowledge",
        group="accuracy",
        scale_configs={
            "smoke": {
                "dimensionalities": [5, 20],
                "n_objects": 160,
                "n_dimensions": 50,
                "n_clusters": 4,
                "n_repeats": 1,
                "include_clarans": True,
                "include_harp": True,
                "seed": 0,
            },
            "reduced": {
                "dimensionalities": [5, 10, 20, 40],
                "n_objects": 400,
                "n_dimensions": 100,
                "n_clusters": 5,
                "n_repeats": 2,
                "include_clarans": True,
                "include_harp": True,
                "seed": 0,
            },
            "paper": {
                "dimensionalities": [5, 10, 20, 30, 40],
                "n_objects": 1000,
                "n_dimensions": 100,
                "n_clusters": 5,
                "n_repeats": 10,
                "include_clarans": True,
                "include_harp": True,
                "seed": 0,
            },
        },
        plan=_plan_figure3,
        execute=_execute_figure3,
        aggregate=_aggregate_figure3,
        metrics=(
            MetricSpec("sspc_m_mean_ari", "accuracy", "higher", 0.15),
            MetricSpec("sspc_p_mean_ari", "accuracy", "higher", 0.15),
            MetricSpec("sspc_lowest_l_ari", "accuracy", "higher", 0.15),
            MetricSpec("sspc_advantage_over_clarans", "accuracy", "higher", 0.15),
            MetricSpec("proclus_mean_ari", "info"),
            MetricSpec("clarans_mean_ari", "info"),
            MetricSpec("sspc_highest_l_ari", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="figure4_parameter_sensitivity",
        figure="Figure 4",
        title="ARI under swept parameters: PROCLUS l vs SSPC m / p",
        group="accuracy",
        scale_configs={
            "smoke": {
                "n_objects": 160,
                "n_dimensions": 50,
                "n_clusters": 4,
                "l_real": 10,
                "proclus_l_values": [6, 10, 14],
                "sspc_m_values": [0.1, 0.5, 0.9],
                "sspc_p_values": [0.01, 0.1],
                "n_repeats": 1,
                "seed": 1,
            },
            "reduced": {
                "n_objects": 400,
                "n_dimensions": 100,
                "n_clusters": 5,
                "l_real": 10,
                "proclus_l_values": [2, 6, 10, 14, 18],
                "sspc_m_values": [0.1, 0.3, 0.5, 0.7, 0.9],
                "sspc_p_values": [0.001, 0.01, 0.1, 0.2],
                "n_repeats": 2,
                "seed": 1,
            },
            "paper": {
                "n_objects": 1000,
                "n_dimensions": 100,
                "n_clusters": 5,
                "l_real": 10,
                "proclus_l_values": [2, 4, 6, 8, 10, 12, 14, 16, 18],
                "sspc_m_values": [0.1, 0.3, 0.5, 0.7, 0.9],
                "sspc_p_values": [0.001, 0.01, 0.05, 0.1, 0.2],
                "n_repeats": 5,
                "seed": 1,
            },
        },
        plan=_plan_figure4,
        execute=_execute_figure4,
        aggregate=_aggregate_figure4,
        metrics=(
            MetricSpec("sspc_m_min_ari", "accuracy", "higher", 0.15),
            MetricSpec("sspc_p_min_ari", "accuracy", "higher", 0.15),
            MetricSpec("sspc_m_spread", "accuracy", "lower", 0.15),
            MetricSpec("proclus_spread", "info"),
            MetricSpec("proclus_best_l", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="figure5_input_size",
        figure="Figure 5",
        title="Median ARI vs input size at full coverage (1%-dimensional clusters)",
        group="knowledge",
        scale_configs={
            "smoke": {
                "categories": ["objects", "dimensions", "both"],
                "input_sizes": [0, 4],
                "n_objects": 120,
                "n_dimensions": 400,
                "n_clusters": 5,
                "l_real": 4,
                "n_knowledge_draws": 2,
                "dataset_seed": 10,
                "seed": 10,
            },
            "reduced": {
                "categories": ["objects", "dimensions", "both"],
                "input_sizes": [0, 2, 4, 6],
                "n_objects": 150,
                "n_dimensions": 800,
                "n_clusters": 5,
                "l_real": 8,
                "n_knowledge_draws": 3,
                "dataset_seed": 10,
                "seed": 10,
            },
            "paper": {
                "categories": ["objects", "dimensions", "both"],
                "input_sizes": [0, 2, 3, 4, 5, 6, 7, 8],
                "n_objects": 150,
                "n_dimensions": 3000,
                "n_clusters": 5,
                "l_real": 30,
                "n_knowledge_draws": 10,
                "dataset_seed": 10,
                "seed": 10,
            },
        },
        plan=_plan_knowledge_input,
        execute=_execute_figure5,
        aggregate=_aggregate_figure5,
        metrics=(
            MetricSpec("knowledge_gain_min", "accuracy", "higher", 0.2),
            MetricSpec("dimensions_largest_ari", "accuracy", "higher", 0.2),
            MetricSpec("both_largest_ari", "accuracy", "higher", 0.2),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="figure6_coverage",
        figure="Figure 6",
        title="Median ARI vs knowledge coverage at fixed input size",
        group="knowledge",
        scale_configs={
            "smoke": {
                "categories": ["both"],
                "coverages": [0.0, 0.6, 1.0],
                "input_size": 6,
                "n_objects": 120,
                "n_dimensions": 400,
                "n_clusters": 5,
                "l_real": 4,
                "n_knowledge_draws": 2,
                "dataset_seed": 11,
                "seed": 11,
            },
            "reduced": {
                "categories": ["dimensions", "both"],
                "coverages": [0.0, 0.4, 0.6, 1.0],
                "input_size": 6,
                "n_objects": 150,
                "n_dimensions": 800,
                "n_clusters": 5,
                "l_real": 8,
                "n_knowledge_draws": 3,
                "dataset_seed": 11,
                "seed": 11,
            },
            "paper": {
                "categories": ["objects", "dimensions", "both"],
                "coverages": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                "input_size": 6,
                "n_objects": 150,
                "n_dimensions": 3000,
                "n_clusters": 5,
                "l_real": 30,
                "n_knowledge_draws": 10,
                "dataset_seed": 11,
                "seed": 11,
            },
        },
        plan=_plan_knowledge_input,
        execute=_execute_figure6,
        aggregate=_aggregate_figure6,
        metrics=(
            MetricSpec("coverage_gain_min", "accuracy", "higher", 0.2),
            MetricSpec("full_coverage_ari_min", "accuracy", "higher", 0.2),
            MetricSpec("partial_recovery_margin", "accuracy", "higher", 0.2),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="figure7_multiple_groupings",
        figure="Figure 7",
        title="Two concatenated groupings: knowledge decides which one is found",
        group="accuracy",
        scale_configs={
            "smoke": {
                "n_objects": 100,
                "n_dimensions_per_grouping": 250,
                "n_clusters": 3,
                "l_real": 6,
                "input_size": 5,
                "include_harp": False,
                "include_proclus": True,
                "n_repeats": 1,
                "dataset_seed": 12,
                "seed": 12,
            },
            "reduced": {
                "n_objects": 120,
                "n_dimensions_per_grouping": 400,
                "n_clusters": 4,
                "l_real": 8,
                "input_size": 5,
                "include_harp": True,
                "include_proclus": True,
                "n_repeats": 1,
                "dataset_seed": 12,
                "seed": 12,
            },
            "paper": {
                "n_objects": 150,
                "n_dimensions_per_grouping": 1500,
                "n_clusters": 5,
                "l_real": 30,
                "input_size": 5,
                "include_harp": True,
                "include_proclus": True,
                "n_repeats": 3,
                "dataset_seed": 12,
                "seed": 12,
            },
        },
        plan=_plan_figure7,
        execute=_execute_figure7,
        aggregate=_aggregate_figure7,
        metrics=(
            MetricSpec("guided1_margin", "accuracy", "higher", 0.2),
            MetricSpec("guided2_margin", "accuracy", "higher", 0.2),
            MetricSpec("guided1_target_ari", "info"),
            MetricSpec("guided2_target_ari", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="figure8_scalability",
        figure="Figure 8",
        title="Total runtime of repeated runs vs n and d (SSPC vs PROCLUS)",
        group="perf",
        scale_configs={
            "smoke": {
                "object_counts": [150, 300, 450],
                "dimension_counts": [40, 120, 240],
                "base_objects": 150,
                "base_dimensions": 40,
                "n_clusters": 4,
                "l_real": 4,
                "n_repeats": 1,
                "seed": 13,
            },
            "reduced": {
                "object_counts": [200, 400, 800],
                "dimension_counts": [50, 100, 200],
                "base_objects": 300,
                "base_dimensions": 50,
                "n_clusters": 5,
                "l_real": 5,
                "n_repeats": 2,
                "seed": 13,
            },
            "paper": {
                "object_counts": [1000, 2000, 4000, 8000],
                "dimension_counts": [100, 200, 400, 800],
                "base_objects": 1000,
                "base_dimensions": 100,
                "n_clusters": 5,
                "l_real": 10,
                "n_repeats": 10,
                "seed": 13,
            },
        },
        plan=_plan_figure8,
        execute=_execute_figure8,
        aggregate=_aggregate_figure8,
        metrics=(
            # Wall-clock shapes are asserted at reduced/paper scale by the
            # pytest wrapper; in CI smoke gating they stay informational
            # because shared-runner noise dominates sub-second fits.
            MetricSpec("sspc_objects_slope_positive", "timing"),
            MetricSpec("sspc_dimensions_slope_positive", "timing"),
            MetricSpec("sspc_objects_r_squared", "timing"),
            MetricSpec("sspc_dimensions_r_squared", "timing"),
            MetricSpec("sspc_vs_proclus_objects", "timing"),
            MetricSpec("sspc_vs_proclus_dimensions", "timing"),
            MetricSpec("total_seconds", "timing"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="outlier_immunity",
        figure="Section 5.2",
        title="Accuracy and outlier detection vs injected outlier fraction",
        group="robustness",
        scale_configs={
            "smoke": {
                "outlier_fractions": [0.0, 0.25],
                "n_objects": 160,
                "n_dimensions": 50,
                "n_clusters": 4,
                "l_real": 8,
                "n_repeats": 1,
                "seed": 2,
            },
            "reduced": {
                "outlier_fractions": [0.0, 0.10, 0.25],
                "n_objects": 400,
                "n_dimensions": 100,
                "n_clusters": 5,
                "l_real": 10,
                "n_repeats": 2,
                "seed": 2,
            },
            "paper": {
                "outlier_fractions": [0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
                "n_objects": 1000,
                "n_dimensions": 100,
                "n_clusters": 5,
                "l_real": 10,
                "n_repeats": 10,
                "seed": 2,
            },
        },
        plan=_plan_outliers,
        execute=_execute_outliers,
        aggregate=_aggregate_outliers,
        metrics=(
            MetricSpec("clean_ari", "accuracy", "higher", 0.15),
            MetricSpec("dirty_ari", "accuracy", "higher", 0.2),
            MetricSpec("ari_drop", "accuracy", "lower", 0.25),
            MetricSpec("dirty_outlier_recall", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="ablations",
        figure="DESIGN A1-A3",
        title="Design-choice ablations: representatives, initialisation, thresholds",
        group="robustness",
        scale_configs={
            "smoke": {
                "representative": {"n_objects": 200, "n_dimensions": 40, "n_repeats": 1,
                                   "random_state": 20},
                "initialisation": {"n_objects": 150, "n_dimensions": 80, "l_real": 5,
                                   "n_repeats": 1, "random_state": 21},
                "threshold_scheme": {"n_objects": 200, "n_dimensions": 40, "n_repeats": 1,
                                     "random_state": 22},
            },
            "reduced": {
                "representative": {"n_objects": 400, "n_dimensions": 60, "n_repeats": 2,
                                   "random_state": 20},
                "initialisation": {"n_objects": 300, "n_dimensions": 150, "l_real": 6,
                                   "n_repeats": 2, "random_state": 21},
                "threshold_scheme": {"n_objects": 400, "n_dimensions": 60, "n_repeats": 2,
                                     "random_state": 22},
            },
            "paper": {
                "representative": {"n_objects": 1000, "n_dimensions": 100, "n_repeats": 5,
                                   "random_state": 20},
                "initialisation": {"n_objects": 600, "n_dimensions": 400, "l_real": 8,
                                   "n_repeats": 5, "random_state": 21},
                "threshold_scheme": {"n_objects": 1000, "n_dimensions": 100, "n_repeats": 5,
                                     "random_state": 22},
            },
        },
        plan=_plan_ablations,
        execute=_execute_ablations,
        aggregate=_aggregate_ablations,
        metrics=(
            MetricSpec("representative_margin", "accuracy", "higher", 0.15),
            MetricSpec("initialisation_margin", "accuracy", "higher", 0.15),
            MetricSpec("threshold_min_ari", "accuracy", "higher", 0.15),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="hotpath",
        figure="perf",
        title="SSPC hot-loop micro-benchmark: fused/cached vs naive (bit-identical)",
        group="perf",
        scale_configs={
            "smoke": {
                "n_objects": 600,
                "n_dimensions": 40,
                "n_clusters": 5,
                "iterations": 2,
                "repeats": 3,
                "seed": 13,
            },
            "reduced": {
                "n_objects": 2000,
                "n_dimensions": 60,
                "n_clusters": 8,
                "iterations": 3,
                "repeats": 3,
                "seed": 13,
            },
            "paper": {
                "n_objects": 5000,
                "n_dimensions": 100,
                "n_clusters": 10,
                "iterations": 5,
                "repeats": 3,
                "seed": 13,
            },
        },
        plan=_plan_single,
        execute=run_hotpath_benchmark,
        aggregate=_aggregate_hotpath,
        metrics=(
            MetricSpec("results_identical", "accuracy", "higher", 0.0),
            MetricSpec("stat_pass_reduction", "accuracy", "higher", 1e-6),
            # The baselines are measured serially; sharded CI runs this
            # scenario concurrently with its whole group, which swings
            # the naive arm's wall clock (and hence this ratio) several
            # fold — the tolerance absorbs that contention, the ratio
            # still catches the fused path degenerating to naive speed.
            MetricSpec("speedup", "throughput", "higher", 0.65),
            MetricSpec("naive_seconds_per_iteration", "timing"),
            MetricSpec("optimized_seconds_per_iteration", "timing"),
            MetricSpec("peak_naive_mib", "info"),
            MetricSpec("peak_optimized_mib", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="obs_overhead",
        figure="perf",
        title="Observability cost gate: <2% disabled overhead, bit-identical enabled",
        group="perf",
        scale_configs={
            "smoke": {
                "n_objects": 500,
                "n_dimensions": 24,
                "n_clusters": 4,
                "fit_iterations": 4,
                "stream_batches": 4,
                "batch_size": 100,
                "telemetry_requests": 400,
                "repeats": 3,
                "seed": 23,
            },
            "reduced": {
                "n_objects": 2000,
                "n_dimensions": 60,
                "n_clusters": 8,
                "fit_iterations": 8,
                "stream_batches": 8,
                "batch_size": 200,
                "telemetry_requests": 400,
                "repeats": 3,
                "seed": 23,
            },
            "paper": {
                "n_objects": 5000,
                "n_dimensions": 100,
                "n_clusters": 10,
                "fit_iterations": 10,
                "stream_batches": 12,
                "batch_size": 400,
                "telemetry_requests": 400,
                "repeats": 3,
                "seed": 23,
            },
        },
        plan=_plan_single,
        execute=run_obs_benchmark,
        aggregate=_aggregate_obs,
        metrics=(
            # The three gates are boolean (1.0 = pass) and exact.  The
            # hook term of the overhead bound comes from counted hook
            # crossings and sits orders of magnitude under the 2% bar;
            # the always-on telemetry term is a timed probe priced
            # against the small smoke workload and can cross the bar on
            # its own (ROADMAP.md records how often).
            MetricSpec("overhead_disabled_ok", "accuracy", "higher", 0.0),
            MetricSpec("enabled_bit_identical", "accuracy", "higher", 0.0),
            MetricSpec("subsystem_coverage_ok", "accuracy", "higher", 0.0),
            MetricSpec("overhead_disabled_pct", "info"),
            MetricSpec("overhead_enabled_pct", "info"),
            MetricSpec("n_hook_calls", "info"),
            MetricSpec("per_hook_disabled_ns", "info"),
            MetricSpec("n_telemetry_requests", "info"),
            MetricSpec("per_telemetry_record_ns", "info"),
            MetricSpec("telemetry_overhead_pct", "info"),
            MetricSpec("n_subsystems", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="stream",
        figure="streaming",
        title="Streaming: sustained throughput + post-drift recovery vs full-refit oracle",
        group="stream",
        scale_configs={
            "smoke": {
                "n_dimensions": 40,
                "n_clusters": 3,
                "cluster_dim": 6,
                "batch_size": 150,
                "n_batches": 30,
                "drift_batch": 10,
                "eval_batches": 6,
                "warmup": 900,
                "fit_iterations": 10,
                "oracle_window": 900,
                "oracle_refit_every": 4,
                "control_batches": 8,
                "seed": 17,
            },
            "reduced": {
                "n_dimensions": 60,
                "n_clusters": 4,
                "cluster_dim": 8,
                "batch_size": 250,
                "n_batches": 48,
                "drift_batch": 20,
                "eval_batches": 10,
                "warmup": 1500,
                "fit_iterations": 12,
                "oracle_window": 1500,
                "oracle_refit_every": 4,
                "control_batches": 10,
                "seed": 17,
            },
            "paper": {
                "n_dimensions": 100,
                "n_clusters": 6,
                "cluster_dim": 10,
                "batch_size": 500,
                "n_batches": 64,
                "drift_batch": 24,
                "eval_batches": 12,
                "warmup": 3000,
                "fit_iterations": 15,
                "oracle_window": 3000,
                "oracle_refit_every": 4,
                "control_batches": 12,
                "seed": 17,
            },
        },
        plan=_plan_single,
        execute=run_stream_benchmark,
        aggregate=_aggregate_stream,
        metrics=(
            MetricSpec("control_bit_identical", "accuracy", "higher", 0.0),
            MetricSpec("speedup_floor_ok", "accuracy", "higher", 0.0),
            MetricSpec("post_drift_ari", "accuracy", "higher", 0.2),
            MetricSpec("recovery_gap_vs_oracle", "accuracy", "lower", 0.25),
            MetricSpec("pre_drift_ari", "accuracy", "higher", 0.15),
            # Serial baseline vs contended CI shards: observed swings of
            # ~2.5x on shared runners; the hard 10x amortized floor
            # (speedup_floor_ok) carries the absolute claim.
            MetricSpec("points_per_sec", "throughput", "higher", 0.7),
            MetricSpec("amortized_speedup_over_refit", "throughput", "higher", 0.5),
            MetricSpec("stream_seconds", "timing"),
            MetricSpec("refit_seconds", "timing"),
            MetricSpec("n_spawned", "info"),
            MetricSpec("n_drift_refreshes", "info"),
            MetricSpec("oracle_post_ari", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="serving",
        figure="perf",
        title="Serving: batched out-of-sample inference + artifact round trip",
        group="perf",
        scale_configs={
            "smoke": {
                "n_objects": 800,
                "n_dimensions": 40,
                "n_clusters": 5,
                "n_queries": 20000,
                "n_single": 400,
                "repeats": 3,
                "fit_iterations": 3,
                "seed": 13,
            },
            "reduced": {
                "n_objects": 2000,
                "n_dimensions": 60,
                "n_clusters": 8,
                "n_queries": 50000,
                "n_single": 800,
                "repeats": 3,
                "fit_iterations": 6,
                "seed": 13,
            },
            "paper": {
                "n_objects": 5000,
                "n_dimensions": 100,
                "n_clusters": 10,
                "n_queries": 200000,
                "n_single": 2000,
                "repeats": 5,
                "fit_iterations": 10,
                "seed": 13,
            },
        },
        plan=_plan_single,
        execute=run_serving_benchmark,
        aggregate=_aggregate_serving,
        metrics=(
            MetricSpec("batch_equals_single", "accuracy", "higher", 0.0),
            MetricSpec("roundtrip_predictions_identical", "accuracy", "higher", 0.0),
            MetricSpec("throughput_floor_ok", "accuracy", "higher", 0.0),
            MetricSpec("batch_speedup_over_single", "throughput", "higher", 0.6),
            MetricSpec("batch_points_per_sec", "timing"),
            MetricSpec("artifact_roundtrip_seconds", "timing"),
            MetricSpec("predict_peak_mib", "info"),
            MetricSpec("queries_marked_outlier", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="serving_load",
        figure="perf",
        title="Serving load: micro-batched HTTP daemon vs sequential floor",
        group="serving_load",
        scale_configs={
            # d, k and the batcher knobs stay fixed at the acceptance
            # configuration across scales; only fit size, request
            # volumes and the worker count change.
            "smoke": {
                "n_objects": 800,
                "n_dimensions": 100,
                "n_clusters": 10,
                "fit_iterations": 3,
                "workers": 2,
                "max_batch": 128,
                "max_wait_us": 5000.0,
                "connections": 128,
                "warmup": 20,
                "n_sequential": 300,
                "n_capacity": 5000,
                "n_open": 3000,
                "open_utilization": 0.5,
                "min_speedup": 4.0,
                "p99_budget_ms": 300.0,
                "seed": 13,
            },
            "reduced": {
                "n_objects": 2000,
                "n_dimensions": 100,
                "n_clusters": 10,
                "fit_iterations": 6,
                "workers": 2,
                "max_batch": 128,
                "max_wait_us": 5000.0,
                "connections": 128,
                "warmup": 20,
                "n_sequential": 500,
                "n_capacity": 8000,
                "n_open": 6000,
                "open_utilization": 0.5,
                "min_speedup": 4.0,
                "p99_budget_ms": 300.0,
                "seed": 13,
            },
            "paper": {
                "n_objects": 5000,
                "n_dimensions": 100,
                "n_clusters": 10,
                "fit_iterations": 10,
                "workers": 2,
                "max_batch": 128,
                "max_wait_us": 5000.0,
                "connections": 128,
                "warmup": 50,
                "n_sequential": 1000,
                "n_capacity": 12000,
                "n_open": 8000,
                "open_utilization": 0.5,
                "min_speedup": 4.0,
                "p99_budget_ms": 300.0,
                "seed": 13,
            },
        },
        plan=_plan_single,
        execute=run_serving_load_benchmark,
        aggregate=_aggregate_serving_load,
        metrics=(
            MetricSpec("labels_bit_identical", "accuracy", "higher", 0.0),
            MetricSpec("speedup_floor_ok", "accuracy", "higher", 0.0),
            MetricSpec("p99_within_budget", "accuracy", "higher", 0.0),
            # Client and server share one event loop, so the ratio is
            # contention-robust; absolute req/s on shared runners is
            # not, hence the wide tolerance and info/timing kinds below.
            MetricSpec("batching_speedup", "throughput", "higher", 0.6),
            MetricSpec("sequential_points_per_sec", "timing"),
            MetricSpec("batched_points_per_sec", "timing"),
            MetricSpec("p50_latency_ms", "timing"),
            MetricSpec("p99_latency_ms", "timing"),
            MetricSpec("mean_batch_size", "info"),
            MetricSpec("achieved_open_loop_pps", "info"),
        ),
    )
)

registry.register(
    Scenario(
        scenario_id="chaos",
        figure="reliability",
        title="Chaos: checkpoint recovery, corruption detection, executor faults",
        group="chaos",
        scale_configs={
            "smoke": dict(_CHAOS_SMOKE),
            "reduced": dict(_CHAOS_REDUCED),
            "paper": dict(_CHAOS_PAPER),
        },
        plan=chaos_plan,
        execute=chaos_execute,
        aggregate=chaos_aggregate,
        metrics=(
            # Every gate is a deterministic count under seeded faults, so
            # absolute match/zero tolerances are safe on any machine.
            MetricSpec("recovered_bit_identical", "accuracy", "match", 0.0),
            MetricSpec("corruption_detection_rate", "accuracy", "match", 0.0),
            MetricSpec("silent_corruptions", "accuracy", "lower", 0.0),
            MetricSpec("executor_fault_tolerant", "accuracy", "match", 0.0),
            MetricSpec("n_faults_injected", "info"),
        ),
    )
)
