"""Shared infrastructure for the experiment runners.

The paper's evaluation protocol (Section 5) repeats every experiment ten
times and reports only the run with the best *algorithm-specific*
objective score; clustering quality is then measured with the Adjusted
Rand Index against the known real clusters, after removing any labeled
objects from the produced clusters.  :func:`run_best_of` implements that
protocol for any estimator following the shared ``fit`` / ``result_``
interface.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.executor import SerialExecutor
from repro.core.model import ClusteringResult
from repro.core.sspc import SSPC
from repro.baselines import CLARANS, HARP, PROCLUS
from repro.evaluation import adjusted_rand_index
from repro.semisupervision.knowledge import Knowledge
from repro.utils.rng import RandomState, spawn_rngs


@dataclass
class AlgorithmSpec:
    """A named algorithm factory used by the comparison experiments.

    Attributes
    ----------
    name:
        Display name used in result tables (``"SSPC(m=0.5)"`` etc.).
    factory:
        Callable ``(random_state) -> estimator`` building a fresh
        estimator for one run.
    supports_knowledge:
        Whether the estimator's ``fit`` accepts a knowledge argument.
    """

    name: str
    factory: Callable[[np.random.Generator], object]
    supports_knowledge: bool = False


@dataclass
class ExperimentResult:
    """One cell of a results table: algorithm x configuration."""

    algorithm: str
    configuration: Dict[str, object]
    ari: float
    objective: float
    runtime_seconds: float
    n_outliers: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


def evaluate_result(
    result: ClusteringResult,
    true_labels: Sequence[int],
    *,
    knowledge: Optional[Knowledge] = None,
) -> float:
    """ARI of a clustering result, with labeled objects stripped first.

    Section 5 of the paper removes labeled objects from the produced
    clusters before computing ARI so the reported gain is not simply the
    pinned inputs.
    """
    if knowledge is not None and not knowledge.objects.is_empty():
        result = result.without_objects(knowledge.labeled_object_indices())
    return adjusted_rand_index(true_labels, result.labels())


def run_best_of(
    spec: AlgorithmSpec,
    data: np.ndarray,
    true_labels: Sequence[int],
    *,
    n_repeats: int = 10,
    knowledge: Optional[Knowledge] = None,
    random_state: RandomState = None,
    configuration: Optional[Dict[str, object]] = None,
) -> ExperimentResult:
    """Run an algorithm ``n_repeats`` times and keep the best-objective run.

    Parameters
    ----------
    spec:
        The algorithm to run.
    data:
        The dataset.
    true_labels:
        Ground-truth membership labels used for ARI.
    n_repeats:
        Number of repeated runs (the paper uses 10).
    knowledge:
        Optional knowledge passed to knowledge-aware algorithms; ignored
        (and never required) by the unsupervised baselines.
    random_state:
        Seed controlling the independent per-run streams.
    configuration:
        Echoed into the returned :class:`ExperimentResult`.

    Returns
    -------
    ExperimentResult
        ARI / objective / runtime of the best-objective run (runtime is
        the *total* over all repeats, matching the paper's Figure 8
        convention of reporting 10-run totals).
    """
    rngs = spawn_rngs(random_state, n_repeats)

    def run_one(rng) -> Tuple[ClusteringResult, float]:
        estimator = spec.factory(rng)
        started = time.perf_counter()
        if spec.supports_knowledge and knowledge is not None:
            estimator.fit(data, knowledge)
        else:
            estimator.fit(data)
        return estimator.result_, time.perf_counter() - started

    outcomes = SerialExecutor().map(run_one, rngs)

    best_objective = -math.inf
    best_ari = 0.0
    best_outliers = 0
    total_runtime = 0.0
    for result, runtime in outcomes:
        total_runtime += runtime
        objective = result.objective
        if not np.isfinite(objective):
            # Algorithms without a comparable objective (HARP) fall back to
            # "last run wins", i.e. every run is treated as equally good and
            # the best ARI across runs is reported.
            objective = -math.inf
            ari = evaluate_result(result, true_labels, knowledge=knowledge)
            if ari > best_ari or best_objective == -math.inf:
                best_ari = max(best_ari, ari)
                best_outliers = result.n_outliers
            continue
        if objective > best_objective:
            best_objective = objective
            best_ari = evaluate_result(result, true_labels, knowledge=knowledge)
            best_outliers = result.n_outliers
    return ExperimentResult(
        algorithm=spec.name,
        configuration=dict(configuration or {}),
        ari=float(best_ari),
        objective=float(best_objective),
        runtime_seconds=float(total_runtime),
        n_outliers=int(best_outliers),
    )


def default_algorithms(
    n_clusters: int,
    *,
    true_avg_dimensionality: float,
    sspc_m: float = 0.5,
    sspc_p: float = 0.01,
    include_clarans: bool = True,
    include_harp: bool = True,
    harp_max_objects: Optional[int] = None,
) -> List[AlgorithmSpec]:
    """The algorithm line-up of the paper's comparison experiments.

    Parameters
    ----------
    n_clusters:
        Number of clusters requested from every algorithm.
    true_avg_dimensionality:
        The correct ``l`` value supplied to PROCLUS (the paper gives
        PROCLUS the benefit of the right parameter in Figures 5-7).
    sspc_m, sspc_p:
        Threshold parameters for the two SSPC variants.
    include_clarans, include_harp:
        Drop the slower baselines for reduced-size benchmark runs.
    harp_max_objects:
        Unused placeholder kept for API stability (HARP handles the
        paper-scale datasets directly).
    """
    specs: List[AlgorithmSpec] = [
        AlgorithmSpec(
            name="SSPC(m=%.2g)" % sspc_m,
            factory=lambda rng, m=sspc_m: SSPC(n_clusters=n_clusters, m=m, random_state=rng),
            supports_knowledge=True,
        ),
        AlgorithmSpec(
            name="SSPC(p=%.2g)" % sspc_p,
            factory=lambda rng, p=sspc_p: SSPC(n_clusters=n_clusters, p=p, random_state=rng),
            supports_knowledge=True,
        ),
        AlgorithmSpec(
            name="PROCLUS(l=%g)" % true_avg_dimensionality,
            factory=lambda rng: PROCLUS(
                n_clusters=n_clusters,
                avg_dimensions=true_avg_dimensionality,
                random_state=rng,
            ),
        ),
    ]
    if include_harp:
        specs.append(
            AlgorithmSpec(
                name="HARP",
                factory=lambda rng: HARP(n_clusters=n_clusters, random_state=rng),
            )
        )
    if include_clarans:
        specs.append(
            AlgorithmSpec(
                name="CLARANS",
                factory=lambda rng: CLARANS(
                    n_clusters=n_clusters, max_neighbors=200, random_state=rng
                ),
            )
        )
    return specs


def format_series_table(
    rows: Sequence[ExperimentResult],
    *,
    x_key: str,
    value: str = "ari",
    title: str = "",
) -> str:
    """Format results as a figure-style table (algorithms x sweep values).

    Parameters
    ----------
    rows:
        Experiment results; each must carry ``x_key`` in its
        configuration.
    x_key:
        Configuration key used as the x-axis (e.g. ``"l_real"``).
    value:
        Attribute plotted on the y-axis (``"ari"``, ``"runtime_seconds"``
        ...).
    title:
        Optional heading.
    """
    x_values = sorted({row.configuration.get(x_key) for row in rows}, key=lambda v: (v is None, v))
    algorithms = []
    for row in rows:
        if row.algorithm not in algorithms:
            algorithms.append(row.algorithm)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = ["%-18s" % x_key] + ["%12s" % algorithm for algorithm in algorithms]
    lines.append(" ".join(header))
    for x_value in x_values:
        cells = ["%-18s" % str(x_value)]
        for algorithm in algorithms:
            match = [
                row
                for row in rows
                if row.algorithm == algorithm and row.configuration.get(x_key) == x_value
            ]
            if match:
                cells.append("%12.3f" % getattr(match[0], value))
            else:
                cells.append("%12s" % "-")
        lines.append(" ".join(cells))
    return "\n".join(lines)
