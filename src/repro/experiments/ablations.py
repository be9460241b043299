"""Ablation experiments A1-A3 (design choices called out in DESIGN.md).

The paper motivates three design decisions that these ablations isolate:

* **A1 — median vs. mean representative.**  The objective measures
  within-cluster dispersion around the *median* to stay robust against
  outliers (Section 3, design goal 3).  The ablation re-runs the outlier
  workload with the representative-replacement step using means instead
  of medians.
* **A2 — seed-group initialisation vs. random medoids.**  SSPC's
  grid-based seed groups avoid full-dimensional distance computations
  (Section 4.2).  The ablation replaces the initial states with random
  medoids using all dimensions.
* **A3 — m-scheme vs. p-scheme thresholds.**  Section 4.1 argues the
  chi-square scheme is preferable when the sampling distribution is
  known; Figure 3 notes both behave similarly even on non-Gaussian
  globals.  The ablation compares the two schemes on uniform and Gaussian
  global distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.assignment import ClusterState, assign_objects, members_from_labels
from repro.core.dimension_selection import select_dimensions
from repro.core.objective import ObjectiveFunction, column_median
from repro.core.representatives import compute_phi_scores
from repro.core.sspc import SSPC
from repro.core.thresholds import make_threshold
from repro.data.generator import make_projected_clusters
from repro.evaluation import adjusted_rand_index
from repro.utils.rng import RandomState, ensure_rng, random_seed_from


@dataclass
class AblationRow:
    """ARI of one ablation variant on one configuration."""

    ablation: str
    variant: str
    configuration: Dict[str, object]
    ari: float


def run_representative_ablation(
    *,
    n_objects: int = 600,
    n_dimensions: int = 100,
    n_clusters: int = 5,
    l_real: int = 10,
    outlier_fraction: float = 0.15,
    m: float = 0.5,
    n_repeats: int = 3,
    random_state: RandomState = None,
) -> List[AblationRow]:
    """A1: median-centred vs. mean-centred cluster representatives.

    Both variants share SSPC's initialisation and assignment; the ablated
    variant replaces representatives with per-dimension *means* instead
    of medians between iterations, which is what a k-means-style update
    would do.  On data with outliers the median variant is expected to
    hold its accuracy better.
    """
    rng = ensure_rng(random_state)
    rows: List[AblationRow] = []
    dataset = make_projected_clusters(
        n_objects=n_objects,
        n_dimensions=n_dimensions,
        n_clusters=n_clusters,
        avg_cluster_dimensionality=l_real,
        outlier_fraction=outlier_fraction,
        random_state=random_seed_from(rng),
    )
    for variant, use_median in (("median (paper)", True), ("mean (ablated)", False)):
        best_ari = 0.0
        best_objective = -np.inf
        for _ in range(n_repeats):
            ari, objective = _run_sspc_with_center(
                dataset.data,
                dataset.labels,
                n_clusters=n_clusters,
                m=m,
                use_median=use_median,
                random_state=random_seed_from(rng),
            )
            if objective > best_objective:
                best_objective = objective
                best_ari = ari
        rows.append(
            AblationRow(
                ablation="representative",
                variant=variant,
                configuration={"outlier_fraction": outlier_fraction},
                ari=best_ari,
            )
        )
    return rows


def _run_sspc_with_center(
    data: np.ndarray,
    true_labels: np.ndarray,
    *,
    n_clusters: int,
    m: float,
    use_median: bool,
    random_state: RandomState,
    max_iterations: int = 15,
) -> tuple:
    """Simplified SSPC loop with a switchable centre statistic.

    Uses the real SSPC for initialisation (one fit with few iterations to
    obtain seed-group-based starting states), then iterates assignment /
    SelectDim / representative replacement with either the median or the
    mean as the replacement representative.
    """
    rng = ensure_rng(random_state)
    model = SSPC(n_clusters=n_clusters, m=m, max_iterations=1, patience=1, random_state=rng)
    model.fit(data)
    objective = ObjectiveFunction(data, make_threshold(m=m))
    states = [
        ClusterState(
            representative=cluster.representative.copy()
            if cluster.representative is not None
            else data[rng.integers(data.shape[0])].copy(),
            dimensions=cluster.dimensions.copy(),
            members=np.empty(0, dtype=int),
            size_hint=max(cluster.size, 2),
        )
        for cluster in model.result_.clusters
    ]
    best_objective = -np.inf
    best_labels = model.labels_
    for _ in range(max_iterations):
        labels = assign_objects(objective, states)
        members = members_from_labels(labels, n_clusters)
        for state, cluster_members in zip(states, members):
            state.members = cluster_members
            state.dimensions = select_dimensions(objective, cluster_members)
        _, overall = compute_phi_scores(objective, states)
        if overall > best_objective:
            best_objective = overall
            best_labels = labels
        for state in states:
            if state.members.size == 0:
                continue
            block = data[state.members]
            state.representative = column_median(block) if use_median else block.mean(axis=0)
            state.size_hint = max(state.members.size, 2)
            state.members = np.empty(0, dtype=int)
    return adjusted_rand_index(true_labels, best_labels), best_objective


def run_initialisation_ablation(
    *,
    n_objects: int = 400,
    n_dimensions: int = 200,
    n_clusters: int = 4,
    l_real: int = 8,
    m: float = 0.5,
    n_repeats: int = 3,
    random_state: RandomState = None,
) -> List[AblationRow]:
    """A2: grid-based seed groups vs. random full-space medoids.

    The ablated variant starts from random medoids with *all* dimensions
    selected (the situation SSPC's initialisation is designed to avoid);
    the paper variant is plain SSPC.  Low cluster dimensionality makes
    the difference visible.
    """
    rng = ensure_rng(random_state)
    dataset = make_projected_clusters(
        n_objects=n_objects,
        n_dimensions=n_dimensions,
        n_clusters=n_clusters,
        avg_cluster_dimensionality=l_real,
        random_state=random_seed_from(rng),
    )
    rows: List[AblationRow] = []

    best_ari = 0.0
    best_objective = -np.inf
    for _ in range(n_repeats):
        model = SSPC(n_clusters=n_clusters, m=m, random_state=random_seed_from(rng)).fit(dataset.data)
        if model.objective_ > best_objective:
            best_objective = model.objective_
            best_ari = adjusted_rand_index(dataset.labels, model.labels_)
    rows.append(
        AblationRow(
            ablation="initialisation",
            variant="seed groups (paper)",
            configuration={"l_real": l_real},
            ari=best_ari,
        )
    )

    best_ari = 0.0
    best_objective = -np.inf
    for _ in range(n_repeats):
        ari, objective = _run_random_init_sspc(
            dataset.data, dataset.labels, n_clusters=n_clusters, m=m, random_state=random_seed_from(rng)
        )
        if objective > best_objective:
            best_objective = objective
            best_ari = ari
    rows.append(
        AblationRow(
            ablation="initialisation",
            variant="random medoids (ablated)",
            configuration={"l_real": l_real},
            ari=best_ari,
        )
    )
    return rows


def _run_random_init_sspc(
    data: np.ndarray,
    true_labels: np.ndarray,
    *,
    n_clusters: int,
    m: float,
    random_state: RandomState,
    max_iterations: int = 15,
) -> tuple:
    """SSPC-style loop initialised with random medoids and all dimensions."""
    rng = ensure_rng(random_state)
    objective = ObjectiveFunction(data, make_threshold(m=m))
    medoids = rng.choice(data.shape[0], size=n_clusters, replace=False)
    states = [
        ClusterState(
            representative=data[int(medoid)].copy(),
            dimensions=np.arange(data.shape[1]),
            members=np.empty(0, dtype=int),
            size_hint=max(data.shape[0] // n_clusters, 2),
        )
        for medoid in medoids
    ]
    best_objective = -np.inf
    best_labels = np.full(data.shape[0], -1, dtype=int)
    for _ in range(max_iterations):
        labels = assign_objects(objective, states)
        members = members_from_labels(labels, n_clusters)
        for state, cluster_members in zip(states, members):
            state.members = cluster_members
            state.dimensions = select_dimensions(objective, cluster_members)
        _, overall = compute_phi_scores(objective, states)
        if overall > best_objective:
            best_objective = overall
            best_labels = labels
        for state in states:
            if state.members.size:
                state.representative = column_median(data[state.members])
                state.size_hint = max(state.members.size, 2)
            state.members = np.empty(0, dtype=int)
    return adjusted_rand_index(true_labels, best_labels), best_objective


def run_threshold_scheme_ablation(
    *,
    n_objects: int = 600,
    n_dimensions: int = 100,
    n_clusters: int = 5,
    l_real: int = 10,
    m: float = 0.5,
    p: float = 0.01,
    n_repeats: int = 3,
    random_state: RandomState = None,
) -> List[AblationRow]:
    """A3: m-scheme vs. p-scheme under uniform and Gaussian global populations."""
    rng = ensure_rng(random_state)
    rows: List[AblationRow] = []
    for distribution in ("uniform", "gaussian"):
        dataset = make_projected_clusters(
            n_objects=n_objects,
            n_dimensions=n_dimensions,
            n_clusters=n_clusters,
            avg_cluster_dimensionality=l_real,
            global_distribution=distribution,
            random_state=random_seed_from(rng),
        )
        for variant, kwargs in (("m-scheme", {"m": m}), ("p-scheme", {"p": p})):
            best_ari = 0.0
            best_objective = -np.inf
            for _ in range(n_repeats):
                model = SSPC(
                    n_clusters=n_clusters, random_state=random_seed_from(rng), **kwargs
                ).fit(dataset.data)
                if model.objective_ > best_objective:
                    best_objective = model.objective_
                    best_ari = adjusted_rand_index(dataset.labels, model.labels_)
            rows.append(
                AblationRow(
                    ablation="threshold scheme",
                    variant=variant,
                    configuration={"global_distribution": distribution},
                    ari=best_ari,
                )
            )
    return rows


def format_ablation_table(rows: List[AblationRow]) -> str:
    """Simple aligned table for the ablation benches."""
    lines = ["%-20s %-26s %-32s %8s" % ("ablation", "variant", "configuration", "ARI")]
    for row in rows:
        config = ", ".join("%s=%s" % (k, v) for k, v in row.configuration.items())
        lines.append("%-20s %-26s %-32s %8.3f" % (row.ablation, row.variant, config, row.ari))
    return "\n".join(lines)
