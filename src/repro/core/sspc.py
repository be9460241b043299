"""The SSPC estimator (Listing 2 of the paper).

SSPC (Semi-Supervised Projected Clustering) is a partitional,
k-medoid-style algorithm:

1. *Initialisation* — seed groups (potential medoids plus estimated
   relevant dimensions) are built for every cluster, using labeled
   objects / labeled dimensions where available
   (:mod:`repro.core.seed_groups`).
2. Each cluster draws a medoid from its seed group; the group's estimated
   dimensions become the cluster's selected dimensions.
3. Every object is assigned to the cluster whose objective score it
   improves the most (with the representative's projection standing in
   for the median), or to the outlier list
   (:mod:`repro.core.assignment`).
4. ``SelectDim`` re-determines the selected dimensions of each cluster
   and the overall objective ``phi`` is computed with the actual medians.
5. The best clustering seen so far is recorded (or restored).
6. A bad cluster is identified and given a brand-new medoid from its seed
   group; every other cluster's representative is replaced by its median
   (:mod:`repro.core.representatives`); members are cleared.
7. Steps 3-6 repeat until the best score has not improved for
   :data:`PATIENCE` consecutive iterations (or ``max_iterations`` is hit).

The public API follows the familiar estimator pattern: construct with the
parameters, call :meth:`SSPC.fit` with the data (and optional
:class:`~repro.semisupervision.knowledge.Knowledge`), then read
``result_``, ``labels_`` and friends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.assignment import ClusterState, assign_objects, members_from_labels
from repro.core.dimension_selection import select_dimensions
from repro.core.model import ClusteringResult, ProjectedCluster
from repro.core.objective import ObjectiveFunction
from repro.core.representatives import (
    compute_phi_scores,
    find_bad_cluster,
    replace_representatives,
)
from repro.core.seed_groups import GRIDS_PER_GROUP, SeedGroup, SeedGroupBuilder
from repro.core.stats_cache import ClusterStatsCache
from repro.core.thresholds import make_threshold
from repro.semisupervision.knowledge import Knowledge
from repro.serving.artifact import ModelArtifact
from repro.serving.index import ProjectedClusterIndex
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_array_2d, check_cluster_count, check_positive_int

#: Consecutive iterations without an improvement of the best objective
#: score after which the fit stops (before ``max_iterations`` if sooner).
PATIENCE = 5


@dataclass
class _IterationSnapshot:
    """Best-so-far clustering kept across iterations."""

    states: List[ClusterState]
    labels: np.ndarray
    phi_scores: List[float]
    objective: float

    def copy(self) -> "_IterationSnapshot":
        return _IterationSnapshot(
            states=[state.copy() for state in self.states],
            labels=self.labels.copy(),
            phi_scores=list(self.phi_scores),
            objective=float(self.objective),
        )


class SSPC:
    """Semi-Supervised Projected Clustering.

    Parameters
    ----------
    n_clusters:
        The target number of clusters ``k``.
    m:
        Variance-ratio threshold parameter in ``(0, 1]``.  Mutually
        exclusive with ``p``.  Defaults to ``m=0.5`` when neither is
        given.
    p:
        Chi-square threshold parameter in ``(0, 1)`` — the maximum
        probability that an irrelevant dimension is selected by chance.
        Mutually exclusive with ``m``.
    max_iterations:
        Hard cap on the number of assignment iterations; the fit also
        stops after :data:`PATIENCE` iterations without improvement.
    random_state:
        Seed or generator controlling medoid draws and grid sampling.

    Attributes
    ----------
    result_:
        :class:`~repro.core.model.ClusteringResult` after :meth:`fit`.
    labels_:
        Membership labels (``-1`` for outliers).
    selected_dimensions_:
        Per-cluster selected dimension arrays.
    objective_:
        Best objective value ``phi`` reached.
    n_iterations_:
        Number of assignment iterations executed.

    Notes
    -----
    The initialisation runs at the paper's values (Section 4.2): grids of
    ``c = 3`` building dimensions, ``g = 20`` grids per seed group and a
    0.01 chi-square level for seed-group dimensions
    (:mod:`repro.core.seed_groups`).
    """

    #: Grids built per seed group (the paper's ``g``); read by benchmark
    #: traces that count grid builds.
    grids_per_group = GRIDS_PER_GROUP

    def __init__(
        self,
        n_clusters: int,
        *,
        m: Optional[float] = None,
        p: Optional[float] = None,
        max_iterations: int = 30,
        random_state: RandomState = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=1)
        if m is None and p is None:
            m = 0.5
        self._threshold_args = {"m": m, "p": p}
        # Validate eagerly so bad parameters fail at construction time.
        make_threshold(m=m, p=p)
        self.max_iterations = check_positive_int(max_iterations, name="max_iterations", minimum=1)
        self.random_state = random_state

        self.result_: Optional[ClusteringResult] = None
        self.labels_: Optional[np.ndarray] = None
        self.selected_dimensions_: Optional[List[np.ndarray]] = None
        self.objective_: float = float("nan")
        self.n_iterations_: int = 0
        self.stats_cache_: Optional[ClusterStatsCache] = None
        self.stats_cache_counters_: Optional[Dict[str, float]] = None
        self.threshold_ = None
        self._serving_index = None

    # Hook for the equivalence tests and benchmarks: override to supply a
    # differently configured workspace (e.g. a disabled cache).
    _stats_cache_factory = staticmethod(ClusterStatsCache)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def fit(self, data, knowledge: Optional[Knowledge] = None) -> "SSPC":
        """Cluster ``data`` and store the result on the estimator.

        Parameters
        ----------
        data:
            The ``(n, d)`` dataset.
        knowledge:
            Optional labeled objects / labeled dimensions.
        """
        data = check_array_2d(data, name="data", min_rows=2)
        check_cluster_count(self.n_clusters, data.shape[0])
        knowledge = knowledge if knowledge is not None else Knowledge.empty()
        knowledge.validate_against(data.shape[0], data.shape[1], self.n_clusters)
        rng = ensure_rng(self.random_state)

        threshold = make_threshold(**self._threshold_args)
        # The per-iteration workspace: one statistics pass per distinct
        # member set, shared by SelectDim, the phi evaluation, the
        # representative replacement and the seed-group builder.
        workspace = self._stats_cache_factory(data)
        # Hit/miss/eviction counters are reported per fit: a factory may
        # hand back a shared cache whose entries (and counters) survive
        # across estimators, so zero the counters — keeping the cached
        # entries — before this run starts.
        workspace.reset_counters()
        objective = ObjectiveFunction(data, threshold, stats_cache=workspace)
        self.stats_cache_ = workspace
        self.threshold_ = threshold
        # A refit invalidates any serving state built from the old model.
        self._serving_index = None

        with obs.span(
            "fit",
            category="fit",
            n_objects=int(data.shape[0]),
            n_dimensions=int(data.shape[1]),
            n_clusters=self.n_clusters,
        ) as fit_span:
            with obs.span("fit.seed_groups", category="fit"):
                private_groups, public_groups = SeedGroupBuilder(
                    objective, self.n_clusters, knowledge
                ).build(rng)

            states, group_of_cluster, public_pool = self._initial_states(
                objective, private_groups, public_groups, rng
            )

            best: Optional[_IterationSnapshot] = None
            stale_iterations = 0
            iteration = 0
            while iteration < self.max_iterations and stale_iterations < PATIENCE:
                iteration += 1
                with obs.span("fit.iteration", category="fit", iteration=iteration) as it_span:
                    with obs.span("fit.assign", category="fit"):
                        labels = assign_objects(objective, states, knowledge=knowledge)
                    members = members_from_labels(labels, self.n_clusters)
                    changed_clusters = sum(
                        not np.array_equal(state.members, cluster_members)
                        for state, cluster_members in zip(states, members)
                    )
                    it_span.set(changed_clusters=changed_clusters)
                    obs.observe("fit.changed_clusters", changed_clusters)
                    for state, cluster_members in zip(states, members):
                        state.members = cluster_members
                    # Re-determine selected dimensions with the actual members and
                    # compute the objective with the actual medians (step 4).
                    with obs.span("fit.select_dim", category="fit"):
                        for cluster_index, state in enumerate(states):
                            forced = knowledge.dimensions.for_class(cluster_index)
                            forced = forced if forced.size else None
                            state.dimensions = select_dimensions(
                                objective, state.members, forced_dimensions=forced
                            )
                    with obs.span("fit.phi", category="fit"):
                        phi_scores, overall = compute_phi_scores(objective, states)

                    if best is None or overall > best.objective + 1e-12:
                        # A single deep copy of the state arrays suffices — the
                        # snapshot constructor already receives fresh copies.
                        best = _IterationSnapshot(
                            states=[state.copy() for state in states],
                            labels=labels.copy(),
                            phi_scores=list(phi_scores),
                            objective=float(overall),
                        )
                        stale_iterations = 0
                    else:
                        stale_iterations += 1
                        # Restore the best clustering before modifying it (step 5).
                        states = [state.copy() for state in best.states]
                        phi_scores = list(best.phi_scores)
                    it_span.set(objective=float(overall), stale=stale_iterations)

                    if stale_iterations >= PATIENCE or iteration >= self.max_iterations:
                        break

                    with obs.span("fit.medoid_swap", category="fit"):
                        bad_cluster = find_bad_cluster(objective, states, phi_scores)
                        new_medoid, new_dims = self._draw_replacement_medoid(
                            bad_cluster, group_of_cluster, public_pool, states, rng
                        )
                        states = replace_representatives(
                            objective, states, bad_cluster, new_medoid, new_dims
                        )

            assert best is not None  # the loop always runs at least one iteration
            self._store_result(data, objective, best, iteration)
            fit_span.set(iterations=iteration, objective=float(best.objective))
        self._snapshot_workspace_counters(workspace)
        return self

    def _snapshot_workspace_counters(self, workspace: ClusterStatsCache) -> None:
        """Record the fit's cache counters (per-fit, see ``reset_counters``)."""
        counters = dict(workspace.counters())
        self.stats_cache_counters_ = counters
        recorder = obs.get_recorder()
        if recorder is not None:
            for name in ("hits", "misses", "evictions"):
                recorder.incr("stats_cache.%s" % name, float(counters.get(name, 0)))
            recorder.gauge("stats_cache.entries", float(counters.get("entries", 0)))
            recorder.gauge("stats_cache.hit_rate", float(counters.get("hit_rate", 0.0)))

    def fit_predict(self, data, knowledge: Optional[Knowledge] = None) -> np.ndarray:
        """Convenience: :meth:`fit` then return the membership labels."""
        return self.fit(data, knowledge).labels_

    def to_artifact(self, *, metadata=None):
        """Capture the fitted model as a :class:`~repro.serving.artifact.ModelArtifact`.

        Reuses the fit's own statistics cache (so the capture performs no
        new statistics passes) and its fitted selection threshold.  The
        artifact carries every cluster's member projections.
        """
        if self.result_ is None:
            raise RuntimeError("estimator is not fitted; call fit(data) first")
        return ModelArtifact.from_result(
            self.result_,
            self.stats_cache_.data,
            threshold=self.threshold_,
            stats_cache=self.stats_cache_,
            metadata=metadata,
        )

    def save(self, path, *, metadata=None):
        """Persist the fitted model to an artifact directory at ``path``.

        The artifact can later be restored with
        :func:`repro.serving.load_artifact` and served with
        :class:`~repro.serving.index.ProjectedClusterIndex` — no training
        data required.  Returns the artifact directory path.
        """
        return self.to_artifact(metadata=metadata).save(path)

    def predict(self, data, *, top_m: Optional[int] = None):
        """Assign *new* (out-of-sample) points to the fitted clusters.

        Points are scored with the paper's assignment rule against the
        fitted clusters' medians (``-1`` marks points that fail the
        outlier gate).  The artifact capture and the serving index are
        built once per fit, so repeated calls only pay the batched
        scoring pass.

        Parameters
        ----------
        data:
            ``(n_new, d)`` points; ``d`` must match the training data.
        top_m:
            When given, return ``(labels, clusters, gains)`` with each
            point's ``top_m`` soft assignments instead of labels alone.

        Notes
        -----
        This scores points against the *final* clusters, so predicting
        the training data is not guaranteed to reproduce ``labels_``
        (which also reflects knowledge pinning and the winning
        iteration's representatives).
        """
        if self.result_ is None:
            raise RuntimeError("estimator is not fitted; call fit(data) first")
        if self._serving_index is None:
            self._serving_index = ProjectedClusterIndex(self.to_artifact())
        if top_m is not None:
            return self._serving_index.top_assignments(data, top_m)
        return self._serving_index.predict(data)

    def get_params(self) -> Dict[str, object]:
        """Constructor parameters (for reporting and cloning)."""
        params: Dict[str, object] = {
            "n_clusters": self.n_clusters,
            "max_iterations": self.max_iterations,
        }
        params.update({k: v for k, v in self._threshold_args.items() if v is not None})
        return params

    # ------------------------------------------------------------------ #
    # initialisation helpers
    # ------------------------------------------------------------------ #
    def _initial_states(
        self,
        objective: ObjectiveFunction,
        private_groups: Dict[int, SeedGroup],
        public_groups: List[SeedGroup],
        rng: np.random.Generator,
    ) -> Tuple[List[ClusterState], Dict[int, SeedGroup], List[SeedGroup]]:
        """Draw the initial medoid of every cluster (Listing 2, step 2)."""
        group_of_cluster: Dict[int, SeedGroup] = {}
        public_pool = list(public_groups)
        states: List[ClusterState] = []
        prior_size = max(objective.n_objects // self.n_clusters, 2)
        for cluster_index in range(self.n_clusters):
            if cluster_index in private_groups:
                group = private_groups[cluster_index]
            elif public_pool:
                position = int(rng.integers(len(public_pool)))
                group = public_pool.pop(position)
            else:
                group = self._fallback_group(objective, rng)
            group_of_cluster[cluster_index] = group

            if group.n_seeds > 0:
                medoid = group.draw_medoid(rng)
                representative = objective.data[medoid].copy()
            else:
                representative = objective.data[int(rng.integers(objective.n_objects))].copy()
            dimensions = group.dimensions.copy()
            if dimensions.size == 0:
                dimensions = np.arange(objective.n_dimensions)
            states.append(
                ClusterState(
                    representative=representative,
                    dimensions=dimensions,
                    members=np.empty(0, dtype=int),
                    size_hint=prior_size,
                )
            )
        return states, group_of_cluster, public_pool

    def _fallback_group(self, objective: ObjectiveFunction, rng: np.random.Generator) -> SeedGroup:
        """Last-resort seed group: one random object, all dimensions."""
        seed = int(rng.integers(objective.n_objects))
        return SeedGroup(
            seeds=np.asarray([seed]),
            dimensions=np.arange(objective.n_dimensions),
            cluster=None,
            knowledge_kind="none",
        )

    def _draw_replacement_medoid(
        self,
        bad_cluster: int,
        group_of_cluster: Dict[int, SeedGroup],
        public_pool: List[SeedGroup],
        states: Sequence[ClusterState],
        rng: np.random.Generator,
    ) -> Tuple[Optional[int], Optional[np.ndarray]]:
        """New medoid (and dims) for the bad cluster (Section 4.3).

        The medoid comes from the cluster's own (private) seed group when
        it has one; otherwise a fresh public seed group is drawn from the
        pool so the cluster gets a genuinely different starting point, and
        only when the pool is exhausted does the cluster re-draw from its
        current group.
        """
        group = group_of_cluster.get(bad_cluster)
        if group is not None and not group.is_private and public_pool:
            position = int(rng.integers(len(public_pool)))
            new_group = public_pool.pop(position)
            # The abandoned group returns to the pool so other clusters may
            # still use it later.
            public_pool.append(group)
            group_of_cluster[bad_cluster] = new_group
            group = new_group
        if group is None or group.n_seeds == 0:
            return None, None
        medoid = group.draw_medoid(rng)
        dims = group.dimensions.copy() if group.dimensions.size else None
        return medoid, dims

    # ------------------------------------------------------------------ #
    # result packaging
    # ------------------------------------------------------------------ #
    def _store_result(
        self,
        data: np.ndarray,
        objective: ObjectiveFunction,
        best: _IterationSnapshot,
        n_iterations: int,
    ) -> None:
        clusters: List[ProjectedCluster] = []
        for cluster_index, state in enumerate(best.states):
            clusters.append(
                ProjectedCluster(
                    members=state.members,
                    dimensions=state.dimensions,
                    score=best.phi_scores[cluster_index],
                    representative=state.representative,
                )
            )
        self.result_ = ClusteringResult(
            clusters=clusters,
            n_objects=data.shape[0],
            n_dimensions=data.shape[1],
            objective=best.objective,
            n_iterations=n_iterations,
            algorithm="SSPC",
            parameters=self.get_params(),
        )
        self.labels_ = best.labels.copy()
        self.selected_dimensions_ = [cluster.dimensions.copy() for cluster in clusters]
        self.objective_ = float(best.objective)
        self.n_iterations_ = int(n_iterations)
