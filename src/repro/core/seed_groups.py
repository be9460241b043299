"""Seed-group construction (Section 4.2 of the paper).

A *seed group* is a set of seed objects expected to come from a single
real cluster, together with an estimated set of relevant dimensions.
Whenever a cluster needs a (new) medoid it draws one of the seeds of its
seed group and adopts the group's estimated dimensions as its selected
dimensions.

SSPC builds two kinds of seed groups:

* **private** groups for clusters with input knowledge (labeled objects
  and/or labeled dimensions), used exclusively by those clusters, and
* **public** groups shared by all clusters without knowledge, so that
  medoids can be drawn from different seed-group combinations.

The construction differs per knowledge case (Sections 4.2.1-4.2.4):

1. *Both kinds of inputs*: the labeled objects form a temporary cluster
   ``C_i'``; grid-building dimensions are drawn (with probability
   proportional to ``phi_i'j``) from the candidate set ``SelectDim(C_i')
   union Iv_i``; the seeds are the objects in the densest peak cell found
   by hill-climbing from the cell containing the median of the labeled
   objects; the group's dimensions are ``SelectDim(G_i) union Iv_i``.
2. *Labeled objects only*: as case 1 but the candidate set and the
   group's dimensions omit ``Iv_i``.
3. *Labeled dimensions only*: grids are built from ``Iv_i`` only (uniform
   probabilities); the seeds come from the absolute peak of the grid; the
   group's dimensions are ``SelectDim(G_i)`` plus ``Iv_i``.
4. *No inputs*: a max-min object (remote from every already-picked seed
   in the corresponding subspaces) replaces the labeled-object median as
   the anchor; a one-dimensional histogram per dimension measures the
   density around the anchor and sets the probability of the dimension
   being used for grid building; then the procedure of case 2 runs.

Clusters with more knowledge are initialised first (both > objects only >
dimensions only > none; more items first within a category) because
accurately created groups let later groups exclude their likely members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

# Every build runs the chi-square threshold (``SEED_SELECTION_P``): load
# scipy.special with this module, not inside a fit or a stream spawn.
import scipy.special  # noqa: F401

from repro.core.dimension_selection import select_dimensions
from repro.core.grid import Grid, GridBinning, one_dimensional_density_profile
from repro.core.objective import ObjectiveFunction
from repro.core.thresholds import ChiSquareThreshold
from repro.semisupervision.knowledge import Knowledge
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int

#: Building dimensions per grid (the paper's ``c``).  With at most 8 bins
#: per dimension (:meth:`SeedGroupBuilder._effective_bins`) a grid has at
#: most 8 ** 3 = 512 cells, far inside :data:`repro.core.grid.DENSE_CELL_LIMIT`.
GRID_DIMENSIONS = 3

#: Grids built per seed group (the paper's ``g``).
GRIDS_PER_GROUP = 20

#: Public seed groups per knowledge-free cluster ("some large number of
#: public seed groups" in the paper).
PUBLIC_GROUP_FACTOR = 3

#: Significance level of the chi-square criterion that estimates the
#: relevant dimensions of a seed group (and the grid-building candidate
#: set).  Seed groups are small object sets, so the size-adaptive
#: chi-square criterion is used here whatever the main optimisation's
#: threshold scheme: it is the criterion the paper's own
#: knowledge-requirement analysis (Section 4.5) is phrased in.
SEED_SELECTION_P = 0.01

#: Largest number of broadcast elements (rows x seeds x dimensions) that one
#: row block of the max-min distance fold materialises: 2 MiB per float64
#: temporary, whatever ``n``.  On the stream_drift benchmark (2 vCPUs) 8 MiB
#: blocks ran no faster and left a peak RSS of 137 MiB against 122 MiB.
MAX_MIN_BLOCK_ELEMENTS = 1 << 18


@dataclass
class SeedGroup:
    """A set of seeds plus estimated relevant dimensions for one cluster.

    Attributes
    ----------
    seeds:
        Object indices expected to come from one real cluster.
    dimensions:
        Estimated relevant dimensions of that cluster.
    cluster:
        Index of the cluster that owns the group, or ``None`` for public
        groups.
    knowledge_kind:
        Which of the four construction cases produced the group.
    peak_density:
        Density of the winning grid cell (diagnostics).
    """

    seeds: np.ndarray
    dimensions: np.ndarray
    cluster: Optional[int] = None
    knowledge_kind: str = "none"
    peak_density: int = 0
    _untried: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.seeds = np.asarray(sorted(set(int(i) for i in np.asarray(self.seeds).ravel())), dtype=int)
        self.dimensions = np.asarray(
            sorted(set(int(j) for j in np.asarray(self.dimensions).ravel())), dtype=int
        )
        self._untried = list(self.seeds)

    @property
    def is_private(self) -> bool:
        """Whether the group belongs to a specific cluster."""
        return self.cluster is not None

    @property
    def n_seeds(self) -> int:
        """Number of seed objects in the group."""
        return int(self.seeds.size)

    def draw_medoid(self, rng: np.random.Generator) -> int:
        """Draw a seed to serve as a medoid, preferring untried seeds.

        Seeds are drawn without replacement until exhausted, after which
        the full seed list is recycled; this gives the representative-
        replacement step fresh medoid candidates for as long as possible.
        """
        if self.seeds.size == 0:
            raise RuntimeError("cannot draw a medoid from an empty seed group")
        if not self._untried:
            self._untried = list(self.seeds)
        position = int(rng.integers(len(self._untried)))
        return self._untried.pop(position)


class _NearestSeedDistances:
    """Each object's normalised squared distance to its nearest seed so far.

    The max-min anchor (Section 4.2.4) needs, for every object, the minimum
    over the existing groups of its distance to the group's seeds in the
    group's subspace.  Groups are only ever appended while one
    :meth:`SeedGroupBuilder.build` runs, so this running minimum folds in
    each group once, in row blocks of at most ``MAX_MIN_BLOCK_ELEMENTS``
    broadcast elements, instead of rebuilding every group's
    ``(n, seeds, dims)`` broadcast for every anchor.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.distance = np.full(data.shape[0], np.inf)
        self.n_seen = 0
        self.n_folded = 0

    def update(self, groups: List["SeedGroup"]) -> None:
        """Fold in the groups appended to ``groups`` since the previous call."""
        for group in groups[self.n_seen :]:
            if group.n_seeds > 0 and group.dimensions.size > 0:
                self._fold(group)
        self.n_seen = len(groups)

    def _fold(self, group: "SeedGroup") -> None:
        dims = group.dimensions
        seeds = self.data[np.ix_(group.seeds, dims)]
        n_objects = self.data.shape[0]
        block = max(1, MAX_MIN_BLOCK_ELEMENTS // seeds.size)
        for start in range(0, n_objects, block):
            stop = min(start + block, n_objects)
            # np.ix_ gathers a row-major block (a row slice with a column
            # index would give a column-major one), so each row's sum runs
            # in the same order as in one full broadcast: bit-identical.
            candidates = self.data[np.ix_(np.arange(start, stop), dims)]
            diffs = candidates[:, None, :] - seeds[None, :, :]
            distances = (diffs ** 2).sum(axis=2).min(axis=1) / dims.size
            running = self.distance[start:stop]
            np.minimum(running, distances, out=running)
        self.n_folded += 1


class SeedGroupBuilder:
    """Builds private and public seed groups for SSPC's initialisation.

    Parameters
    ----------
    objective:
        The fitted objective function (provides the data, the thresholds
        and ``SelectDim``).
    n_clusters:
        The target number of clusters ``k``.
    knowledge:
        The semi-supervision inputs (possibly empty).
    grids_per_group:
        Number of grids tried per seed group (the paper's ``g``).  A
        stream spawn builds fewer (``SPAWN_GRIDS``).
    public_group_factor:
        Number of public seed groups created per knowledge-free cluster.
        A stream spawn tries fewer (``SPAWN_GROUP_ATTEMPTS``).

    Every grid has :data:`GRID_DIMENSIONS` building dimensions and the
    bins per dimension are chosen from the number of available objects
    (:meth:`_effective_bins`); seed-group dimensions are selected at the
    chi-square level :data:`SEED_SELECTION_P`.
    """

    def __init__(
        self,
        objective: ObjectiveFunction,
        n_clusters: int,
        knowledge: Optional[Knowledge] = None,
        *,
        grids_per_group: int = GRIDS_PER_GROUP,
        public_group_factor: int = PUBLIC_GROUP_FACTOR,
    ) -> None:
        self.objective = objective
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters", minimum=1)
        self.knowledge = knowledge if knowledge is not None else Knowledge.empty()
        self.grids_per_group = check_positive_int(grids_per_group, name="grids_per_group", minimum=1)
        self.public_group_factor = check_positive_int(
            public_group_factor, name="public_group_factor", minimum=1
        )
        self._seed_threshold = ChiSquareThreshold(p=SEED_SELECTION_P)
        self._seed_threshold.fit_from_variance(objective.threshold.global_variance)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build(self, random_state: RandomState = None) -> Tuple[Dict[int, SeedGroup], List[SeedGroup]]:
        """Create all seed groups.

        Returns
        -------
        (private_groups, public_groups)
            ``private_groups`` maps a cluster index to its private seed
            group; ``public_groups`` is the shared pool for clusters
            without knowledge.
        """
        rng = ensure_rng(random_state)
        order = self._initialisation_order()

        private_groups: Dict[int, SeedGroup] = {}
        existing_groups: List[SeedGroup] = []
        excluded_objects: set = set()

        for cluster_index in order:
            kind = self.knowledge.knowledge_kind(cluster_index)
            if kind == "none":
                continue
            group = self._build_private_group(cluster_index, kind, excluded_objects, rng)
            private_groups[cluster_index] = group
            existing_groups.append(group)
            excluded_objects.update(int(seed) for seed in group.seeds)

        n_without_knowledge = sum(
            1 for cluster_index in range(self.n_clusters) if cluster_index not in private_groups
        )
        public_groups: List[SeedGroup] = []
        n_public = self.public_group_factor * max(n_without_knowledge, 0)
        nearest = _NearestSeedDistances(self.objective.data)
        for _ in range(n_public):
            group = self._build_public_group(existing_groups, excluded_objects, rng, nearest)
            if group.n_seeds == 0:
                continue
            public_groups.append(group)
            existing_groups.append(group)
            excluded_objects.update(int(seed) for seed in group.seeds)
        return private_groups, public_groups

    # ------------------------------------------------------------------ #
    # ordering
    # ------------------------------------------------------------------ #
    def _initialisation_order(self) -> List[int]:
        """Order clusters by knowledge kind then amount (Section 4.2)."""
        kind_rank = {"both": 0, "objects": 1, "dimensions": 2, "none": 3}

        def sort_key(cluster_index: int) -> Tuple[int, int, int]:
            kind = self.knowledge.knowledge_kind(cluster_index)
            return (kind_rank[kind], -self.knowledge.amount(cluster_index), cluster_index)

        return sorted(range(self.n_clusters), key=sort_key)

    # ------------------------------------------------------------------ #
    # private groups (cases 1-3)
    # ------------------------------------------------------------------ #
    def _build_private_group(
        self,
        cluster_index: int,
        kind: str,
        excluded_objects: set,
        rng: np.random.Generator,
    ) -> SeedGroup:
        labeled_objects = self.knowledge.objects.for_class(cluster_index)
        labeled_dimensions = self.knowledge.dimensions.for_class(cluster_index)

        if kind in ("both", "objects"):
            candidate_dims, candidate_weights = self._candidates_from_labeled_objects(
                labeled_objects,
                labeled_dimensions if kind == "both" else np.empty(0, dtype=int),
            )
            anchor = self._labeled_object_anchor(labeled_objects)
            seeds, peak_density = self._search_grids(
                candidate_dims, candidate_weights, anchor, excluded_objects, rng
            )
        else:  # kind == "dimensions"
            candidate_dims = labeled_dimensions
            candidate_weights = np.ones(candidate_dims.size)
            seeds, peak_density = self._search_grids(
                candidate_dims, candidate_weights, None, excluded_objects, rng
            )

        if seeds.size == 0:
            # Degenerate fall-back: use the labeled objects themselves (if
            # any) so the cluster still has a medoid to draw.
            seeds = labeled_objects

        # Forcing the labeled dimensions keeps them even when SelectDim
        # selects nothing (fewer than two seeds, or no tight dimension).
        forced = labeled_dimensions if kind in ("both", "dimensions") else None
        dimensions = select_dimensions(
            self.objective, seeds, forced_dimensions=forced, threshold=self._seed_threshold
        )
        return SeedGroup(
            seeds=seeds,
            dimensions=dimensions,
            cluster=cluster_index,
            knowledge_kind=kind,
            peak_density=peak_density,
        )

    def _candidates_from_labeled_objects(
        self,
        labeled_objects: np.ndarray,
        labeled_dimensions: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate grid-building dimensions and their selection weights.

        The candidate set is ``SelectDim(C_i')`` (the temporary cluster of
        labeled objects) plus any labeled dimensions; each candidate's
        probability of being used in a grid is proportional to its
        ``phi_i'j`` score.
        """
        if labeled_objects.size >= 2:
            statistics = self.objective.cluster_statistics(labeled_objects)
            selected = select_dimensions(
                self.objective,
                labeled_objects,
                statistics=statistics,
                threshold=self._seed_threshold,
            )
            phi_scores = self.objective.phi_ij_all(labeled_objects, statistics=statistics)
        else:
            selected = np.empty(0, dtype=int)
            phi_scores = np.zeros(self.objective.n_dimensions)

        candidates = np.union1d(selected, labeled_dimensions).astype(int)
        if candidates.size < GRID_DIMENSIONS:
            # Too few candidates to form a grid — pad with the dimensions
            # along which the labeled objects are tightest (best phi scores).
            needed = GRID_DIMENSIONS - candidates.size
            order = np.argsort(-phi_scores)
            extra = [int(j) for j in order if int(j) not in set(candidates.tolist())][:needed]
            candidates = np.union1d(candidates, np.asarray(extra, dtype=int)).astype(int)
        if candidates.size == 0:
            # No information at all — fall back to all dimensions, uniform.
            candidates = np.arange(self.objective.n_dimensions)
            return candidates, np.ones(candidates.size)
        weights = phi_scores[candidates]
        # phi scores can be negative (worse than threshold); shift to keep a
        # valid probability vector while preserving the ordering.
        weights = weights - weights.min() + 1e-9
        return candidates, weights

    def _labeled_object_anchor(self, labeled_objects: np.ndarray) -> Optional[np.ndarray]:
        """The median of the labeled objects (hill-climbing start point).

        Shares the statistics pass already performed for the candidate
        dimensions via the objective's :class:`ClusterStatsCache`.
        """
        if labeled_objects.size == 0:
            return None
        return self.objective.cluster_statistics(labeled_objects).median.copy()

    # ------------------------------------------------------------------ #
    # public groups (case 4)
    # ------------------------------------------------------------------ #
    def _build_public_group(
        self,
        existing_groups: List[SeedGroup],
        excluded_objects: set,
        rng: np.random.Generator,
        nearest: _NearestSeedDistances,
    ) -> SeedGroup:
        available = self._available_objects(excluded_objects)
        if available.size == 0:
            # Every object is already claimed by earlier seed groups; there is
            # nothing left to anchor a new public group on.
            return SeedGroup(seeds=[], dimensions=[], cluster=None, knowledge_kind="none")
        anchor_index = self._max_min_object(existing_groups, excluded_objects, rng, nearest)
        anchor = self.objective.data[anchor_index]

        histogram_bins = max(2 * self._effective_bins(available.size), 8)
        densities = one_dimensional_density_profile(
            self.objective.data,
            anchor,
            bins=histogram_bins,
            restrict_to=available,
        )
        candidates = np.arange(self.objective.n_dimensions)
        # Weight dimensions by their density *excess* over the uniform
        # baseline (1/bins): a dimension relevant to the cluster centred at
        # the anchor shows a clear excess, while irrelevant dimensions hover
        # around the baseline and receive only a small residual weight.
        baseline = 1.0 / histogram_bins
        weights = np.maximum(densities - baseline, 0.0) + 0.1 * baseline

        seeds, peak_density = self._search_grids(candidates, weights, anchor, excluded_objects, rng)
        if seeds.size == 0:
            seeds = np.asarray([anchor_index], dtype=int)
        dimensions = select_dimensions(self.objective, seeds, threshold=self._seed_threshold)
        return SeedGroup(
            seeds=seeds,
            dimensions=dimensions,
            cluster=None,
            knowledge_kind="none",
            peak_density=peak_density,
        )

    def _max_min_object(
        self,
        existing_groups: List[SeedGroup],
        excluded_objects: set,
        rng: np.random.Generator,
        nearest: Optional[_NearestSeedDistances] = None,
    ) -> int:
        """Object whose minimum distance to all picked seeds is maximal.

        Distances to each group's seeds are computed in the group's
        estimated relevant subspace and normalised by the number of
        dimensions (Section 4.2.4).  With no existing groups the anchor
        is a random object.  ``nearest`` carries the running minimum from
        one anchor of a build to the next, so only groups appended since
        are folded in; without it every group is folded afresh.
        """
        available = self._available_objects(excluded_objects)
        if available.size == 0:
            available = np.arange(self.objective.n_objects)
        if nearest is None:
            nearest = _NearestSeedDistances(self.objective.data)
        nearest.update(existing_groups)
        if nearest.n_folded == 0:
            return int(available[rng.integers(available.size)])
        return int(available[int(np.argmax(nearest.distance[available]))])

    def _available_objects(self, excluded_objects: set) -> np.ndarray:
        """Objects not yet claimed as seeds by previously built groups."""
        if not excluded_objects:
            return np.arange(self.objective.n_objects)
        mask = np.ones(self.objective.n_objects, dtype=bool)
        mask[list(excluded_objects)] = False
        return np.flatnonzero(mask)

    @staticmethod
    def _effective_bins(n_available: int) -> int:
        """Bins per grid dimension.

        The resolution is chosen so that a cell of the ``c``-dimensional grid
        is expected to hold a handful of background objects (about five):
        with ``b`` bins per dimension there are ``b**c`` cells, so
        ``b ~= (n / 5) ** (1/c)``, clipped to ``[2, 8]``.  A cluster
        whose local spread is a few percent of the value range then falls
        almost entirely inside one cell and shows up as a strong peak.
        """
        target = (max(n_available, 1) / 5.0) ** (1.0 / GRID_DIMENSIONS)
        return int(np.clip(round(target), 2, 8))

    # ------------------------------------------------------------------ #
    # grid search shared by all cases
    # ------------------------------------------------------------------ #
    def _search_grids(
        self,
        candidate_dimensions: np.ndarray,
        weights: np.ndarray,
        anchor: Optional[np.ndarray],
        excluded_objects: set,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, int]:
        """Build ``grids_per_group`` grids and return the densest peak's members."""
        candidate_dimensions = np.asarray(candidate_dimensions, dtype=int)
        if candidate_dimensions.size == 0:
            return np.empty(0, dtype=int), 0
        weights = np.asarray(weights, dtype=float)
        probabilities = weights / weights.sum() if weights.sum() > 0 else None

        available = self._available_objects(excluded_objects)
        if available.size == 0:
            return np.empty(0, dtype=int), 0

        n_building = min(GRID_DIMENSIONS, candidate_dimensions.size)
        binning = GridBinning(
            self.objective.data,
            bins_per_dimension=self._effective_bins(available.size),
            restrict_to=available,
        )
        best_members = np.empty(0, dtype=int)
        best_density = 0
        for _ in range(self.grids_per_group):
            building = rng.choice(
                candidate_dimensions,
                size=n_building,
                replace=False,
                p=probabilities,
            )
            grid = Grid(binning, building)
            if anchor is not None:
                result = grid.hill_climb(anchor)
            else:
                result = grid.absolute_peak()
            if result.density > best_density:
                best_density = result.density
                best_members = result.members
        return best_members, best_density
