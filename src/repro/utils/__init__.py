"""Shared utilities: RNG handling and validation helpers.

These helpers are intentionally small and dependency-free so that every
other subpackage (core algorithm, baselines, data generators, experiment
harness) can rely on them without creating import cycles.
"""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_array_2d,
    check_cluster_count,
    check_fraction,
    check_positive_int,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_array_2d",
    "check_cluster_count",
    "check_fraction",
    "check_positive_int",
    "check_probability",
]
