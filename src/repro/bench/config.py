"""Central scale and budget resolution for the benchmarks.

This module is the single source of truth for the ``REPRO_BENCH_SCALE``
environment variable: the paper-claim pytest modules in ``benchmarks/``
and the ``repro-bench`` orchestrator both resolve the scale (and the
per-task time budgets attached to it) here, so the two cannot drift.

Scales
------
``smoke``
    Seconds-per-scenario configurations for CI gating on every push.
``reduced``
    The default developer scale: preserves the paper's ratios (cluster
    dimensionality as a fraction of ``d``, coverage, input sizes) while
    finishing the full suite in minutes.  This is the nightly CI scale.
``paper``
    The full configurations from the paper (tens of minutes).
"""

from __future__ import annotations

import os
from typing import Optional

SCALES = ("smoke", "reduced", "paper")

DEFAULT_SCALE = "reduced"

SCALE_ENV_VAR = "REPRO_BENCH_SCALE"

#: Soft per-task wall-clock budgets in seconds.  The runner records task
#: durations and the report flags tasks that exceed their scale's budget;
#: budgets are advisory (they never fail a run) because shared CI runners
#: are noisy.
TASK_BUDGET_SECONDS = {
    "smoke": 60.0,
    "reduced": 600.0,
    "paper": 3600.0,
}


def resolve_scale(explicit: Optional[str] = None) -> str:
    """Resolve the active benchmark scale.

    Parameters
    ----------
    explicit:
        A scale requested explicitly (e.g. via ``repro-bench run
        --suite``); wins over the environment.  ``None`` falls back to
        the ``REPRO_BENCH_SCALE`` environment variable, and finally to
        ``reduced``.

    Raises
    ------
    ValueError
        If the requested scale is not one of :data:`SCALES`.
    """
    scale = explicit if explicit is not None else os.environ.get(SCALE_ENV_VAR, DEFAULT_SCALE)
    scale = str(scale).strip().lower() or DEFAULT_SCALE
    if scale not in SCALES:
        raise ValueError(
            "unknown benchmark scale %r: expected one of %s" % (scale, ", ".join(SCALES))
        )
    return scale


def task_budget_seconds(scale: str) -> float:
    """Advisory per-task wall-clock budget for ``scale``."""
    return TASK_BUDGET_SECONDS[resolve_scale(scale)]
