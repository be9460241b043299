"""Benchmark orchestration: declarative scenarios, one sharded engine.

Every figure reproduction and performance benchmark of the paper is
registered as a :class:`~repro.bench.scenario.Scenario` and executed by
one engine — a multiprocessing-sharded, resumable runner with a
schema-versioned result store and a baseline regression gate.  See
``repro-bench --help`` (or ``python -m repro.bench``).

This package root stays import-light; scenario definitions load lazily
on first registry lookup.  The executors the runner shards with
(serial, or one process per task) live in :mod:`repro.utils.executor`
and are re-exported here for convenience.
"""

from repro.bench.config import DEFAULT_SCALE, SCALES, resolve_scale, task_budget_seconds
from repro.bench.scenario import MetricSpec, Scenario, ScenarioSummary, TaskSpec
from repro.utils.executor import (
    ExecutorTaskError,
    ProcessExecutor,
    SerialExecutor,
    TaskFault,
    resolve_executor,
)

__all__ = [
    "DEFAULT_SCALE",
    "SCALES",
    "ExecutorTaskError",
    "MetricSpec",
    "ProcessExecutor",
    "Scenario",
    "ScenarioSummary",
    "SerialExecutor",
    "TaskFault",
    "TaskSpec",
    "resolve_executor",
    "resolve_scale",
    "task_budget_seconds",
]
