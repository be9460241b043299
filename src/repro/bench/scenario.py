"""Declarative scenario model for the benchmark orchestrator.

A *scenario* is one figure reproduction or performance benchmark of the
paper, declared as data instead of a procedural script: an identifier,
the figure it reproduces, per-scale configurations, a *plan* that fans
the configuration out into independently seeded tasks, an *execute*
callable that runs one task, and an *aggregate* callable that folds the
task records back into figure-level metrics, a printable table and the
details the paper-claim pytest modules assert on.

Tasks are the unit of sharding and of resumability: every task owns a
JSON-safe parameter dictionary (including its own integer seed drawn via
:mod:`repro.utils.rng`), so executing it is deterministic regardless of
which worker runs it, and its record is keyed by a content hash of those
parameters — change the configuration and the stale record is invalidated
automatically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version of the record/manifest schema.  Bump on incompatible changes;
#: the hash incorporates it, so old records are invalidated automatically.
SCHEMA_VERSION = 1


def canonical_json(value) -> str:
    """Deterministic JSON used for hashing and for stored records."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TaskSpec:
    """One independently executable, independently seeded unit of work."""

    name: str
    params: Mapping[str, object]

    def config_hash(self, scenario_id: str) -> str:
        payload = canonical_json(
            {
                "schema": SCHEMA_VERSION,
                "scenario": scenario_id,
                "task": self.name,
                "params": dict(self.params),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class MetricSpec:
    """Declared comparison semantics of one aggregated metric.

    Attributes
    ----------
    name:
        Key into the scenario's aggregated metrics dictionary.
    kind:
        ``"accuracy"`` — deterministic quality numbers, gated with an
        *absolute* tolerance; ``"throughput"`` — hardware-relative speed
        ratios, gated with a *relative* tolerance; ``"timing"`` /
        ``"info"`` — recorded and reported but never gated (absolute
        wall-clock numbers are not comparable across machines).
    direction:
        ``"higher"`` (regression = drop), ``"lower"`` (regression =
        growth) or ``"match"`` (regression = any drift beyond tolerance).
    tolerance:
        Allowed regression before ``repro-bench compare`` fails:
        absolute for ``accuracy``, a fraction of the baseline value for
        ``throughput``.
    """

    name: str
    kind: str = "accuracy"
    direction: str = "higher"
    tolerance: float = 0.0

    def __post_init__(self):
        if self.kind not in ("accuracy", "throughput", "timing", "info"):
            raise ValueError("unknown metric kind %r" % self.kind)
        if self.direction not in ("higher", "lower", "match"):
            raise ValueError("unknown metric direction %r" % self.direction)

    @property
    def gated(self) -> bool:
        return self.kind in ("accuracy", "throughput")


@dataclass
class ScenarioSummary:
    """Aggregated outcome of one scenario at one scale."""

    scenario_id: str
    scale: str
    metrics: Dict[str, float]
    table: str = ""
    details: Dict[str, object] = field(default_factory=dict)
    n_tasks: int = 0
    seconds: float = 0.0
    over_budget_tasks: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "scale": self.scale,
            "metrics": dict(self.metrics),
            "table": self.table,
            "details": self.details,
            "n_tasks": int(self.n_tasks),
            "seconds": float(self.seconds),
            "over_budget_tasks": list(self.over_budget_tasks),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScenarioSummary":
        return cls(
            scenario_id=str(payload["scenario_id"]),
            scale=str(payload["scale"]),
            metrics=dict(payload.get("metrics", {})),
            table=str(payload.get("table", "")),
            details=dict(payload.get("details", {})),
            n_tasks=int(payload.get("n_tasks", 0)),
            seconds=float(payload.get("seconds", 0.0)),
            over_budget_tasks=list(payload.get("over_budget_tasks", [])),
        )


@dataclass(frozen=True)
class Scenario:
    """One declaratively registered figure reproduction / benchmark.

    Attributes
    ----------
    scenario_id:
        Stable identifier (``figure3_raw_accuracy`` ...).
    figure:
        The paper figure / section the scenario reproduces.
    title:
        One-line human description.
    group:
        Shard group used by the CI matrix (``knowledge`` / ``accuracy``
        / ``robustness`` / ``perf``).
    scale_configs:
        Mapping from scale name to the JSON-safe configuration handed to
        :attr:`plan`.
    plan:
        ``(config) -> [TaskSpec]`` — fans one configuration out into
        independently seeded tasks.
    execute:
        ``(params) -> payload dict`` — runs one task; must be a
        module-level callable so process workers can unpickle it.
    aggregate:
        ``(payloads) -> {"metrics", "table", "details"}`` — folds the
        ordered task payloads into the scenario summary.
    metrics:
        Declared :class:`MetricSpec` comparison semantics.
    """

    scenario_id: str
    figure: str
    title: str
    group: str
    scale_configs: Mapping[str, Mapping[str, object]]
    plan: Callable[[Mapping[str, object]], List[TaskSpec]]
    execute: Callable[[Mapping[str, object]], Dict[str, object]]
    aggregate: Callable[[Sequence[Mapping[str, object]]], Dict[str, object]]
    metrics: Tuple[MetricSpec, ...] = ()

    def config_for(self, scale: str) -> Mapping[str, object]:
        try:
            return self.scale_configs[scale]
        except KeyError:
            raise KeyError(
                "scenario %r declares no %r scale (has: %s)"
                % (self.scenario_id, scale, ", ".join(sorted(self.scale_configs)))
            ) from None

    def build_tasks(self, scale: str) -> List[TaskSpec]:
        tasks = list(self.plan(self.config_for(scale)))
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise ValueError("scenario %r built duplicate task names" % self.scenario_id)
        return tasks

    def metric_spec(self, name: str) -> Optional[MetricSpec]:
        for spec in self.metrics:
            if spec.name == name:
                return spec
        return None

    def run_task(self, task: TaskSpec) -> Dict[str, object]:
        """Execute one task and wrap its payload in a persistable record."""
        import time

        started = time.perf_counter()
        payload = self.execute(dict(task.params))
        seconds = time.perf_counter() - started
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario_id": self.scenario_id,
            "task": task.name,
            "config_hash": task.config_hash(self.scenario_id),
            "params": dict(task.params),
            "seconds": float(seconds),
            "payload": payload,
        }

    def summarize(self, scale: str, records: Sequence[Mapping[str, object]]) -> ScenarioSummary:
        """Aggregate completed task records (sorted by task name) at ``scale``."""
        from repro.bench.config import task_budget_seconds

        ordered = sorted(records, key=lambda record: str(record["task"]))
        outcome = self.aggregate([record["payload"] for record in ordered])
        budget = task_budget_seconds(scale)
        return ScenarioSummary(
            scenario_id=self.scenario_id,
            scale=scale,
            metrics={key: float(value) for key, value in outcome.get("metrics", {}).items()},
            table=str(outcome.get("table", "")),
            details=dict(outcome.get("details", {})),
            n_tasks=len(ordered),
            seconds=float(sum(record["seconds"] for record in ordered)),
            over_budget_tasks=[
                str(record["task"]) for record in ordered if record["seconds"] > budget
            ],
        )

    def run(self, scale: str) -> ScenarioSummary:
        """Execute every task serially in-process and aggregate.

        This is the path the paper-claim pytest modules in
        ``benchmarks/`` use; it goes through exactly the same plan /
        execute / aggregate pipeline as the sharded runner, so the two
        cannot drift.
        """
        records = [self.run_task(task) for task in self.build_tasks(scale)]
        return self.summarize(scale, records)
