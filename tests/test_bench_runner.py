"""Sharded runner: resume, invalidation, shard/serial equality, failures."""

import glob
import multiprocessing
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.bench import registry
from repro.utils.executor import ProcessExecutor, SerialExecutor
from repro.bench.runner import profile_filename, run_scenarios, run_suite
from repro.bench.scenario import MetricSpec, Scenario, TaskSpec
from repro.bench.store import RunStore
from repro.utils.rng import random_seed_from, spawn_rngs

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---- synthetic scenario (module-level so process workers can run it) ----


def _demo_plan(config):
    seeds = [random_seed_from(rng) for rng in spawn_rngs(int(config["seed"]), int(config["n_tasks"]))]
    return [
        TaskSpec(
            name="task-%d" % index,
            params={
                "index": index,
                "seed": seed,
                "counter_dir": config["counter_dir"],
                "fail_marker": config.get("fail_marker", ""),
            },
        )
        for index, seed in enumerate(seeds)
    ]


def _demo_execute(params):
    marker = params.get("fail_marker", "")
    if marker and Path(marker).exists() and params["index"] == 1:
        raise RuntimeError("injected task failure")
    handle, _ = tempfile.mkstemp(prefix="task-%d." % params["index"], dir=params["counter_dir"])
    os.close(handle)
    rng = np.random.default_rng(int(params["seed"]))
    return {"index": int(params["index"]), "value": float(rng.normal())}


def _demo_aggregate(payloads):
    values = [payload["value"] for payload in payloads]
    return {
        "metrics": {"value_sum": float(sum(values)), "n_values": float(len(values))},
        "table": "demo",
        "details": {"values": values},
    }


def _executions(counter_dir, index=None):
    pattern = "task-*" if index is None else "task-%d.*" % index
    return len(glob.glob(str(Path(counter_dir) / pattern)))


@pytest.fixture
def demo_scenario(tmp_path):
    counter_dir = tmp_path / "counters"
    counter_dir.mkdir()
    scenario = Scenario(
        scenario_id="demo_runner",
        figure="test",
        title="synthetic runner scenario",
        group="robustness",
        scale_configs={
            scale: {"n_tasks": 3, "seed": 5, "counter_dir": str(counter_dir)}
            for scale in ("smoke", "reduced", "paper")
        },
        plan=_demo_plan,
        execute=_demo_execute,
        aggregate=_demo_aggregate,
        metrics=(MetricSpec("value_sum", "accuracy", "match", 1e-12),),
    )
    registry.register(scenario)
    yield scenario, counter_dir
    registry.unregister("demo_runner")


@pytest.fixture
def failing_scenario(tmp_path):
    counter_dir = tmp_path / "counters-fail"
    counter_dir.mkdir()
    marker = tmp_path / "fail-now"
    marker.touch()
    scenario = Scenario(
        scenario_id="demo_failing",
        figure="test",
        title="synthetic failing scenario",
        group="robustness",
        scale_configs={
            scale: {
                "n_tasks": 3,
                "seed": 5,
                "counter_dir": str(counter_dir),
                "fail_marker": str(marker),
            }
            for scale in ("smoke", "reduced", "paper")
        },
        plan=_demo_plan,
        execute=_demo_execute,
        aggregate=_demo_aggregate,
        metrics=(MetricSpec("value_sum", "accuracy", "match", 1e-12),),
    )
    registry.register(scenario)
    yield scenario, counter_dir, marker
    registry.unregister("demo_failing")


class TestResume:
    def test_completed_tasks_are_not_reexecuted(self, demo_scenario, tmp_path):
        scenario, counter_dir = demo_scenario
        store = RunStore(tmp_path / "run")
        first = run_scenarios([scenario], scale="smoke", store=store, workers=1)
        assert first.ok and first.n_executed == 3
        assert _executions(counter_dir) == 3

        second = run_scenarios([scenario], scale="smoke", store=store, workers=1)
        assert second.ok
        assert second.n_cached == 3 and second.n_executed == 0
        assert _executions(counter_dir) == 3  # nothing ran again
        assert second.summaries["demo_runner"].metrics == first.summaries["demo_runner"].metrics

    def test_partial_store_resumes_only_missing_tasks(self, demo_scenario, tmp_path):
        scenario, counter_dir = demo_scenario
        store = RunStore(tmp_path / "run")
        run_scenarios([scenario], scale="smoke", store=store, workers=1)

        # Simulate a killed run: one record vanishes.
        victim = scenario.build_tasks("smoke")[2]
        store.record_path("demo_runner", victim).unlink()
        report = run_scenarios([scenario], scale="smoke", store=store, workers=1)
        assert report.ok and report.n_cached == 2 and report.n_executed == 1
        assert _executions(counter_dir, index=2) == 2
        assert _executions(counter_dir, index=0) == 1

    def test_no_resume_reexecutes_everything(self, demo_scenario, tmp_path):
        scenario, counter_dir = demo_scenario
        store = RunStore(tmp_path / "run")
        run_scenarios([scenario], scale="smoke", store=store, workers=1)
        run_scenarios([scenario], scale="smoke", store=store, workers=1, resume=False)
        assert _executions(counter_dir) == 6

    def test_config_change_invalidates_records(self, demo_scenario, tmp_path):
        scenario, counter_dir = demo_scenario
        store = RunStore(tmp_path / "run")
        run_scenarios([scenario], scale="smoke", store=store, workers=1)

        changed = Scenario(
            scenario_id=scenario.scenario_id,
            figure=scenario.figure,
            title=scenario.title,
            group=scenario.group,
            scale_configs={
                scale: {"n_tasks": 3, "seed": 6, "counter_dir": str(counter_dir)}
                for scale in ("smoke", "reduced", "paper")
            },
            plan=scenario.plan,
            execute=scenario.execute,
            aggregate=scenario.aggregate,
            metrics=scenario.metrics,
        )
        registry.register(changed, replace=True)
        report = run_scenarios([changed], scale="smoke", store=store, workers=1)
        assert report.n_cached == 0 and report.n_executed == 3
        assert _executions(counter_dir) == 6


class TestFailureHandling:
    def test_interrupted_run_persists_completed_tasks_then_resumes(
        self, failing_scenario, tmp_path
    ):
        scenario, counter_dir, marker = failing_scenario
        store = RunStore(tmp_path / "run")
        report = run_scenarios([scenario], scale="smoke", store=store, workers=1)
        assert not report.ok
        assert "demo_failing/task-1" in report.failures
        assert store.load_summary()["failures"]
        # The two healthy tasks were persisted before the failure surfaced.
        assert _executions(counter_dir, index=0) == 1
        assert _executions(counter_dir, index=2) == 1

        marker.unlink()  # "fix" the failure, rerun: only task-1 executes
        report = run_scenarios([scenario], scale="smoke", store=store, workers=1)
        assert report.ok and report.n_cached == 2 and report.n_executed == 1
        assert _executions(counter_dir, index=0) == 1
        assert _executions(counter_dir, index=1) == 1


@pytest.mark.skipif(not HAS_FORK, reason="process sharding test needs the fork start method")
class TestSharding:
    def test_sharded_equals_serial_on_synthetic_scenario(self, demo_scenario, tmp_path):
        scenario, _ = demo_scenario
        serial_store = RunStore(tmp_path / "serial")
        shard_store = RunStore(tmp_path / "shard")
        serial = run_scenarios([scenario], scale="smoke", store=serial_store, workers=1)
        sharded = run_scenarios([scenario], scale="smoke", store=shard_store, workers=3)
        assert serial.ok and sharded.ok
        assert (
            serial.summaries["demo_runner"].metrics == sharded.summaries["demo_runner"].metrics
        )
        assert (
            serial.summaries["demo_runner"].details["values"]
            == sharded.summaries["demo_runner"].details["values"]
        )

    def test_sharded_equals_serial_on_builtin_scenario(self, tmp_path):
        serial = run_suite(
            scale="smoke",
            run_dir=tmp_path / "serial",
            workers=1,
            scenario_ids=["figure1_knowledge_analysis"],
        )
        sharded = run_suite(
            scale="smoke",
            run_dir=tmp_path / "shard",
            workers=2,
            scenario_ids=["figure1_knowledge_analysis"],
        )
        assert serial.ok and sharded.ok
        assert (
            serial.summaries["figure1_knowledge_analysis"].metrics
            == sharded.summaries["figure1_knowledge_analysis"].metrics
        )


class TestProfiling:
    def test_profile_writes_top25_tables_next_to_manifest(self, demo_scenario, tmp_path):
        scenario, _ = demo_scenario
        store = RunStore(tmp_path / "profiled")
        report = run_scenarios(
            [scenario], scale="smoke", store=store, workers=1, profile=True
        )
        assert report.ok
        profiles = sorted((store.root / "profiles").glob("demo_runner__task-*.txt"))
        assert len(profiles) == 3
        text = profiles[0].read_text()
        assert "cumulative" in text
        assert "top 25" in text

    def test_profile_off_by_default(self, demo_scenario, tmp_path):
        scenario, _ = demo_scenario
        store = RunStore(tmp_path / "plain")
        report = run_scenarios([scenario], scale="smoke", store=store, workers=1)
        assert report.ok
        assert not (store.root / "profiles").exists()

    def test_profiled_records_resume_like_normal_ones(self, demo_scenario, tmp_path):
        scenario, counter_dir = demo_scenario
        store = RunStore(tmp_path / "resume-profiled")
        run_scenarios([scenario], scale="smoke", store=store, workers=1, profile=True)
        executed = _executions(counter_dir)
        report = run_scenarios([scenario], scale="smoke", store=store, workers=1)
        assert report.ok
        assert _executions(counter_dir) == executed  # all cached

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork")
    def test_profile_works_under_process_sharding(self, demo_scenario, tmp_path):
        scenario, _ = demo_scenario
        store = RunStore(tmp_path / "profiled-sharded")
        report = run_scenarios(
            [scenario], scale="smoke", store=store, workers=3, profile=True
        )
        assert report.ok
        profiles = sorted((store.root / "profiles").glob("demo_runner__task-*.txt"))
        assert len(profiles) == 3

    def test_profile_filenames_cannot_collide_across_tasks(self):
        """Regression: ``a__b``/``c`` and ``a``/``b__c`` used to map to one file."""
        first = profile_filename("prof_a__x", TaskSpec(name="t", params={}))
        second = profile_filename("prof_a", TaskSpec(name="x__t", params={}))
        assert first != second
        # same (scenario, task) with different params also gets its own file
        third = profile_filename("prof_a", TaskSpec(name="x__t", params={"seed": 1}))
        assert second != third

    def test_profile_filenames_are_filesystem_safe(self):
        name = profile_filename("weird/scenario", TaskSpec(name="task:0 *", params={}))
        assert "/" not in name and ":" not in name and "*" not in name and " " not in name
        assert name.endswith(".txt")

    def test_no_stale_profile_temp_files(self, demo_scenario, tmp_path):
        scenario, _ = demo_scenario
        store = RunStore(tmp_path / "profiled-clean")
        report = run_scenarios(
            [scenario], scale="smoke", store=store, workers=1, profile=True
        )
        assert report.ok
        assert not list((store.root / "profiles").glob("*.tmp"))


class TestExecutors:
    def test_serial_and_thread_map_preserve_order(self):
        items = list(range(7))
        fn = lambda x: x * x  # noqa: E731
        assert SerialExecutor().map(fn, items) == [x * x for x in items]

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork")
    def test_process_map_preserves_order(self):
        items = list(range(7))
        assert ProcessExecutor(3).map(_square, items) == [x * x for x in items]

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)


def _square(x):
    return x * x
