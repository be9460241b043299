"""Executor observability: per-task spans, exactly-once counters, merging.

Satellite coverage for the tentpole: TaskFault retries/crashes/timeouts
must increment their counters exactly once per attempt outcome, child
spans shipped through the result pipe must be parented under the
parent-side per-task span, and the SIGKILL / stall paths from the chaos
harness must be accounted for even though a killed worker never exports
its recorder state.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs
from repro.reliability import FaultPlan, FaultSpec
from repro.utils.executor import ProcessExecutor, SerialExecutor, TaskFault

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


# Module-level task bodies: they must survive into forked workers.

def _square(item):
    return item * item


def _traced_square(item):
    with obs.span("work", category="worker-test", item=item):
        return item * item


def _record_pid(item):
    obs.incr("worker.calls")
    obs.observe("worker.items", float(item))
    return os.getpid()


def _fail_once(item):
    index, latch_dir = item
    import pathlib

    latch = pathlib.Path(latch_dir) / ("fail-once-%d" % index)
    try:
        latch.touch(exist_ok=False)
    except FileExistsError:
        return index + 100
    raise ValueError("first attempt of %d fails" % index)


def _always_fail(item):
    raise ValueError("never works")


def _kill_self_once(item):
    index, latch_dir = item
    plan = FaultPlan(specs=[FaultSpec(op="task", index=0, kind="sigkill")])
    plan.apply_task_fault(index, latch_dir)
    return index + 100


def _stall_once(item):
    index, latch_dir = item
    plan = FaultPlan(specs=[FaultSpec(op="task", index=0, kind="stall", seconds=30.0)])
    plan.apply_task_fault(index, latch_dir)
    return index + 100


class TestInProcessExecutors:
    def test_serial_executor_emits_task_spans(self):
        with obs.recording() as rec:
            results = SerialExecutor().map(_square, [1, 2, 3])
        assert results == [1, 4, 9]
        task_spans = [s for s in rec.spans if s["name"] == "executor.task"]
        assert [s["args"]["index"] for s in task_spans] == [0, 1, 2]
        assert all(s["cat"] == "executor" for s in task_spans)
        assert all(s["args"]["backend"] == "serial" for s in task_spans)

    def test_serial_executor_parents_task_work(self):
        with obs.recording() as rec:
            list(SerialExecutor().imap_unordered(_traced_square, [5]))
        spans = {s["name"]: s for s in rec.spans}
        assert spans["work"]["parent"] == spans["executor.task"]["id"]

    def test_disabled_obs_means_no_recording(self):
        assert SerialExecutor().map(_square, [2]) == [4]
        assert not obs.enabled()


@pytest.mark.skipif(not HAS_FORK, reason="needs fork")
class TestProcessExecutorMerging:
    def test_child_spans_parented_and_rebased(self):
        with obs.recording() as rec:
            results = ProcessExecutor(2).map(_traced_square, [3, 4])
        assert results == [9, 16]
        task_spans = {s["args"]["index"]: s for s in rec.spans if s["name"] == "executor.task"}
        run_spans = [s for s in rec.spans if s["name"] == "task.run"]
        work_spans = [s for s in rec.spans if s["name"] == "work"]
        assert len(task_spans) == 2 and len(run_spans) == 2 and len(work_spans) == 2
        parent_pid = os.getpid()
        for run in run_spans:
            # the worker's root span hangs under the parent-side task span
            parent = task_spans[_parent_index(rec, run)]
            assert run["parent"] == parent["id"]
            assert run["pid"] != parent_pid  # child pid preserved
            # re-based onto the parent timeline: inside the task span
            assert run["ts"] >= parent["ts"]
        for work in work_spans:
            assert any(work["parent"] == run["id"] for run in run_spans)
        assert rec.counters["executor.tasks"] == 2.0

    def test_child_counters_and_histograms_merge(self):
        with obs.recording() as rec:
            pids = ProcessExecutor(2).map(_record_pid, [10, 20, 30])
        assert all(pid != os.getpid() for pid in pids)
        assert rec.counters["worker.calls"] == 3.0
        assert sorted(rec.histograms["worker.items"]) == [10.0, 20.0, 30.0]

    def test_error_retry_counts_exactly_once(self, tmp_path):
        with obs.recording() as rec:
            results = ProcessExecutor(2, max_retries=2, retry_backoff=0.02).map(
                _fail_once, [(index, str(tmp_path)) for index in range(2)]
            )
        assert results == [100, 101]
        assert rec.counters["executor.tasks"] == 2.0
        assert rec.counters["executor.task_errors"] == 2.0  # one failed attempt each
        assert rec.counters["executor.retries"] == 2.0
        assert "executor.task_faults" not in rec.counters
        retries = [e for e in rec.events if e["kind"] == "retry"]
        assert len(retries) == 2
        assert all(e["details"]["kind"] == "error" for e in retries)
        # a span per attempt: 2 first attempts + 2 retries
        attempts = [s for s in rec.spans if s["name"] == "executor.task"]
        assert len(attempts) == 4

    def test_sigkill_crash_counts_exactly_once(self, tmp_path):
        with obs.recording() as rec:
            results = ProcessExecutor(2, max_retries=2, retry_backoff=0.02).map(
                _kill_self_once, [(index, str(tmp_path)) for index in range(3)]
            )
        assert results == [100, 101, 102]
        # only task index 0 was SIGKILLed (once, latched), then recovered
        assert rec.counters["executor.crashes"] == 1.0
        assert rec.counters["executor.retries"] == 1.0
        assert rec.counters["executor.tasks"] == 3.0
        assert "executor.task_faults" not in rec.counters
        crashed_attempts = [
            s for s in rec.spans
            if s["name"] == "executor.task" and s["args"]["status"] == "crash"
        ]
        assert len(crashed_attempts) == 1

    def test_stall_timeout_counts_exactly_once(self, tmp_path):
        with obs.recording() as rec:
            results = ProcessExecutor(
                2, task_timeout=1.0, max_retries=2, retry_backoff=0.02
            ).map(_stall_once, [(index, str(tmp_path)) for index in range(2)])
        assert results == [100, 101]
        assert rec.counters["executor.timeouts"] == 1.0
        assert rec.counters["executor.retries"] == 1.0
        assert "executor.task_faults" not in rec.counters

    def test_terminal_fault_records_fault_event(self):
        with obs.recording() as rec:
            outcomes = dict(
                ProcessExecutor(1, max_retries=1, retry_backoff=0.02).imap_unordered(
                    _always_fail, ["x"]
                )
            )
        assert isinstance(outcomes[0], TaskFault)
        assert rec.counters["executor.task_errors"] == 2.0  # initial + 1 retry
        assert rec.counters["executor.retries"] == 1.0
        assert rec.counters["executor.task_faults"] == 1.0
        faults = [e for e in rec.events if e["kind"] == "task_fault"]
        assert len(faults) == 1
        assert faults[0]["details"] == {"index": 0, "kind": "error", "attempts": 2}

    def test_untraced_protocol_unchanged(self):
        # without a recorder the pipe payload stays a 3-tuple end to end
        assert ProcessExecutor(2).map(_square, [5, 6]) == [25, 36]
        assert not obs.enabled()


def _parent_index(rec, child_span):
    """The task index of the executor.task span a child span hangs under."""
    by_id = {s["id"]: s for s in rec.spans}
    parent = by_id[child_span["parent"]]
    return parent["args"]["index"]
