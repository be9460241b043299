"""The observability overhead gate: bounded cost, bit identity, coverage."""

from __future__ import annotations

import pytest

from repro import obs
from repro.bench.perf_obs import (
    MIN_SUBSYSTEM_CATEGORIES,
    measure_disabled_hook_seconds,
    run_benchmark,
    run_workload,
)


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def tiny_args(**overrides):
    params = dict(
        n_objects=240,
        n_dimensions=16,
        n_clusters=3,
        fit_iterations=3,
        stream_batches=2,
        batch_size=60,
        telemetry_requests=50,
        repeats=1,
        seed=23,
    )
    params.update(overrides)
    return params


class TestOverheadGate:
    def test_report_passes_all_three_gates(self):
        report = run_benchmark(tiny_args())
        assert report["overhead_disabled_ok"]
        assert report["enabled_bit_identical"]
        assert report["subsystem_coverage_ok"]
        assert len(report["categories"]) >= MIN_SUBSYSTEM_CATEGORIES
        assert report["n_hook_calls"] > 0
        assert report["overhead_disabled_pct"] >= 0.0

    def test_workload_fingerprint_deterministic(self):
        assert run_workload(tiny_args()) == run_workload(tiny_args())

    def test_workload_fingerprint_tracks_config(self):
        assert run_workload(tiny_args()) != run_workload(tiny_args(seed=24))

    def test_disabled_hook_cost_is_sub_microsecond(self):
        # the "provably cheap" premise: one global load + None test
        assert measure_disabled_hook_seconds() < 1e-6

    def test_benchmark_leaves_obs_disabled(self):
        run_benchmark(tiny_args())
        assert not obs.enabled()

    def test_workload_unperturbed_by_outer_recorder(self):
        plain = run_workload(tiny_args())
        with obs.recording():
            traced = run_workload(tiny_args())
        assert plain == traced

    def test_telemetry_leg_is_deterministic_and_priced(self):
        from repro.bench.perf_obs import run_telemetry_workload

        assert run_telemetry_workload(tiny_args()) == run_telemetry_workload(tiny_args())
        assert run_telemetry_workload(tiny_args()) != run_telemetry_workload(
            tiny_args(telemetry_requests=51)
        )
        report = run_benchmark(tiny_args())
        assert report["n_telemetry_requests"] == 50
        assert report["per_telemetry_record_ns"] > 0
        assert report["telemetry_overhead_pct"] >= 0.0
        # the gated bound includes the telemetry term
        assert report["overhead_disabled_pct"] >= report["telemetry_overhead_pct"]
