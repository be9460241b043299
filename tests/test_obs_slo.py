"""SLO tracking: rolling windows, burn rates, the fast-burn condition."""

from __future__ import annotations

import pytest

from repro.obs.slo import (
    FAST_BURN_THRESHOLD,
    MIN_WINDOW_REQUESTS,
    SLOConfig,
    SLOTracker,
    burn_rate,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_tracker(**overrides):
    clock = FakeClock()
    config = SLOConfig(**overrides)
    return SLOTracker(config, clock=clock), clock


class TestBurnRate:
    def test_exact_budget_burns_at_one(self):
        # 0.1% errors against a 99.9% target is exactly the budget.
        assert burn_rate(1, 1000, 0.999) == pytest.approx(1.0)

    def test_scales_linearly_with_bad_fraction(self):
        assert burn_rate(10, 1000, 0.999) == pytest.approx(10.0)

    def test_zero_requests_is_zero_burn(self):
        assert burn_rate(0, 0, 0.999) == 0.0


class TestSLOConfig:
    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            SLOConfig(availability_target=1.5)
        with pytest.raises(ValueError):
            SLOConfig(latency_target=0.0)
        with pytest.raises(ValueError):
            SLOConfig(latency_budget_ms=-1.0)


class TestSLOTracker:
    def test_all_ok_traffic_reports_clean(self):
        tracker, clock = make_tracker()
        for _ in range(100):
            tracker.record(ok=True, latency_s=0.01)
            clock.advance(0.1)
        window = tracker.window(60)
        assert window["requests"] == 100
        assert window["errors"] == 0
        assert window["availability"] == 1.0
        assert window["availability_burn"] == 0.0
        assert not tracker.fast_burn()
        assert tracker.report()["status"] == "ok"

    def test_errors_raise_availability_burn(self):
        tracker, clock = make_tracker()
        for i in range(100):
            tracker.record(ok=(i % 2 == 0), latency_s=0.01)
            clock.advance(0.1)
        window = tracker.window(60)
        assert window["errors"] == 50
        assert window["availability"] == pytest.approx(0.5)
        # 50% bad against a 0.1% budget: burn = 0.5 / 0.001 = 500.
        assert window["availability_burn"] == pytest.approx(500.0)

    def test_slow_requests_raise_latency_burn_only(self):
        tracker, clock = make_tracker(latency_budget_ms=50.0)
        for _ in range(100):
            tracker.record(ok=True, latency_s=0.2)  # 200ms > 50ms budget
            clock.advance(0.1)
        window = tracker.window(60)
        assert window["errors"] == 0
        assert window["slow"] == 100
        assert window["availability_burn"] == 0.0
        assert window["latency_burn"] > 14.4

    def test_fast_burn_requires_min_requests(self):
        tracker, _ = make_tracker()
        assert MIN_WINDOW_REQUESTS == 10
        for _ in range(5):
            tracker.record(ok=False, latency_s=0.01)
        assert not tracker.fast_burn(), "5 requests must not page anyone"
        for _ in range(20):
            tracker.record(ok=False, latency_s=0.01)
        assert tracker.fast_burn()
        assert tracker.report()["status"] == "fast_burn"

    def test_old_traffic_ages_out_of_short_windows(self):
        tracker, clock = make_tracker()
        for _ in range(50):
            tracker.record(ok=False, latency_s=0.01)
        clock.advance(120.0)  # past the 1m window, inside 5m and 1h
        tracker.record(ok=True, latency_s=0.01)
        assert tracker.window(60)["errors"] == 0
        assert tracker.window(300)["errors"] == 50
        assert tracker.window(3600)["errors"] == 50
        assert not tracker.fast_burn(), "burn must subside once the 1m window clears"

    def test_huge_clock_gap_resets_all_windows(self):
        tracker, clock = make_tracker()
        for _ in range(50):
            tracker.record(ok=False, latency_s=0.01)
        clock.advance(7200.0)  # beyond the longest window
        tracker.record(ok=True, latency_s=0.01)
        assert tracker.window(3600)["errors"] == 0
        assert tracker.window(3600)["requests"] == 1

    def test_report_shape(self):
        tracker, _ = make_tracker()
        tracker.record(ok=True, latency_s=0.01)
        report = tracker.report()
        assert set(report) == {"objectives", "windows", "fast_burn", "status"}
        assert report["objectives"]["fast_burn_threshold"] == FAST_BURN_THRESHOLD == 14.4
        assert set(report["windows"]) == {"1m", "5m", "1h"}
        for window in report["windows"].values():
            assert set(window) >= {
                "requests",
                "errors",
                "slow",
                "availability",
                "latency_ok",
                "availability_burn",
                "latency_burn",
            }
