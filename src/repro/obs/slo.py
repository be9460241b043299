"""Service-level objectives: rolling windows, error budgets, burn rates.

A service declares two objectives:

* **availability** — at least ``availability_target`` of requests must
  not fail with a server error (5xx);
* **latency** — at least ``latency_target`` of requests must finish
  within ``latency_budget_ms``.

:class:`SLOTracker` records one ``(ok, latency)`` sample per request
into per-second ring buffers and evaluates both objectives over
rolling 1m/5m/1h windows.  The headline number per window is the
**burn rate**: the ratio of the observed bad fraction to the error
budget (``1 - target``).  Burn 1.0 means the budget is being consumed
exactly as fast as the objective allows; burn 14.4 over an hour-long
budget period means the whole budget would be gone in ~1/14th of the
period.  Following the standard multi-window alerting recipe, the
tracker reports ``fast_burn`` when *both* the 1m and 5m windows burn
above :data:`FAST_BURN_THRESHOLD` (the short window proves it is
happening right now, the longer one proves it is not a blip) and each
holds at least :data:`MIN_WINDOW_REQUESTS` requests — the serving
daemon degrades ``/healthz`` on that signal.

:class:`SLOConfig` mirrors the ``repro-server`` command line: each
field is the ``--slo-*`` flag of its name; the alerting threshold and
the warm-up floor are module constants.

Recording is O(1); evaluating a window walks its seconds once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs import core

__all__ = ["FAST_BURN_THRESHOLD", "MIN_WINDOW_REQUESTS", "SLOConfig", "SLOTracker", "WINDOWS"]

#: Rolling evaluation windows: (seconds, label).
WINDOWS = ((60, "1m"), (300, "5m"), (3600, "1h"))
#: Burn rate above which (on both 1m and 5m windows) the tracker reports
#: ``fast_burn``.  14.4 is the classic "2% of a 30-day budget in one
#: hour" pager threshold.
FAST_BURN_THRESHOLD = 14.4
#: Windows with fewer requests than this never trip ``fast_burn`` (a
#: single failed request during warm-up is not an incident).
MIN_WINDOW_REQUESTS = 10


@dataclass(frozen=True)
class SLOConfig:
    """Declared objectives: each field is the ``repro-server --slo-*`` flag of its name."""

    #: Fraction of requests that must not be server errors (5xx).
    availability_target: float = 0.999
    #: Per-request latency budget; slower requests burn the latency SLO.
    latency_budget_ms: float = 250.0
    #: Fraction of requests that must land within ``latency_budget_ms``.
    latency_target: float = 0.99

    def __post_init__(self) -> None:
        for name in ("availability_target", "latency_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError("%s must be in (0, 1), got %r" % (name, value))
        if self.latency_budget_ms <= 0:
            raise ValueError("latency_budget_ms must be positive")


def burn_rate(bad: int, total: int, target: float) -> float:
    """Budget burn rate for a window: bad fraction over error budget."""
    if total <= 0:
        return 0.0
    return (bad / total) / (1.0 - target)


class SLOTracker:
    """Per-second ring buffers evaluating the declared objectives."""

    SLOTS = 3600  # one hour of one-second resolution

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.config = config or SLOConfig()
        self._clock = clock or core.monotonic
        self._epoch = self._clock()
        self._last_second = 0
        self._totals = [0] * self.SLOTS
        self._errors = [0] * self.SLOTS
        self._slow = [0] * self.SLOTS

    def _advance(self) -> int:
        """Zero any slots skipped since the last call; return 'now'."""
        now_second = int(self._clock() - self._epoch)
        gap = now_second - self._last_second
        if gap > 0:
            if gap >= self.SLOTS:
                self._totals = [0] * self.SLOTS
                self._errors = [0] * self.SLOTS
                self._slow = [0] * self.SLOTS
            else:
                for second in range(self._last_second + 1, now_second + 1):
                    slot = second % self.SLOTS
                    self._totals[slot] = 0
                    self._errors[slot] = 0
                    self._slow[slot] = 0
            self._last_second = now_second
        return now_second

    def record(self, ok: bool, latency_s: float) -> None:
        """Record one finished request (O(1))."""
        slot = self._advance() % self.SLOTS
        self._totals[slot] += 1
        if not ok:
            self._errors[slot] += 1
        if latency_s * 1e3 > self.config.latency_budget_ms:
            self._slow[slot] += 1

    def window(self, seconds: int) -> Dict[str, float]:
        """Evaluate both objectives over the trailing ``seconds``."""
        now_second = self._advance()
        span = min(int(seconds), self.SLOTS, now_second + 1)
        total = errors = slow = 0
        for second in range(now_second - span + 1, now_second + 1):
            slot = second % self.SLOTS
            total += self._totals[slot]
            errors += self._errors[slot]
            slow += self._slow[slot]
        config = self.config
        return {
            "seconds": span,
            "requests": total,
            "errors": errors,
            "slow": slow,
            "availability": 1.0 - errors / total if total else 1.0,
            "latency_ok": 1.0 - slow / total if total else 1.0,
            "availability_burn": burn_rate(errors, total, config.availability_target),
            "latency_burn": burn_rate(slow, total, config.latency_target),
        }

    def fast_burn(self) -> bool:
        """True when both short windows burn above :data:`FAST_BURN_THRESHOLD`."""
        for seconds in (60, 300):
            window = self.window(seconds)
            if window["requests"] < MIN_WINDOW_REQUESTS:
                return False
            burn = max(window["availability_burn"], window["latency_burn"])
            if burn <= FAST_BURN_THRESHOLD:
                return False
        return True

    def report(self) -> Dict[str, object]:
        """JSON-ready report: objectives, every window, burn status."""
        config = self.config
        fast_burn = self.fast_burn()
        return {
            "objectives": {
                "availability_target": config.availability_target,
                "latency_budget_ms": config.latency_budget_ms,
                "latency_target": config.latency_target,
                "fast_burn_threshold": FAST_BURN_THRESHOLD,
            },
            "windows": {
                label: self.window(seconds) for seconds, label in WINDOWS
            },
            "fast_burn": fast_burn,
            "status": "fast_burn" if fast_burn else "ok",
        }
