"""Benchmark / reproduction of the Section 5.2 outlier-immunity experiment (E5).

Datasets with 0% to 25% outliers; the paper reports only a moderate
accuracy decrease and a detected-outlier count that closely tracks the
true count (the corresponding figure is omitted from the paper, so the
numbers here are the reproduced table).  Thin wrapper over the
registered ``outlier_immunity`` scenario.
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("outlier_immunity")


def test_outlier_immunity(bench_scale):
    """Regenerate the outlier-immunity table."""
    summary = SCENARIO.run(bench_scale)

    print("\n=== Section 5.2: SSPC accuracy and outlier detection vs outlier fraction ===")
    print(summary.table)

    # Moderate accuracy decrease only.
    assert summary.metrics["clean_ari"] > 0.8
    assert summary.metrics["ari_drop"] < 0.35
