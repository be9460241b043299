"""Benchmark / reproduction of Figure 6 (experiment E7): accuracy vs coverage.

The input size is fixed (6 in the paper) and the fraction of clusters
receiving knowledge sweeps from 0 to 1.  The paper observes a general
accuracy increase with coverage and near-peak performance already at 60%
coverage thanks to the max-min mechanism for the uncovered clusters.
Thin wrapper over the registered ``figure6_coverage`` scenario.
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("figure6_coverage")


def test_figure6_coverage(bench_scale):
    """Regenerate the Figure 6 accuracy-vs-coverage curves."""
    summary = SCENARIO.run(bench_scale)

    print("\n=== Figure 6: median ARI vs knowledge coverage (input size = 6) ===")
    print(summary.table)

    # General trend: more coverage does not hurt, and full coverage beats
    # none, for every category.
    assert summary.metrics["coverage_gain_min"] > 0.05
    # Partial coverage already recovers a large share of the benefit (the
    # paper reaches its peak at 60% coverage thanks to the max-min
    # mechanism): at >= 60% coverage at least half of the none-to-full
    # improvement is realised.
    assert summary.metrics["partial_recovery_margin"] >= -0.05
