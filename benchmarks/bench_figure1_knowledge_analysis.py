"""Benchmark / reproduction of Figure 1 (experiment E1).

Probability that at least one initialisation grid is formed by relevant
dimensions only, as a function of the number of labeled objects, for
several ``d_i / d`` ratios.  Thin wrapper over the registered
``figure1_knowledge_analysis`` scenario (paper parameters: d = 3000,
p = 0.01, c = 3, g = 20, variance ratio 0.15).
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("figure1_knowledge_analysis")


def test_figure1_curves(bench_scale):
    """Regenerate the Figure 1 probability curves."""
    summary = SCENARIO.run(bench_scale)
    print("\n=== Figure 1: P(at least one all-relevant grid) vs labeled objects ===")
    print(summary.table)

    # Shape checks mirroring the paper's observations.
    metrics = summary.metrics
    assert metrics["prob_size5_frac5"] > 0.9, (
        "with di/d = 5%, five labeled objects should give a near-certain all-relevant grid"
    )
    assert metrics["prob_size5_frac1"] < metrics["prob_size5_frac5"], (
        "labeled objects are less effective at lower di/d"
    )
    assert metrics["monotonic"] == 1.0, "curves must be non-decreasing"
