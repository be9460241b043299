"""Benchmark / reproduction of Figure 2 (experiment E2).

Probability that at least one grid uses dimensions relevant to the target
cluster only, as a function of the number of labeled dimensions, for
several ``d_i / d`` ratios.  Thin wrapper over the registered
``figure2_knowledge_analysis`` scenario (d = 3000, k = 5, c = 3, g = 20).
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("figure2_knowledge_analysis")


def test_figure2_curves(bench_scale):
    """Regenerate the Figure 2 probability curves."""
    summary = SCENARIO.run(bench_scale)
    print("\n=== Figure 2: P(at least one exclusively-relevant grid) vs labeled dimensions ===")
    print(summary.table)

    metrics = summary.metrics
    # The paper's observation: labeled dimensions are more effective when the
    # cluster dimensionality is extremely low.
    assert metrics["low_dim_advantage"] >= 0.0
    assert metrics["prob_size5_frac1"] > 0.9

    # Complementarity with Figure 1: at di/d = 1% and small input sizes,
    # labeled dimensions beat labeled objects.
    assert metrics["dims_beat_objects_at3"] == 1.0
