"""Benchmark / reproduction of Figure 4 (experiment E4): parameter sensitivity.

On the l_real = 10 dataset, sweep PROCLUS's ``l`` parameter and SSPC's
``m`` / ``p`` parameters.  The paper's point: PROCLUS is accurate only
near the correct ``l`` while SSPC stays accurate across its whole
parameter range.  Thin wrapper over the registered
``figure4_parameter_sensitivity`` scenario.
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("figure4_parameter_sensitivity")


def test_figure4_parameter_sensitivity(bench_scale):
    """Regenerate the Figure 4 parameter-sensitivity comparison."""
    summary = SCENARIO.run(bench_scale)

    print("\n=== Figure 4: ARI under different parameter values (l_real = 10) ===")
    print(summary.table)

    metrics = summary.metrics
    # SSPC stays accurate across the whole parameter range.
    assert metrics["sspc_m_min_ari"] > 0.6
    assert metrics["sspc_p_min_ari"] > 0.6
    # SSPC's spread across parameter values is no worse than PROCLUS's spread
    # across l values (robustness claim).
    assert metrics["sspc_m_spread"] <= metrics["proclus_spread"] + 0.1
    # PROCLUS peaks near the true l value.
    assert abs(metrics["proclus_best_l"] - 10) <= 6
