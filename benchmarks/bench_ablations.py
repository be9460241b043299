"""Ablation benchmarks A1-A3 (design choices called out in DESIGN.md).

Not part of the paper's evaluation; these isolate the design decisions
the paper argues for — median-based representatives, grid-based
seed-group initialisation and the two threshold schemes.  Thin wrapper
over the registered ``ablations`` scenario (one task per ablation).
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("ablations")


def test_ablations(bench_scale):
    """A1-A3: representatives, initialisation and threshold schemes."""
    summary = SCENARIO.run(bench_scale)

    print("\n=== Ablations A1-A3 (design choices) ===")
    print(summary.table)

    metrics = summary.metrics
    # A1: the median variant should not lose to the mean variant by a wide
    # margin on contaminated data (it is the robustness-motivated choice).
    assert metrics["representative_margin"] >= -0.1
    # A2: seed-group initialisation beats random full-space medoids.
    assert metrics["initialisation_margin"] >= 0.0
    # A3: both threshold schemes work on both global distributions.
    assert metrics["threshold_min_ari"] > 0.5
