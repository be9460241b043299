"""Benchmark / reproduction of Figure 5 (experiment E6): accuracy vs input size.

Coverage is fixed at 1.0 and the number of labeled items per cluster is
swept, for labeled objects only, labeled dimensions only, and both.  The
workload mimics a gene-expression matrix whose clusters use only 1% of
the dimensions.  Thin wrapper over the registered ``figure5_input_size``
scenario.

Reduced scale (default): n = 150, d = 800, l_real = 8 (1% of d),
3 knowledge draws per point.
Paper scale: n = 150, d = 3000, l_real = 30, 10 knowledge draws.
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("figure5_input_size")


def test_figure5_input_size(bench_scale):
    """Regenerate the Figure 5 accuracy-vs-input-size curves."""
    summary = SCENARIO.run(bench_scale)

    print("\n=== Figure 5: median ARI vs input size (coverage = 1, 1%-dimensional clusters) ===")
    print(summary.table)

    series = {
        category: {float(size): ari for size, ari in curve.items()}
        for category, curve in summary.details["series"].items()
    }
    sizes = sorted(next(iter(series.values())))
    largest = sizes[-1]

    # Knowledge improves accuracy markedly over each category's raw run.
    for category in ("objects", "dimensions", "both"):
        assert series[category][largest] > series[category][0] + 0.1
    # Labeled dimensions are especially effective at this extremely low
    # dimensionality (the paper's observation about input-kind complementarity).
    mid = sizes[1]
    assert series["dimensions"][mid] >= series["objects"][mid] - 0.1
    # With a healthy amount of knowledge the clustering is close to perfect.
    assert series["dimensions"][largest] > 0.7
