"""Benchmark / reproduction of Figure 8 (experiments E9-E10): scalability.

Total execution time of repeated runs of SSPC and PROCLUS with an
increasing number of objects (8a) and dimensions (8b).  The reproduced
claims are the *shapes*: close-to-linear growth along both axes and SSPC
speed comparable to PROCLUS (absolute seconds are hardware dependent).
Thin wrapper over the registered ``figure8_scalability`` scenario.
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("figure8_scalability")


def test_figure8_scalability(bench_scale):
    """Regenerate the Figure 8 runtime scaling curves."""
    summary = SCENARIO.run(bench_scale)

    print("\n=== Figure 8: total runtime of repeated runs (SSPC vs PROCLUS) ===")
    print(summary.table)

    metrics = summary.metrics
    for axis in ("objects", "dimensions"):
        # Runtime grows with size and the growth is close to linear.  Wall
        # clock measurements on a shared machine are noisy, so the linearity
        # requirement is deliberately tolerant; the paper-scale run gives a
        # much cleaner fit.
        assert metrics["sspc_%s_slope_positive" % axis] == 1.0
        assert metrics["sspc_%s_r_squared" % axis] > 0.6
        # Comparable speed: within an order of magnitude of PROCLUS at the
        # largest size (the paper reports the two as comparable).
        assert metrics["sspc_vs_proclus_%s" % axis] < 20
