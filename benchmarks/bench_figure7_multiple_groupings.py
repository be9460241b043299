"""Benchmark / reproduction of Figure 7 (experiment E8): multiple groupings.

Two independent groupings concatenated dimension-wise; HARP, PROCLUS and
SSPC are evaluated against both ground truths, and SSPC is additionally
guided by knowledge from each grouping in turn.  The reproduced shape:
unsupervised algorithms recover at most one grouping (or neither), while
guided SSPC recovers whichever grouping its knowledge comes from.
Thin wrapper over the registered ``figure7_multiple_groupings`` scenario.
"""

from __future__ import annotations

from repro.bench import registry

SCENARIO = registry.get("figure7_multiple_groupings")


def test_figure7_multiple_groupings(bench_scale):
    """Regenerate the Figure 7 comparison."""
    summary = SCENARIO.run(bench_scale)

    print("\n=== Figure 7: ARI against the two possible groupings ===")
    print(summary.table)

    # The headline result: the supplied knowledge decides which grouping is found.
    assert summary.metrics["guided1_margin"] > 0.2
    assert summary.metrics["guided2_margin"] > 0.2
