"""Benchmark / reproduction of Figure 3 (experiment E3): raw accuracy.

Best-of-repeats ARI of SSPC (m and p variants), PROCLUS (correct ``l``),
HARP and CLARANS on datasets whose average cluster dimensionality sweeps
from 5% to 40% of ``d``, with no input knowledge.  Thin wrapper over the
registered ``figure3_raw_accuracy`` scenario.

Reduced scale (default): n = 400, d = 100, 2 repeats.
Paper scale (REPRO_BENCH_SCALE=paper): n = 1000, d = 100, 10 repeats.
"""

from __future__ import annotations

import numpy as np

from repro.bench import registry

SCENARIO = registry.get("figure3_raw_accuracy")


def test_figure3_raw_accuracy(bench_scale):
    """Regenerate the Figure 3 accuracy-vs-dimensionality comparison."""
    summary = SCENARIO.run(bench_scale)
    print("\n=== Figure 3: best raw ARI vs average cluster dimensionality (d = 100) ===")
    print(summary.table)

    series = summary.details["series"]

    def curve(prefix):
        for algorithm, values in series.items():
            if algorithm.startswith(prefix):
                return {float(l_key): ari for l_key, ari in values.items()}
        raise KeyError(prefix)

    sspc_m = curve("SSPC(m")
    proclus = curve("PROCLUS")
    clarans = curve("CLARANS")
    l_values = sorted(sspc_m)

    # Shape 1: projected algorithms beat the non-projected reference overall.
    assert np.mean(list(sspc_m.values())) > np.mean(list(clarans.values()))
    # Shape 2: SSPC holds up at the lowest dimensionality (5% of d), where it
    # has the mildest drop of the projected algorithms.
    lowest = l_values[0]
    assert sspc_m[lowest] >= proclus[lowest] - 0.05
    assert sspc_m[lowest] > 0.5
    # Shape 3: at moderate-to-high dimensionality every projected algorithm is strong.
    highest = l_values[-1]
    assert sspc_m[highest] > 0.8
