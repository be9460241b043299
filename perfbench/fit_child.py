"""One fit repetition in a fresh interpreter (the process under test).

Usage: ``python3 perfbench/fit_child.py JOB.json``.  The job names the
data (an ``.npy`` the parent generated), the knowledge pairs, the seed
and where to write the result.  The import of ``repro.core`` is the
set-up the parent times (spawn to ``ready``; with ``setup_only`` the child
stops there); the fit is timed here, with a host-speed reading
(``common.reference_s``) before and after it.  With ``trace`` set, the fit runs
under ``repro.obs.recording()`` inside a ``bench.fit`` span, the
seed-group builder is wrapped to count groups, and the builder's grid
constructions and peak searches are timed one by one.
"""

import json
import sys
import time


def _knowledge(job):
    from repro.semisupervision import Knowledge

    pairs = job["knowledge"]
    return Knowledge.from_pairs(
        [tuple(pair) for pair in pairs["objects"]],
        [tuple(pair) for pair in pairs["dimensions"]],
    )


def _count_seed_groups(counts):
    """Wrap SeedGroupBuilder.build to record how many groups it returned."""
    from repro import obs
    from repro.core import SeedGroupBuilder

    original = SeedGroupBuilder.build

    def build(self, random_state=None):
        with obs.span("bench.seed_groups.build", category="bench"):
            private, public = original(self, random_state)
        counts["private"] = len(private)
        counts["public"] = len(public)
        return private, public

    SeedGroupBuilder.build = build


def _time_grids(times):
    """Time every grid the seed-group builder makes: construction and peak search.

    Replaces ``Grid`` in the builder's module with a subclass that appends
    the seconds of each ``Grid(...)`` to ``times["build"]`` and of each
    ``hill_climb`` / ``absolute_peak`` to ``times["peak"]``.
    """
    import repro.core.seed_groups as seed_groups_module

    base = seed_groups_module.Grid

    def timed(key, call, *args, **kwargs):
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            times[key].append(time.perf_counter() - start)

    class TimedGrid(base):
        def __init__(self, *args, **kwargs):
            timed("build", super().__init__, *args, **kwargs)

        def hill_climb(self, start_point):
            return timed("peak", super().hill_climb, start_point)

        def absolute_peak(self):
            return timed("peak", super().absolute_peak)

    seed_groups_module.Grid = TimedGrid


def main(job_path):
    from repro.core import SSPC

    ready = time.monotonic()
    import common

    result = {"ready": ready, "ready_reference": common.reference_s()}
    with open(job_path) as handle:
        job = json.load(handle)
    if job.get("setup_only"):
        with open(job["out"], "w") as handle:
            json.dump(result, handle)
        return
    import numpy as np

    data = np.load(job["data"])
    knowledge = _knowledge(job)
    model = SSPC(job["n_clusters"], random_state=job["random_state"])
    if job["trace"]:
        from repro import obs

        counts = {}
        grid_times = {"build": [], "peak": []}
        _count_seed_groups(counts)
        _time_grids(grid_times)
        with obs.recording() as recorder:
            with recorder.span("bench.fit", category="bench"):
                start = time.perf_counter()
                model.fit(data, knowledge)
                result["fit_s"] = time.perf_counter() - start
        result["trace_state"] = recorder.export_state()
        result["seed_groups"] = counts
        result["grid_times"] = grid_times
        result["grids_per_group"] = model.grids_per_group
    else:
        start = time.perf_counter()
        model.fit(data, knowledge)
        result["fit_s"] = time.perf_counter() - start
    result["fit_reference"] = common.reference_s()
    np.save(job["labels_out"], model.labels_)
    result["n_iterations"] = int(model.n_iterations_)
    result["peak_rss_mib"] = common.peak_rss_mib()
    with open(job["out"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
