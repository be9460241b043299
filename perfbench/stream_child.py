"""The stream workload's process under test.

Usage: ``python3 perfbench/stream_child.py JOB.json``.  Imports the
library and builds a ``StreamingSSPC`` from the artifact the parent saved
(the set-up: the parent times spawn to ``ready``; with ``setup_only`` the
child stops there), then feeds it the parent's pre-generated batches read
from a raw float64 file, checkpointing every ``checkpoint_every`` batches.
Reading a batch is off the clock, and so are the host-speed readings
taken after set-up and after every checkpoint.  With ``trace`` set, the engine runs
under ``repro.obs.recording()`` with a ``bench.batch`` span around every
``process_batch``, a ``bench.checkpoint`` span around every checkpoint
and a ``bench.spawn_search`` span around every spawn-candidate search.
"""

import contextlib
import json
import sys
import time


def _wrap_spawn_search():
    import repro.stream.engine as engine_module
    from repro import obs

    original = engine_module.find_spawn_candidate

    def find_spawn_candidate(*args, **kwargs):
        with obs.span("bench.spawn_search", category="bench"):
            return original(*args, **kwargs)

    engine_module.find_spawn_candidate = find_spawn_candidate


def _stream(job, engine, batches, span):
    """Feed every batch; return labels, batch and checkpoint ms, and references.

    A host-speed reading (``common.reference_s``) follows every segment of
    ``checkpoint_every`` batches and its checkpoint, and the last segment.
    """
    import common
    import numpy as np

    rows, d = job["batch_size"], job["n_dimensions"]
    labels, batch_ms, checkpoint_ms, references = [], [], [], []
    checkpoint_dir = job["checkpoint_dir"]
    for index in range(job["n_batches"]):
        points = np.fromfile(batches, dtype="<f8", count=rows * d).reshape(rows, d)
        with span("bench.batch"):
            start = time.perf_counter()
            result = engine.process_batch(points)
            batch_ms.append(1e3 * (time.perf_counter() - start))
        labels.append(result.labels)
        if (index + 1) % job["checkpoint_every"] == 0:
            with span("bench.checkpoint"):
                start = time.perf_counter()
                engine.checkpoint(checkpoint_dir)
                checkpoint_ms.append(1e3 * (time.perf_counter() - start))
        if (index + 1) % job["checkpoint_every"] == 0 or index + 1 == job["n_batches"]:
            references.append(common.reference_s())
    return np.concatenate(labels), batch_ms, checkpoint_ms, references


def main(job_path):
    from repro.serving.artifact import ModelArtifact
    from repro.stream.engine import StreamConfig, StreamingSSPC

    with open(job_path) as handle:
        job = json.load(handle)
    engine = StreamingSSPC(
        ModelArtifact.load(job["artifact"]),
        config=StreamConfig(seed=job["seed"], projection_window=job["projection_window"]),
    )
    result = {"ready": time.monotonic()}
    import common

    result["ready_reference"] = common.reference_s()
    if job.get("setup_only"):
        with open(job["out"], "w") as handle:
            json.dump(result, handle)
        return

    import numpy as np

    with open(job["batches"], "rb") as batches:
        if job["trace"]:
            from repro import obs

            _wrap_spawn_search()
            with obs.recording() as recorder:
                labels, batch_ms, checkpoint_ms, references = _stream(
                    job, engine, batches, lambda name: recorder.span(name, category="bench")
                )
            result["trace_state"] = recorder.export_state()
        else:
            labels, batch_ms, checkpoint_ms, references = _stream(
                job, engine, batches, lambda name: contextlib.nullcontext()
            )
    result["references"] = [result["ready_reference"]] + references
    result["peak_rss_mib"] = common.peak_rss_mib()
    np.save(job["labels_out"], labels)
    model = engine.index.export_artifact()
    result.update(
        batch_ms=batch_ms,
        checkpoint_ms=checkpoint_ms,
        spawns=engine.n_spawned,
        spawns_rejected=engine.n_spawns_rejected,
        retires=engine.n_retired,
        drift_refreshes=engine.n_drift_refreshes,
        n_clusters=engine.n_clusters,
        projection_rows=int(
            sum(c.member_projections.shape[0] for c in model.clusters
                if c.member_projections is not None)
        ),
    )
    with open(job["out"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
