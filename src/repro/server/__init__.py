"""``repro.server`` — the asyncio micro-batching serving daemon.

The serving subsystem's network layer: a single-process asyncio event
loop speaking hand-rolled HTTP/1.1 (no dependencies beyond the standard
library) in front of a fleet of worker processes that share one
memory-mapped :class:`~repro.serving.artifact.ModelArtifact`.

Layers, bottom up:

* :mod:`repro.server.http` — minimal HTTP/1.1 request parsing and
  response rendering over :mod:`asyncio` streams (keep-alive,
  content-length bodies, nothing else — the daemon speaks exactly as
  much HTTP as a load balancer needs).
* :mod:`repro.server.batcher` — :class:`~repro.server.batcher.MicroBatcher`,
  the adaptive request coalescer: concurrent single-point ``/predict``
  requests are stacked into one blocked-kernel
  :meth:`~repro.serving.index.ProjectedClusterIndex.predict` call
  (flush on max-batch or max-wait, with the wait adapting to observed
  concurrency so solo traffic pays no batching latency).
* :mod:`repro.server.pool` — the compute backends: an in-process index
  (``workers=0``: reads run on the event loop, writes on a compute
  thread) or N worker processes each mapping the same artifact
  (``load_artifact(..., mmap_mode="r")``), with worker 0 as the single
  *owner* of the write path — ``partial_update`` folds there, a new
  artifact generation is persisted crash-safely, and replicas reload it.
* :mod:`repro.server.app` — :class:`~repro.server.app.PredictServer`,
  the routed application (``/predict``, ``/predict_soft``,
  ``/partial_update``, ``/healthz``, ``/metrics`` — JSON or
  ``?format=prometheus`` — and ``/debug/tail_trace``), with
  request-scoped telemetry (:mod:`repro.obs.telemetry`) always on.
* :mod:`repro.server.cli` — the ``repro-server`` console script.

Start one from Python::

    from repro.server import PredictServer, ServerConfig
    server = PredictServer("artifacts/expr-v1", ServerConfig(port=0))
    host, port = await server.start()

or from a shell::

    repro-server artifacts/expr-v1 --port 8757 --workers 2
"""

from repro.server.app import PredictServer, ServerConfig
from repro.server.batcher import BatcherStats, MicroBatcher
from repro.server.pool import InProcessBackend, WorkerPoolBackend, make_backend

__all__ = [
    "BatcherStats",
    "InProcessBackend",
    "MicroBatcher",
    "PredictServer",
    "ServerConfig",
    "WorkerPoolBackend",
    "make_backend",
]
