"""``repro-server`` — boot the serving daemon from a shell.

Usage::

    repro-server artifacts/expr-v1 --port 8757 --workers 2

Prints one ``READY host=... port=...`` line to stdout once the listener
is bound (CI's daemon smoke test waits for it), then serves until
SIGINT/SIGTERM.  Each flag but the artifact sets the
:class:`~repro.server.app.ServerConfig` field of the same name.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import signal
import sys
from typing import Optional, Sequence

from repro.server.app import ArtifactInStateDirError, PredictServer, ServerConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve a saved ModelArtifact over HTTP with micro-batched predicts.",
    )
    parser.add_argument("artifact", help="artifact directory (MANIFEST.json + arrays.npz)")
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8757, help="bind port, 0 for ephemeral (default %(default)s)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes sharing the mmap'd artifact; 0 serves in-process (default)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, help="micro-batcher flush size (default %(default)s)"
    )
    parser.add_argument(
        "--max-wait-us",
        type=float,
        default=2000.0,
        help="micro-batcher max coalescing wait in microseconds (default %(default)s)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="where partial_update generations are persisted (default: private tempdir)",
    )
    parser.add_argument(
        "--slo-availability-target",
        type=float,
        default=0.999,
        help="fraction of requests that must not be 5xx (default %(default)s)",
    )
    parser.add_argument(
        "--slo-latency-budget-ms",
        type=float,
        default=250.0,
        help="per-request latency budget in milliseconds (default %(default)s)",
    )
    parser.add_argument(
        "--slo-latency-target",
        type=float,
        default=0.99,
        help="fraction of requests that must meet the latency budget (default %(default)s)",
    )
    return parser


async def _run(config: ServerConfig, artifact: str) -> int:
    server = PredictServer(artifact, config)
    host, port = await server.start()
    print("READY host=%s port=%d workers=%d" % (host, port, config.workers), flush=True)
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    try:
        await stop_event.wait()
    finally:
        await server.stop()
    print("STOPPED", flush=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServerConfig(
        **{field.name: getattr(args, field.name) for field in dataclasses.fields(ServerConfig)}
    )
    try:
        return asyncio.run(_run(config, args.artifact))
    except ArtifactInStateDirError as error:
        print("repro-server: %s" % error, file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C fallback
        return 130


if __name__ == "__main__":
    sys.exit(main())
