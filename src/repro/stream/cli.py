"""Command-line entry points for the streaming subsystem.

Three subcommands cover the stream lifecycle::

    # generate a drifting stream, run the engine over it, checkpoint
    python -m repro.stream run --checkpoint ck/ --n-batches 40 \\
        --drift mean_shift --drift-batch 20 --seed 0

    # resume a checkpointed stream and continue where it stopped
    python -m repro.stream replay --checkpoint ck/ --n-batches 20

    # look inside a checkpoint (engine state + model artifact)
    python -m repro.stream inspect --checkpoint ck/ --json

``run`` fits the initial model on a warmup block drawn from the
pre-drift populations, then drives every batch through
:class:`~repro.stream.engine.StreamingSSPC`, reporting per-phase
accuracy (the generator carries ground truth) and every adaptation
event.  The stream recipe is recorded in the checkpoint metadata, which
is what lets ``replay`` regenerate the exact same stream and continue
from the stored batch position — batches are a pure function of
``(seed, batch_index)``, so a resumed run is bit-identical to an
uninterrupted one.  The same console script is installed as
``repro-stream`` (see ``pyproject.toml``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.data.streams import DriftingStreamGenerator, make_drift_schedule
from repro.evaluation import adjusted_rand_index
from repro.stream.checkpoint import checkpoint_metadata, describe_checkpoint, load_checkpoint
from repro.stream.engine import StreamConfig, StreamingSSPC

__all__ = ["main", "build_parser"]

_DRIFT_KINDS = ("none", "mean_shift", "dimension_drift", "birth", "death", "mixed")


# ---------------------------------------------------------------------- #
# stream recipe <-> generator
# ---------------------------------------------------------------------- #
def _stream_spec_from_args(args: argparse.Namespace) -> Dict[str, object]:
    """The JSON-safe stream recipe recorded in checkpoint metadata."""
    return {
        "n_dimensions": int(args.n_dimensions),
        "n_clusters": int(args.n_clusters),
        "avg_cluster_dimensionality": int(args.cluster_dim),
        "outlier_fraction": float(args.outlier_fraction),
        "drift": str(args.drift),
        "drift_batch": int(args.drift_batch),
        "drift_cluster": int(args.drift_cluster),
        "drift_magnitude": float(args.drift_magnitude),
        "batch_size": int(args.batch_size),
        "seed": int(args.seed),
    }


def _generator_from_spec(spec: Dict[str, object]) -> DriftingStreamGenerator:
    return DriftingStreamGenerator(
        n_dimensions=int(spec["n_dimensions"]),
        n_clusters=int(spec["n_clusters"]),
        avg_cluster_dimensionality=int(spec["avg_cluster_dimensionality"]),
        outlier_fraction=float(spec["outlier_fraction"]),
        events=make_drift_schedule(
            str(spec["drift"]),
            drift_batch=int(spec["drift_batch"]),
            cluster=int(spec["drift_cluster"]),
            magnitude=float(spec["drift_magnitude"]),
        ),
        random_state=int(spec["seed"]),
    )


def _config_from_args(args: argparse.Namespace) -> StreamConfig:
    return StreamConfig(
        outlier_buffer_size=args.buffer_size,
        lifecycle_every=args.lifecycle_every,
        spawn_min_points=args.spawn_min_points,
        max_clusters=args.max_clusters,
        drift_check_every=args.drift_every,
        drift_zscore=args.drift_zscore,
        projection_window=args.projection_window,
        seed=args.seed,
    )


def _drive(
    engine: StreamingSSPC,
    generator: DriftingStreamGenerator,
    n_batches: int,
    batch_size: int,
    *,
    start: int,
    quiet: bool = False,
) -> List[Dict[str, object]]:
    """Process ``n_batches`` stream batches; returns per-batch records."""
    records: List[Dict[str, object]] = []
    for batch in generator.batches(n_batches, batch_size, start=start):
        result = engine.process_batch(batch.data)
        clustered = batch.labels >= 0
        ari = (
            adjusted_rand_index(batch.labels[clustered], result.labels[clustered])
            if np.any(clustered)
            else float("nan")
        )
        records.append(
            {
                "batch": int(batch.index),
                "ari": float(ari),
                "n_assigned": int(result.n_assigned),
                "n_outliers": int(result.n_outliers),
                "events": [event.to_dict() for event in result.events],
            }
        )
        if not quiet:
            for event in result.events:
                print(
                    "  [batch %d] %s cluster %d %s"
                    % (batch.index, event.kind, event.cluster_id, event.details),
                    file=sys.stderr,
                )
    return records


def _print_summary(engine: StreamingSSPC, records: List[Dict[str, object]]) -> None:
    aris = [record["ari"] for record in records if not np.isnan(record["ari"])]
    print("processed %d batches (%d points total)" % (len(records), engine.n_points))
    print("  live clusters      : %d (ids %s)" % (engine.n_clusters, engine.cluster_ids))
    print(
        "  adaptation         : %d spawned, %d retired, %d drift refreshes"
        % (engine.n_spawned, engine.n_retired, engine.n_drift_refreshes)
    )
    print("  outlier buffer     : %r" % engine.outliers)
    if aris:
        print("  mean batch ARI     : %.3f (last %.3f)" % (float(np.mean(aris)), aris[-1]))


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.sspc import SSPC

    spec = _stream_spec_from_args(args)
    generator = _generator_from_spec(spec)
    warmup = generator.warmup(args.warmup)
    log_stderr = lambda message: print(message, file=sys.stderr)  # noqa: E731
    with obs.trace_session(args.trace, args.metrics_out, log=log_stderr):
        model = SSPC(
            n_clusters=args.n_clusters,
            m=args.m,
            max_iterations=args.fit_iterations,
            random_state=args.seed,
        ).fit(warmup.data)
        engine = StreamingSSPC(model.to_artifact(), config=_config_from_args(args))
        print(
            "fitted initial model on %d warmup points (k=%d); streaming %d batches of %d"
            % (warmup.data.shape[0], engine.n_clusters, args.n_batches, args.batch_size),
            file=sys.stderr,
        )
        records = _drive(
            engine, generator, args.n_batches, args.batch_size, start=0, quiet=args.quiet
        )
    _print_summary(engine, records)
    if args.checkpoint:
        engine.checkpoint(args.checkpoint, metadata={"stream": spec})
        print("checkpoint written to %s" % args.checkpoint)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump({"stream": spec, "batches": records}, handle, indent=2)
        print("report written to %s" % args.report, file=sys.stderr)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    engine = load_checkpoint(args.checkpoint)
    spec = checkpoint_metadata(args.checkpoint).get("stream")
    if not isinstance(spec, dict):
        print(
            "replay: checkpoint has no recorded stream recipe "
            "(it was not written by `repro-stream run`)",
            file=sys.stderr,
        )
        return 2
    generator = _generator_from_spec(spec)
    batch_size = args.batch_size if args.batch_size is not None else int(spec["batch_size"])
    start = engine.n_batches
    print(
        "resuming stream at batch %d for %d more batches of %d"
        % (start, args.n_batches, batch_size),
        file=sys.stderr,
    )
    records = _drive(
        engine, generator, args.n_batches, batch_size, start=start, quiet=args.quiet
    )
    _print_summary(engine, records)
    target = args.output if args.output else args.checkpoint
    engine.checkpoint(target, metadata={"stream": spec})
    print("checkpoint written to %s" % target)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    description = describe_checkpoint(args.checkpoint)
    if args.json:
        json.dump(description, sys.stdout, indent=2, sort_keys=True, default=str)
        print()
        return 0
    model = description["model"]
    print("stream checkpoint (schema v%d)" % description["schema_version"])
    print("  stream position : batch %d (%d points)"
          % (description["n_batches"], description["n_points"]))
    print("  live clusters   : %d (stable ids %s)"
          % (len(description["cluster_ids"]), description["cluster_ids"]))
    print("  cluster sizes   : %s" % model["cluster_sizes"])
    print("  adaptation      : %d spawned, %d retired, %d drift refreshes"
          % (description["n_spawned"], description["n_retired"],
             description["n_drift_refreshes"]))
    print("  outlier buffer  : %d rows" % description["outliers_buffered"])
    print("  threshold       : %s" % model["threshold"])
    if description["events"]:
        print("  events          :")
        for event in description["events"]:
            print("    batch %-5d %-7s cluster %d"
                  % (event["batch_index"], event["kind"], event["cluster_id"]))
    if description["metadata"]:
        print("  metadata        : %s" % description["metadata"])
    return 0


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    engine = parser.add_argument_group("engine")
    engine.add_argument("--buffer-size", type=int, default=1024,
                        help="outlier-buffer capacity (default 1024)")
    engine.add_argument("--lifecycle-every", type=int, default=8,
                        help="batches between spawn/retire sweeps (0 disables)")
    engine.add_argument("--spawn-min-points", type=int, default=24,
                        help="dense-peak size required to spawn a cluster")
    engine.add_argument("--max-clusters", type=int, default=None,
                        help="hard cap on live clusters")
    engine.add_argument("--drift-every", type=int, default=4,
                        help="batches between drift checks (0 disables)")
    engine.add_argument("--drift-zscore", type=float, default=8.0,
                        help="shift-statistic threshold flagging drift")
    engine.add_argument("--projection-window", type=int, default=None,
                        help="bound each cluster's projection buffer (window medians)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream",
        description="Online projected clustering over drifting streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="generate a drifting stream and run the engine")
    stream = run.add_argument_group("stream")
    stream.add_argument("--n-batches", type=int, default=40)
    stream.add_argument("--batch-size", type=int, default=200)
    stream.add_argument("--n-dimensions", type=int, default=60)
    stream.add_argument("--n-clusters", type=int, default=4)
    stream.add_argument("--cluster-dim", type=int, default=8,
                        help="average relevant dimensions per cluster")
    stream.add_argument("--outlier-fraction", type=float, default=0.05)
    stream.add_argument("--drift", choices=_DRIFT_KINDS, default="mean_shift")
    stream.add_argument("--drift-batch", type=int, default=20,
                        help="batch index at which the drift event fires")
    stream.add_argument("--drift-cluster", type=int, default=0)
    stream.add_argument("--drift-magnitude", type=float, default=0.3)
    stream.add_argument("--seed", type=int, default=0)
    fit = run.add_argument_group("initial fit")
    fit.add_argument("--warmup", type=int, default=1200,
                     help="pre-stream points the initial model is fitted on")
    fit.add_argument("--fit-iterations", type=int, default=8)
    fit.add_argument("--m", type=float, default=0.5)
    _add_engine_arguments(run)
    run.add_argument("--checkpoint", default=None, help="checkpoint directory to write")
    run.add_argument("--report", default=None, help="per-batch JSON report path")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome trace-event JSON of the run (Perfetto)")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write a checksummed metrics snapshot of the run")
    run.add_argument("--quiet", action="store_true", help="suppress per-event logging")
    run.set_defaults(func=_cmd_run)

    replay = commands.add_parser("replay", help="resume a checkpointed stream")
    replay.add_argument("--checkpoint", required=True, help="checkpoint directory")
    replay.add_argument("--n-batches", type=int, default=20,
                        help="additional batches to process")
    replay.add_argument("--batch-size", type=int, default=None,
                        help="override the recorded batch size")
    replay.add_argument("--output", default=None,
                        help="write the continued checkpoint elsewhere "
                             "(default: back into --checkpoint)")
    replay.add_argument("--quiet", action="store_true")
    replay.set_defaults(func=_cmd_replay)

    inspect = commands.add_parser("inspect", help="describe a stream checkpoint")
    inspect.add_argument("--checkpoint", required=True, help="checkpoint directory")
    inspect.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``repro-stream`` / ``python -m repro.stream``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
