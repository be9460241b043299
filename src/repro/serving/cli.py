"""Command-line entry points for the serving subsystem.

Three subcommands cover the fit-once / score-many lifecycle::

    # fit a model and persist the artifact
    python -m repro.serve fit --synthetic 500x60x3 --artifact model/ --random-state 0
    python -m repro.serve fit --input train.csv --n-clusters 3 --artifact model/

    # score unseen points against a persisted artifact
    python -m repro.serve predict --artifact model/ --input new_points.csv
    python -m repro.serve predict --artifact model/ --input new_points.csv \
        --top-m 3 --output assignments.csv --update --save-back

    # look inside an artifact without loading the arrays
    python -m repro.serve inspect --artifact model/

Input matrices are CSV (the repository's ``save_csv_dataset`` layout: a
header row, one object per row, an optional ``label`` column which is
ignored for prediction) or ``.npy`` files.  The same console script is
installed as ``repro-serve`` (see ``pyproject.toml``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.core.model import OUTLIER_LABEL
from repro.serving.artifact import load_artifact
from repro.serving.index import ProjectedClusterIndex

__all__ = ["main", "build_parser"]


def _log_stderr(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------- #
# I/O helpers
# ---------------------------------------------------------------------- #
def _load_matrix(path: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Load ``(data, labels-or-None)`` from a CSV or ``.npy`` file."""
    file_path = Path(path)
    if not file_path.is_file():
        raise FileNotFoundError("input file %s does not exist" % file_path)
    if file_path.suffix.lower() == ".npy":
        data = np.load(file_path)
        if data.ndim != 2:
            raise ValueError("%s does not hold a 2-d matrix" % file_path)
        return np.asarray(data, dtype=float), None
    from repro.data.loaders import load_csv_dataset

    return load_csv_dataset(file_path)


def _parse_synthetic(spec: str):
    """Parse an ``NxDxK`` synthetic-dataset spec (e.g. ``500x60x3``)."""
    parts = spec.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "--synthetic expects NxDxK (objects x dimensions x clusters), got %r" % spec
        )
    try:
        n_objects, n_dimensions, n_clusters = (int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("--synthetic components must be integers: %r" % spec)
    if min(n_objects, n_dimensions, n_clusters) < 1:
        raise argparse.ArgumentTypeError("--synthetic components must be positive: %r" % spec)
    return n_objects, n_dimensions, n_clusters


def _write_assignments(
    path: Optional[str],
    labels: np.ndarray,
    top_clusters: Optional[np.ndarray] = None,
    top_gains: Optional[np.ndarray] = None,
) -> None:
    """Write per-point assignments as CSV to ``path`` or stdout."""
    handle = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(handle)
        header = ["index", "label"]
        if top_clusters is not None:
            m = top_clusters.shape[1]
            for rank in range(m):
                header += ["cluster_%d" % rank, "gain_%d" % rank]
        writer.writerow(header)
        for index, label in enumerate(labels):
            row = [index, int(label)]
            if top_clusters is not None:
                for rank in range(top_clusters.shape[1]):
                    row.append(int(top_clusters[index, rank]))
                    row.append("%r" % float(top_gains[index, rank]))
            writer.writerow(row)
    finally:
        if path:
            handle.close()


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.core.sspc import SSPC

    if (args.input is None) == (args.synthetic is None):
        print("fit: exactly one of --input and --synthetic is required", file=sys.stderr)
        return 2

    if args.synthetic is not None:
        from repro.data.generator import make_projected_clusters

        n_objects, n_dimensions, n_clusters = args.synthetic
        dataset = make_projected_clusters(
            n_objects=n_objects,
            n_dimensions=n_dimensions,
            n_clusters=n_clusters,
            avg_cluster_dimensionality=max(n_dimensions // 10, 3),
            random_state=args.random_state,
        )
        data = dataset.data
        if args.n_clusters is None:
            args.n_clusters = n_clusters
    else:
        data, _ = _load_matrix(args.input)
        if args.n_clusters is None:
            print("fit: --n-clusters is required with --input", file=sys.stderr)
            return 2

    threshold_kwargs = {}
    if args.p is not None:
        threshold_kwargs["p"] = args.p
    else:
        threshold_kwargs["m"] = args.m

    model = SSPC(
        n_clusters=args.n_clusters,
        max_iterations=args.max_iterations,
        random_state=args.random_state,
        **threshold_kwargs,
    )
    with obs.trace_session(args.trace, args.metrics_out, log=_log_stderr):
        model.fit(data)
    directory = model.save(args.artifact, metadata={"source": args.input or "synthetic"})
    print(model.result_.summary())
    print("artifact written to %s" % directory)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.save_back and not args.update:
        print("predict: --save-back requires --update", file=sys.stderr)
        return 2
    artifact = load_artifact(args.artifact)
    index = ProjectedClusterIndex(artifact)
    points, _ = _load_matrix(args.input)

    with obs.trace_session(args.trace, args.metrics_out, log=_log_stderr):
        top_clusters = top_gains = None
        if args.top_m is not None:
            labels, top_clusters, top_gains = index.top_assignments(points, args.top_m)
        else:
            labels = index.predict(points)

        if args.update:
            index.partial_update(points, labels)
            if args.save_back:
                index.fold_into(artifact)
                artifact.metadata["partial_updates"] = (
                    int(artifact.metadata.get("partial_updates", 0)) + 1
                )
                artifact.save(args.artifact)

    _write_assignments(args.output, labels, top_clusters, top_gains)
    assigned = int(np.count_nonzero(labels != OUTLIER_LABEL))
    print(
        "scored %d points: %d assigned, %d outliers"
        % (labels.size, assigned, labels.size - assigned),
        file=sys.stderr,
    )
    if args.update and args.save_back:
        print("updated artifact written back to %s" % args.artifact, file=sys.stderr)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    artifact = load_artifact(args.artifact)
    description = artifact.describe()
    if args.json:
        json.dump(description, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print("%s artifact (schema v%d)" % (description["algorithm"] or "clustering",
                                        description["schema_version"]))
    print("  fitted on        : %d objects x %d dimensions"
          % (description["n_objects"], description["n_dimensions"]))
    print("  clusters         : %d (sizes %s)"
          % (description["n_clusters"], description["cluster_sizes"]))
    print("  dimensionalities : %s" % description["cluster_dimensionalities"])
    print("  outliers         : %d" % description["n_outliers"])
    print("  objective        : %.6g after %d iterations"
          % (description["objective"], description["n_iterations"]))
    print("  threshold        : %s" % description["threshold"])
    print("  projections kept : %s" % description["includes_projections"])
    if description["metadata"]:
        print("  metadata         : %s" % description["metadata"])
    return 0


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON of the command (Perfetto)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a checksummed metrics snapshot of the command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Persist and serve SSPC projected-clustering models.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit SSPC and save a model artifact")
    fit.add_argument("--input", help="training matrix (CSV or .npy)")
    fit.add_argument("--synthetic", type=_parse_synthetic, metavar="NxDxK",
                     help="generate a synthetic dataset instead of --input")
    fit.add_argument("--artifact", required=True, help="output artifact directory")
    fit.add_argument("--n-clusters", type=int, default=None)
    fit.add_argument("--m", type=float, default=0.5,
                     help="variance-ratio threshold parameter (default 0.5)")
    fit.add_argument("--p", type=float, default=None,
                     help="chi-square threshold parameter (overrides --m)")
    fit.add_argument("--max-iterations", type=int, default=30)
    fit.add_argument("--random-state", type=int, default=0)
    _add_obs_arguments(fit)
    fit.set_defaults(func=_cmd_fit)

    predict = commands.add_parser("predict", help="assign new points with a saved artifact")
    predict.add_argument("--artifact", required=True, help="artifact directory")
    predict.add_argument("--input", required=True, help="points to score (CSV or .npy)")
    predict.add_argument("--output", default=None,
                         help="assignments CSV (default: stdout)")
    predict.add_argument("--top-m", type=int, default=None,
                         help="also emit the top-m soft assignments per point")
    predict.add_argument("--update", action="store_true",
                         help="fold accepted points into the serving statistics")
    predict.add_argument("--save-back", action="store_true",
                         help="with --update: persist the updated statistics")
    _add_obs_arguments(predict)
    predict.set_defaults(func=_cmd_predict)

    inspect = commands.add_parser("inspect", help="describe a saved artifact")
    inspect.add_argument("--artifact", required=True, help="artifact directory")
    inspect.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    """CLI entry point (``repro-serve`` / ``python -m repro.serve``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
