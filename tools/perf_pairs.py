#!/usr/bin/env python
"""Alternating parent/change pairs of one perfbench workload, and the statistics of a speed claim.

Usage (from the repository root)::

    python3 tools/perf_pairs.py --parent REV [--change REV] --workload W --pairs N \\
        [--seed S] [--scratch DIR] [--record]

Both revisions are exported with ``git archive`` into a scratch directory
(``--change`` defaults to ``HEAD``), and each side runs its own,
unchanged ``perfbench/run.py`` at the benchmark's own run length.  Pair
``i`` runs the parent first when ``i`` is even and the change first when
it is odd, so a drift of the host's speed over the session favours
neither side.

For every end-to-end metric of ``BENCHMARK.json`` it prints both sides'
medians and quartiles, and the change's wins: the pairs in which the
change read better than the parent in the metric's ``better`` direction
(a tie is no win).  ``apart`` says whether the two medians are further
apart than the parent's interquartile range, and ``claim`` whether the
change is better in the median, apart, and won at least nine pairs in
ten.  A run that exits non-zero or prints no result line loses its pair,
which is left out of every statistic and counted.  The ``failed`` counts
(output checks, such as label fingerprints) are summed per side.

``--record`` appends one record to ``BENCH_perf.json`` at the repository
root: the two commits, the workload, seed and pair count, a reading of
the host (perfbench's ``reference_s`` before and after the runs, CPU
count, platform), the Python and numpy versions, the ``failed`` counts
and every metric's statistics.  That file is the perf trajectory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
RECORD_PATH = ROOT / "BENCH_perf.json"
#: Share of the pairs a claimed gain must win (nine of ten).
WIN_SHARE = 0.9


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """``q1``, ``median``, ``q3`` and ``iqr`` of one side's readings."""
    q1, median, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def compare_metric(
    parent: Sequence[Optional[float]],
    change: Sequence[Optional[float]],
    better: str,
) -> Dict[str, object]:
    """Statistics of one metric over aligned pairs; ``None`` marks a lost run.

    A pair with a lost run on either side is dropped whole, so both
    sides keep the same pairs.  ``better`` is ``"lower"`` or ``"higher"``.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need one reading per pair")
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher', not %r" % (better,))
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    result: Dict[str, object] = {"pairs": len(pairs), "lost": len(parent) - len(pairs)}
    if not pairs:
        return result
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    ties = sum(1 for p, c in pairs if c == p)
    parent_spread = spread([p for p, _ in pairs])
    change_spread = spread([c for _, c in pairs])
    shift = change_spread["median"] - parent_spread["median"]
    improved = sign * shift > 0
    apart = abs(shift) > parent_spread["iqr"]
    result.update(
        parent=parent_spread,
        change=change_spread,
        wins=wins,
        ties=ties,
        losses=len(pairs) - wins - ties,
        relative=shift / parent_spread["median"] if parent_spread["median"] else None,
        improved=improved,
        apart=apart,
        claim=improved and apart and wins >= math.ceil(WIN_SHARE * len(pairs)),
    )
    return result


def summarise(
    runs: Sequence[Dict[str, Optional[dict]]], metrics: Sequence[dict]
) -> Dict[str, object]:
    """Statistics of every declared metric and the ``failed`` counts, from pair results.

    ``runs`` holds one ``{"parent": result, "change": result}`` per pair,
    where a result is a perfbench result line (or ``None`` for a lost run).
    """
    def reading(result, name):
        return None if result is None else float(result["metrics"][name]["value"])

    return {
        "metrics": {
            metric["name"]: compare_metric(
                [reading(run["parent"], metric["name"]) for run in runs],
                [reading(run["change"], metric["name"]) for run in runs],
                metric["better"],
            )
            for metric in metrics
        },
        "failed": {
            side: sum(int(run[side]["failed"]) for run in runs if run[side] is not None)
            for side in ("parent", "change")
        },
        "lost_runs": {
            side: sum(1 for run in runs if run[side] is None) for side in ("parent", "change")
        },
    }


def format_summary(summary: Dict[str, object]) -> List[str]:
    """The printed table: one line per metric."""
    lines = [
        "%-18s %12s %12s %12s %12s %9s %5s %6s %5s"
        % ("metric", "parent med", "parent IQR", "change med", "change IQR",
           "change", "wins", "apart", "claim")
    ]
    for name, stats in summary["metrics"].items():
        if not stats["pairs"]:
            lines.append("%-18s no complete pair" % name)
            continue
        relative = stats["relative"]
        lines.append(
            "%-18s %12.6g %12.4g %12.6g %12.4g %9s %2d/%-2d %6s %5s"
            % (
                name,
                stats["parent"]["median"],
                stats["parent"]["iqr"],
                stats["change"]["median"],
                stats["change"]["iqr"],
                "n/a" if relative is None else "%+.1f%%" % (100 * relative),
                stats["wins"],
                stats["pairs"],
                "yes" if stats["apart"] else "no",
                "yes" if stats["claim"] else "no",
            )
        )
    lines.append(
        "failed output checks: parent %(parent)d, change %(change)d" % summary["failed"]
    )
    lost = summary["lost_runs"]
    if lost["parent"] or lost["change"]:
        lines.append("lost runs: parent %(parent)d, change %(change)d" % lost)
    return lines


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #
def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def export_tree(revision: str, destination: Path) -> None:
    """Write the committed tree of ``revision`` into ``destination`` (``git archive``)."""
    destination.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision], stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(destination, filter="data")
        else:
            tar.extractall(destination)
    if archive.wait() != 0:
        raise SystemExit("perf_pairs: git archive %s failed" % revision)


def run_side(tree: Path, workload: str, seed: int) -> Optional[dict]:
    """One ``perfbench/run.py`` run in ``tree``: its result line, or ``None`` if lost."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        command, cwd=str(tree), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    print("  lost run in %s (exit %d): %s"
          % (tree.name, proc.returncode, proc.stderr.strip()[-400:]), flush=True)
    return None


def perfbench_module(tree: Path, name: str):
    """Module ``perfbench/<name>.py`` of an exported tree, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_%s" % name, tree / "perfbench" / ("%s.py" % name)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def append_record(record: dict, path: Path = RECORD_PATH) -> None:
    """Append ``record`` to the JSON list in ``path``, replacing the file atomically."""
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    staging = path.with_name(path.name + ".tmp")
    staging.write_text(json.dumps(records, indent=1) + "\n")
    os.replace(staging, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="revision of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="perfbench input seed (default: perfbench's)")
    parser.add_argument("--scratch", default=None,
                        help="directory for the exported trees (default: a new temporary one)")
    parser.add_argument("--record", action="store_true",
                        help="append the statistics to BENCH_perf.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declaration["workloads"]]
    if args.workload not in workloads:
        parser.error("--workload must be one of %s" % ", ".join(workloads))

    shas = {side: _git("rev-parse", "--verify", "%s^{commit}" % rev)
            for side, rev in (("parent", args.parent), ("change", args.change))}
    scratch = Path(args.scratch) if args.scratch else Path(tempfile.mkdtemp(prefix="perf_pairs-"))
    trees = {side: scratch / ("%s-%s" % (side, sha[:12])) for side, sha in shas.items()}
    try:
        for side, tree in trees.items():
            if tree.exists():
                shutil.rmtree(tree)
            export_tree(shas[side], tree)
        seed = args.seed
        if seed is None:
            seed = int(perfbench_module(trees["parent"], "spec").DEFAULT_SEED)
        # perfbench's host-speed reading: seconds of its fixed pure-Python loop.
        reference_s = perfbench_module(trees["parent"], "common").reference_s
        print("perf_pairs: %s, seed %d, %d pairs; parent %s, change %s"
              % (args.workload, seed, args.pairs, shas["parent"][:12], shas["change"][:12]),
              flush=True)
        host_before = reference_s()
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            results = {side: run_side(trees[side], args.workload, seed) for side in order}
            runs.append(results)
            print("  pair %d (%s first): %s" % (pair + 1, order[0], "  ".join(
                "%s %s" % (side, "lost" if results[side] is None else " ".join(
                    "%s=%.6g" % (m["name"], results[side]["metrics"][m["name"]]["value"])
                    for m in declaration["end_to_end"]))
                for side in ("parent", "change"))), flush=True)
        host_after = reference_s()
    finally:
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    summary = summarise(runs, declaration["end_to_end"])
    for line in format_summary(summary):
        print(line)
    if args.record:
        append_record({
            "commit": shas["change"],
            "parent": shas["parent"],
            "workload": args.workload,
            "seed": seed,
            "pairs": args.pairs,
            "host": {
                "reference_s": [host_before, host_after],
                "cpus": os.cpu_count(),
                "platform": platform.platform(),
            },
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            **summary,
        })
        print("recorded in %s" % RECORD_PATH.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
