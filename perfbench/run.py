"""The repository benchmark: three seeded workloads through the public surfaces.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_guided [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, one after another

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics and
writes its spans under ``.perfbench_out/``.  A report for people comes
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads
and metric names come from ``BENCHMARK.json``; see ``perfbench/README.md``
and ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

import common
import spec

FINGERPRINTS = common.BENCH_DIR / "fingerprints.json"


class Checks:
    """Output checks: every checked operation counts toward ``attempted``."""

    def __init__(self, recorded, record):
        self.recorded = recorded
        self.record = record
        self.observed = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def fail(self, what):
        self.attempt(what, False)

    def fingerprint(self, key, value):
        """Compare with the recorded fingerprint of ``key``, if there is one."""
        self.observed[key] = value
        if not self.record and key in self.recorded:
            self.attempt("fingerprint %s" % key, self.recorded[key] == value)


def _refuse(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def _declaration():
    """BENCHMARK.json: the workloads and metrics; exit 2 outside a full checkout."""
    if not (common.SRC / "repro" / "__init__.py").is_file():
        _refuse("no library under %s; run from a full checkout" % common.SRC)
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        _refuse("no BENCHMARK.json at %s" % common.ROOT)
    return json.loads(path.read_text())


def _result_line(checks, metrics, declared):
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }


def run_one(args, declaration):
    sys.path.insert(0, str(common.SRC))
    import fits
    import serve
    import stream

    module = {"fit_guided": fits, "serve_mixed": serve, "stream_drift": stream}
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    checks = Checks(recorded, args.record_fingerprints)
    work = common.WORK_ROOT / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    started = time.monotonic()
    try:
        runner = module[args.workload].run_traced if args.trace else module[args.workload].run
        metrics, lines = runner(args.workload, args.seed, args.seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass
    if args.record_fingerprints:
        merged = dict(recorded, **checks.observed)
        FINGERPRINTS.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")

    print("workload %s (seed %d; default %d, held-out %d; %g s; trace %d; wall %.1f s)"
          % (args.workload, args.seed, spec.DEFAULT_SEED, spec.HELD_OUT_SEED, args.seconds,
             args.trace, time.monotonic() - started))
    why = {w["name"]: w["why"] for w in declaration["workloads"]}
    print("  why: %s" % why[args.workload])
    for line in lines:
        print("  " + line)
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        name, unit = m["name"], m["unit"]
        if args.trace:
            print("  %-36s %14.6g %-6s -> %s" % (
                name, metrics.get(name, 0.0), unit, spec.PER_LAYER_TARGET.get(name, "")))
        else:
            print("  %-18s %14.6g %-4s %s" % (
                name, metrics[name], unit, spec.E2E_MEANING[name][args.workload]))
    print("  %-18s %14.6g      failed / attempted output checks (%d / %d)" % (
        "failed_share", checks.failed / max(1, checks.attempted), checks.failed, checks.attempted))
    for problem in checks.problems[:10]:
        print("  FAILED: %s" % problem)
    print(json.dumps(_result_line(checks, metrics, declared)))


def run_all(args, declaration):
    """Every workload in its own benchmark process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w["name"] for w in declaration["workloads"]]:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=str(common.ROOT))
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit("perfbench: workload %s failed" % workload)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))


def main(argv=None):
    declaration = _declaration()
    workloads = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help="input seed (default %%(default)s; held-out seed %d)" % spec.HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="store this run's label fingerprints in perfbench/fingerprints.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args, declaration)
        return 0
    try:
        run_one(args, declaration)
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
