"""Helpers shared by the workloads: paths, child processes, statistics, traces."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch inputs and outputs of one run; removed when the run ends.
WORK_ROOT = ROOT / ".perfbench_work"
#: Traces written by ``--trace 1`` runs (kept for inspection).
TRACE_ROOT = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 150.0

#: Seconds ``reference_s()`` reads when the host runs at full speed (an
#: Intel Xeon core at 2.1 GHz).  Timings are scaled by this over the
#: reference measured next to them; see ``at_reference_speed``.
REFERENCE_S = 0.006


def reference_s() -> float:
    """The host's current speed: seconds of a fixed pure-Python loop.

    The loop uses no repository code, so no change to the library moves
    it.  On 2 shared cores the host's Python speed swings by up to 1.6x
    within seconds, with whatever else runs on the machine, and fits,
    imports and request handling slow with it.  Median of 5 loops of
    about 6 ms each.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(60000):
            total += i * i
        for i in range(15000):
            table[str(i)] = i
        samples.append(time.perf_counter() - start)
    return median(samples)


def reference_each_cpu() -> list:
    """One ``reference_s()`` reading on each CPU this process may run on.

    For a process under test that runs on any of them while this one
    waits.  Pins the calling thread to each CPU in turn, then restores
    its affinity.
    """
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            readings.append(reference_s())
    finally:
        os.sched_setaffinity(0, allowed)
    return readings


def at_reference_speed(seconds: float, *references: float) -> float:
    """``seconds`` measured between ``references`` (``reference_s()`` readings),
    scaled to what it would read with the host at full speed.

    Scales by the median reading, so one reading taken while something
    else held its CPU does not move the result.
    """
    return seconds * REFERENCE_S / median(references)


def child_env() -> dict:
    """Environment of every process under test.

    The library is imported from the checkout's ``src``.  BLAS pools are
    pinned to one thread so two cores shared with the client do not make
    the numbers depend on thread scheduling.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_ASSIGNMENT_BACKEND", None)
    return env


def run_child(script: str, job: dict, job_path: Path) -> dict:
    """Run ``perfbench/<script> job.json`` in a fresh interpreter.

    The child stamps ``ready`` (monotonic; CLOCK_MONOTONIC is system-wide)
    once it is set up and then reads ``ready_reference`` with
    ``reference_s()``.  Returns the child's result JSON plus ``setup_s``,
    spawn to ready at reference speed (between a reading taken here just
    before the spawn and the child's), and ``setup_raw_s``, as measured.
    """
    job_path.write_text(json.dumps(job))
    spawn_reference = reference_s()
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), str(job_path)],
        env=child_env(),
        cwd=str(ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            "%s exited %d:\n%s" % (script, proc.returncode, proc.stderr.decode(errors="replace"))
        )
    result = json.loads(Path(job["out"]).read_text())
    result["setup_raw_s"] = result["ready"] - spawned
    result["setup_s"] = at_reference_speed(
        result["setup_raw_s"], spawn_reference, result["ready_reference"]
    )
    return result


def setup_times(script: str, job: dict, work: Path, tag: str, repeats: int) -> list:
    """``setup_s`` of ``repeats`` fresh set-up-only runs of ``script``.

    With ``setup_only`` in its job the child exits once it is set up.
    """
    times = []
    for i in range(repeats):
        name = "%s-setup%d" % (tag, i)
        probe = dict(job, setup_only=True, out=str(work / ("%s.json" % name)))
        times.append(run_child(script, probe, work / ("%s.job.json" % name))["setup_s"])
    return times


def peak_rss_mib(pid="self") -> float:
    """``VmHWM`` (peak resident set size) of a live process, in MiB."""
    for line in Path("/proc/%s/status" % pid).read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %s" % pid)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process."""
    raw = Path("/proc/%d/stat" % pid).read_text()
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def fingerprint(labels) -> str:
    """sha256 (first 16 hex digits) of a label vector as little-endian int64."""
    import numpy as np

    data = np.ascontiguousarray(np.asarray(labels, dtype="<i8"))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


def tail(values):
    """``(label, value)`` of the highest percentile with >= 10 samples beyond it.

    ``("max", max)`` when there are too few samples for any of them.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            return "p%g" % pct, quantile(values, pct / 100.0)
    return "max", max(values) if values else float("nan")


def timing(values_ms) -> str:
    """``median / tail (n)`` rendering of a list of millisecond timings."""
    label, value = tail(values_ms)
    return "p50 %.3f ms, %s %.3f ms (n=%d)" % (median(values_ms), label, value, len(values_ms))


# -- traces -------------------------------------------------------------------


def span_table(spans) -> dict:
    """Per span name: count, total seconds and self seconds.

    A span's self time is its duration minus the part of its interval
    covered by its child spans (overlapping children counted once).
    """
    children = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    table = {}
    for span in spans:
        start, end = float(span["ts"]), float(span["ts"]) + float(span["dur"])
        covered, cursor = 0.0, start
        for child in sorted(children.get(span["id"], ()), key=lambda s: float(s["ts"])):
            lo = max(float(child["ts"]), cursor)
            hi = min(float(child["ts"]) + float(child["dur"]), end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = table.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += float(span["dur"])
        row["self_s"] += max(0.0, float(span["dur"]) - covered)
    return table


def span_total(table: dict, name: str) -> float:
    return table.get(name, {}).get("total_s", 0.0)


def fit_span_count(table: dict) -> int:
    """Number of ``fit`` / ``fit.*`` spans in a span table."""
    return sum(row["count"] for name, row in table.items() if name == "fit" or name.startswith("fit."))


def write_trace(name: str, recorder) -> Path:
    """Write a Chrome trace plus a span table of ``recorder`` under TRACE_ROOT."""
    from repro.obs.export import write_chrome_trace

    TRACE_ROOT.mkdir(parents=True, exist_ok=True)
    path = TRACE_ROOT / ("%s.trace.json" % name)
    write_chrome_trace(path, recorder)
    table = span_table(recorder.spans)
    (TRACE_ROOT / ("%s.spans.json" % name)).write_text(json.dumps(table, indent=1, sort_keys=True))
    return path
