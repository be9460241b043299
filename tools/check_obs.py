#!/usr/bin/env python
"""Lint: library code must speak through ``repro.obs``, not stdout/clocks.

A bare ``print(...)`` inside ``src/repro/`` library code bypasses the
structured event log (and corrupts the output of any CLI built on top);
a bare ``time.time()`` bypasses the injectable clock that keeps traces
and tests deterministic.  Library modules emit through
``repro.obs`` — ``obs.event`` / ``obs.log``-style hooks for messages,
``obs.wall_time`` / ``obs.monotonic`` for time.

Exempt, by design:

* ``src/repro/obs/`` — the observability package itself wraps the real
  clock and the report CLI prints;
* any ``cli.py`` / ``__main__.py`` — command-line front-ends own their
  stdout;
* ``bench/perf_*.py``, ``bench/chaos.py`` — benchmark report mains,
  invoked as scripts.

A second, complementary check guards against **metric-name drift**:
every metric name the library emits — ``obs.incr`` / ``obs.observe`` /
``obs.gauge`` literals and the ``repro_*`` Prometheus families — must
appear in the README's metric reference table.  Renaming a metric in
code without updating the table (or vice versa) fails CI.

Both checks are AST-based (comments and strings never trip the first).
Run from the repository root (CI does)::

    python tools/check_obs.py
"""

from __future__ import annotations

import ast
import fnmatch
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCAN_ROOT = "src/repro"

#: Glob patterns (relative to the repo root) exempt from the lint.
EXEMPT_PATTERNS = (
    "src/repro/obs/*",
    "src/repro/*/cli.py",
    "src/repro/*/__main__.py",
    "src/repro/__main__.py",
    "src/repro/bench/perf_*.py",
    "src/repro/bench/chaos.py",
)


#: Files whose metric emissions are not part of the public contract
#: (bench probes, CLI front-ends) and so are skipped by the drift check.
METRIC_EXEMPT_PATTERNS = (
    "src/repro/*/cli.py",
    "src/repro/*/__main__.py",
    "src/repro/__main__.py",
    "src/repro/bench/*",
)

#: Module-hook spellings whose first argument names a metric.
METRIC_HOOKS = ("incr", "observe", "gauge")

#: Packages the scan must visit — a future path-scoping change that
#: silently dropped one of these would turn the lint into a no-op for
#: exactly the code it was extended to cover.
REQUIRED_SCANNED = (
    "src/repro/core/assignment_engine.py",
    "src/repro/serving/index.py",
)


def is_exempt(relative: str) -> bool:
    return any(fnmatch.fnmatch(relative, pattern) for pattern in EXEMPT_PATTERNS)


def is_metric_exempt(relative: str) -> bool:
    return any(fnmatch.fnmatch(relative, pattern) for pattern in METRIC_EXEMPT_PATTERNS)


def _literal_metric(arg):
    """``("name", is_prefix)`` for a literal metric-name argument.

    Handles plain string constants and the ``"prefix.%s" % ...`` idiom
    (the part before the first ``%`` is checked as a prefix).
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.op, ast.Mod)
        and isinstance(arg.left, ast.Constant)
        and isinstance(arg.left.value, str)
    ):
        return arg.left.value.split("%", 1)[0], True
    return None


def collect_metric_names(path: Path):
    """Yield ``(name, is_prefix, line)`` for every metric the file emits.

    Covers ``*.incr/observe/gauge("name", ...)`` hook calls,
    ``writer.family("repro_...", ...)`` Prometheus family declarations,
    and ``write_histogram(writer, "repro_...", ...)`` call sites.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        candidate = None
        if isinstance(func, ast.Attribute) and func.attr in METRIC_HOOKS:
            candidate = _literal_metric(node.args[0])
        elif isinstance(func, ast.Attribute) and func.attr == "family":
            candidate = _literal_metric(node.args[0])
        elif (
            isinstance(func, ast.Name)
            and func.id == "write_histogram"
            and len(node.args) >= 2
        ):
            candidate = _literal_metric(node.args[1])
        if candidate is not None:
            yield candidate[0], candidate[1], node.lineno


def scan_file(path: Path):
    """Yield ``(line, message)`` for every violation in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield node.lineno, "bare print() — emit via repro.obs or move to a CLI module"
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            yield node.lineno, "time.time() — use repro.obs.wall_time() (injectable clock)"


def run() -> int:
    violations = []
    scanned = 0
    scanned_paths = set()
    readme = (REPO_ROOT / "README.md").read_text()
    n_metrics = 0
    for path in sorted((REPO_ROOT / SCAN_ROOT).rglob("*.py")):
        relative = str(path.relative_to(REPO_ROOT))
        if not is_exempt(relative):
            scanned += 1
            scanned_paths.add(relative)
            for line, message in scan_file(path):
                violations.append("%s:%d: %s" % (relative, line, message))
        if is_metric_exempt(relative):
            continue
        for name, is_prefix, line in collect_metric_names(path):
            n_metrics += 1
            if name not in readme:
                kind = "metric prefix" if is_prefix else "metric"
                violations.append(
                    "%s:%d: %s `%s` is emitted but missing from the README "
                    "metric reference table" % (relative, line, kind, name)
                )
    for required in REQUIRED_SCANNED:
        if required not in scanned_paths:
            violations.append(
                "%s: required module was not scanned — the lint's path scoping "
                "no longer covers it" % required
            )
    for violation in violations:
        print(violation)
    print(
        "checked %d library module(s), %d metric emission(s): %d violation(s)"
        % (scanned, n_metrics, len(violations)),
        file=sys.stderr,
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(run())
