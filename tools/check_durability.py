#!/usr/bin/env python
"""Lint: durability-path modules must write through the atomic helpers.

Every module that persists state the rest of the system depends on —
model artifacts, stream checkpoints, benchmark run records, and the
reliability layer itself — must route writes through
``repro.reliability.atomic`` (temp + fsync + rename).  A bare
``open(path, "w")`` or ``Path.write_text`` on one of these paths can
tear under a crash and silently corrupt the store, which is exactly the
failure class the reliability layer exists to rule out.

Array bundles have one writer and one reader,
``repro.reliability.bundle``: a second ``np.savez`` or ``np.load``
would be a second NPZ format (deflated, unverified or not mappable).

The check is AST-based: it flags any ``open(...)`` call with a
write/append/create mode and any ``.write_text(...)`` /
``.write_bytes(...)`` attribute call inside the scanned modules, and
any ``numpy`` ``savez`` / ``savez_compressed`` / ``load`` call outside
the bundle module (``np.load``, ``numpy.load`` and ``from numpy import
load`` spellings alike).  ``repro/reliability/atomic.py`` itself is
exempt — it is the one place allowed to touch file handles directly.

Run from the repository root (CI does)::

    python tools/check_durability.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Modules whose writes must be atomic.
DURABILITY_PATHS = (
    "src/repro/serving/artifact.py",
    "src/repro/stream/checkpoint.py",
    "src/repro/bench/store.py",
    "src/repro/reliability",
)

#: The one module allowed to open file handles for writing.
EXEMPT = ("src/repro/reliability/atomic.py",)

#: The one module allowed to write and read NPZ bundles.
BUNDLE_MODULE = "src/repro/reliability/bundle.py"

WRITE_MODE_CHARS = set("wax+")
FORBIDDEN_ATTRIBUTES = ("write_text", "write_bytes")
NPZ_FUNCTIONS = ("savez", "savez_compressed", "load")


def _open_mode(call: ast.Call) -> str:
    """The literal mode argument of an ``open`` call, or '' if unknown."""
    mode = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return ""  # dynamic mode: treat as suspect


def _numpy_names(tree: ast.AST):
    """Names bound to the numpy module, and NPZ functions imported bare."""
    modules, functions = {"numpy"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            functions.update(
                (a.asname or a.name, a.name) for a in node.names if a.name in NPZ_FUNCTIONS
            )
    return modules, functions


def _npz_function(func: ast.expr, modules, functions):
    """The numpy NPZ function a call target names, or None."""
    if (
        isinstance(func, ast.Attribute)
        and func.attr in NPZ_FUNCTIONS
        and isinstance(func.value, ast.Name)
        and func.value.id in modules
    ):
        return func.attr
    if isinstance(func, ast.Name):
        return functions.get(func.id)
    return None


def scan_file(path: Path):
    """Yield ``(line, message)`` for every non-atomic write in ``path``.

    Outside :data:`BUNDLE_MODULE` every numpy NPZ write or read is one too.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    check_npz = Path(path).resolve() != REPO_ROOT / BUNDLE_MODULE
    modules, functions = _numpy_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if not mode or WRITE_MODE_CHARS & set(mode):
                yield node.lineno, "open(..., %r) — use repro.reliability.atomic" % mode
        elif isinstance(func, ast.Attribute) and func.attr in FORBIDDEN_ATTRIBUTES:
            yield node.lineno, ".%s(...) — use repro.reliability.atomic" % func.attr
        elif check_npz:
            name = _npz_function(func, modules, functions)
            if name is not None:
                yield node.lineno, "numpy.%s(...) — use repro.reliability.bundle" % name


def collect_targets():
    for entry in DURABILITY_PATHS:
        path = REPO_ROOT / entry
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.is_file():
            yield path


def run() -> int:
    exempt = {REPO_ROOT / entry for entry in EXEMPT}
    violations = []
    scanned = 0
    for path in collect_targets():
        if path in exempt:
            continue
        scanned += 1
        for line, message in scan_file(path):
            violations.append("%s:%d: %s" % (path.relative_to(REPO_ROOT), line, message))
    for violation in violations:
        print(violation)
    print(
        "checked %d durability module(s): %d violation(s)" % (scanned, len(violations)),
        file=sys.stderr,
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(run())
