#!/usr/bin/env python
"""Lint: durability-path modules must write through the atomic helpers.

Every module that persists state the rest of the system depends on —
model artifacts, stream checkpoints, the serving daemon's generations,
benchmark run records, and the reliability layer itself — must route
writes through ``repro.reliability.atomic`` (temp + fsync + rename).  A bare
``open(path, "w")`` or ``Path.write_text`` on one of these paths can
tear under a crash and silently corrupt the store, which is exactly the
failure class the reliability layer exists to rule out.

Array bundles have one writer and one reader,
``repro.reliability.bundle``: a second ``np.savez`` or ``np.load``
would be a second NPZ format (deflated, unverified or not mappable).

Freeing a file or directory is the expensive step of a write on a
filesystem that discards freed blocks online, and truncating a file
shorter frees its tail the same way, so retiring, recycling and
truncating stay in ``repro.reliability.atomic`` too (``retire_dir``,
``flip_pointer``, the staging cleanup, the in-place write).

The check is AST-based: it flags any ``open(...)`` call with a
write/append/create mode and any ``.write_text(...)`` /
``.write_bytes(...)`` attribute call inside the scanned modules; any
``shutil.rmtree`` / ``os.unlink`` / ``os.remove`` / ``os.rmdir`` /
``os.truncate`` / ``os.ftruncate`` call and any ``.unlink(...)`` /
``.rmdir(...)`` / ``.truncate(...)`` attribute call (``Path``'s, a file
handle's), in module-attribute and ``from ... import`` spellings alike;
and any ``numpy`` ``savez`` / ``savez_compressed`` / ``load`` call
outside the bundle module (``np.load``, ``numpy.load`` and ``from numpy
import load`` spellings alike).  ``repro/reliability/atomic.py`` itself is
exempt — it is the one place allowed to touch file handles directly,
to free what it retires and to truncate what it overwrites.

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
    "src/repro/server/app.py",
    "src/repro/server/pool.py",
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
#: Calls that free a file, a directory or a file's tail, by the module
#: that provides them.
FREEING_FUNCTIONS = {
    "os": ("unlink", "remove", "rmdir", "truncate", "ftruncate"),
    "shutil": ("rmtree",),
}
#: Freeing methods of any object (``Path.unlink`` / ``Path.rmdir``, a
#: file handle's ``truncate``).
FREEING_ATTRIBUTES = ("unlink", "rmdir", "truncate")


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


def _freeing_names(tree: ast.AST):
    """Names bound to ``os`` / ``shutil``, and their freeing functions imported bare."""
    modules = {name: name for name in FREEING_FUNCTIONS}
    functions = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                (a.asname or a.name, a.name) for a in node.names if a.name in FREEING_FUNCTIONS
            )
        elif isinstance(node, ast.ImportFrom) and node.module in FREEING_FUNCTIONS:
            functions.update(
                (a.asname or a.name, "%s.%s" % (node.module, a.name))
                for a in node.names
                if a.name in FREEING_FUNCTIONS[node.module]
            )
    return modules, functions


def _freeing_call(func: ast.expr, modules, functions):
    """The freeing call a call target names (``os.unlink``, ``.rmdir``), or None."""
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in modules:
            module = modules[func.value.id]
            if func.attr in FREEING_FUNCTIONS[module]:
                return "%s.%s" % (module, func.attr)
        if func.attr in FREEING_ATTRIBUTES:
            return ".%s" % func.attr
    if isinstance(func, ast.Name):
        return functions.get(func.id)
    return None


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

    Every call that frees a file, a directory or a file's tail is one
    too, and outside :data:`BUNDLE_MODULE` every numpy NPZ write or
    read.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    check_npz = Path(path).resolve() != REPO_ROOT / BUNDLE_MODULE
    modules, functions = _numpy_names(tree)
    freeing_modules, freeing_functions = _freeing_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        freeing = _freeing_call(func, freeing_modules, freeing_functions)
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if not mode or WRITE_MODE_CHARS & set(mode):
                yield node.lineno, "open(..., %r) — use repro.reliability.atomic" % mode
        elif isinstance(func, ast.Attribute) and func.attr in FORBIDDEN_ATTRIBUTES:
            yield node.lineno, ".%s(...) — use repro.reliability.atomic" % func.attr
        elif freeing is not None:
            yield node.lineno, (
                "%s(...) frees a file, a directory or a file's tail — retire, recycle "
                "or overwrite it through repro.reliability.atomic" % freeing
            )
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
