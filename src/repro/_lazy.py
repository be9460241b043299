"""Package attributes resolved on first access (PEP 562).

A package root keeps its public names in one ``name -> module`` table
and hands it to :func:`lazy_exports`.  Nothing is imported until a name
is first read; the value is then stored on the package, so later reads
are plain attribute lookups.  An entry whose module is ``package.name``
is that submodule itself.
"""

import importlib
import sys


def _is_submodule(package, name, module):
    return module == package + "." + name


def public_names(package, exports):
    """The table's names that are not submodules, in table order (for ``__all__``)."""
    return [name for name, module in exports.items() if not _is_submodule(package, name, module)]


def lazy_exports(package, exports):
    """Module ``__getattr__`` and ``__dir__`` for ``package`` over ``exports``."""

    def __getattr__(name):
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        module = importlib.import_module(module_name)
        value = module if _is_submodule(package, name, module_name) else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
