"""Package surfaces that import a public name on first access (PEP 562).

A package ``__init__`` hands :func:`surface` one table, public name ->
defining module (relative to the package; ``"."`` for a name the
``__init__`` defines itself), and binds what comes back::

    __all__, __getattr__, __dir__ = surface(__name__, {
        "MTChecker": ".core.checker",
    })

``from repro import MTChecker`` then imports ``repro.core.checker`` and
nothing else, and caches the object in the package's globals, so the
second lookup is an ordinary attribute read and ``repro.MTChecker is
repro.core.checker.MTChecker``.  A module ``__getattr__`` serves attribute
access only: code inside an ``__init__`` that needs a lazy name imports it
where it uses it.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple


def surface(
    package: str, table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s name table."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is None or module == ".":
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__``, unlike ``importlib.import_module``, takes the
        # interpreter's own import path, which ``-X importtime`` reports.
        relative = module.lstrip(".")
        level = len(module) - len(relative)
        value = getattr(__import__(relative, namespace, None, (name,), level), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | table.keys())

    return list(table), __getattr__, __dir__
