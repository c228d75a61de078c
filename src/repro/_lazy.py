"""Lazy package namespaces (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
would import every submodule the moment any one of them is imported.
:func:`lazy_exports` instead gives the package a module ``__getattr__``
that imports a name's defining submodule on first access and caches the
value in the package's globals, so later lookups are plain attribute
reads.  Submodules still import their siblings directly
(``from .plan import execute_plan``), never through a package namespace.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, namespace: dict[str, Any],
                 exports: dict[str, tuple[str, ...]],
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".plan"``,
    ``"..registry"``), to the names it defines; ``namespace`` is the
    package's ``globals()``.  A name that is neither exported nor
    already a global resolves to the submodule of that name, if there
    is one, as after ``import package.name``; anything else raises
    :class:`AttributeError`.
    """
    table = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is not None:
            value = namespace[name] = getattr(
                import_module(module, package), name)
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
