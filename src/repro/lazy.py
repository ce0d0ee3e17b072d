"""Lazy package exports (PEP 562) for ``repro`` and its subpackages.

Every ``__init__`` of the package re-exports its public names through
:func:`lazy_exports`: it declares which submodule defines each name, and
nothing is imported until a name, or a submodule, is first read from the
package.  ``repro-bounds derive-ubd`` therefore loads the simulator,
kernels, methodology and analysis modules it runs and not the campaign
engine, the audit or the ``codegen``/``replay`` engines it never calls.

A resolved name is read from its defining module on every access and never
stored in the package namespace, so the package always shows what the
defining module holds (a monkeypatched function included).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of a package with lazy exports.

    Args:
        package: the package's ``__name__``.
        exports: submodule name (relative to ``package``) -> the public
            names defined there that the package re-exports.

    ``__getattr__`` imports the defining submodule of an exported name, or
    the submodule an attribute names (``repro.sim.codegen``), on first
    access; any other name raises :class:`AttributeError`.
    """
    origins: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        origin = origins.get(name)
        if origin is not None:
            return getattr(importlib.import_module(origin), name)
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origins))

    return sorted(origins), __getattr__, __dir__
