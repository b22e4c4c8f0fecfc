"""Package namespaces that import a name's home module on first use.

A package ``__init__`` that re-exports names from its submodules
declares where each one lives instead of importing it, so importing the
package (or any one of its submodules) runs none of the others::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.obs.attach": ("instrument_machine", "machine_metrics"),
    })

``repro.obs.instrument_machine`` then imports :mod:`repro.obs.attach`
the first time it is read; ``from repro.obs import *`` and ``dir()``
still see every name.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, homes: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` (PEP 562).

    ``homes`` maps each submodule to the names the package exports from
    it.  Reading a name imports its submodule and caches the value in
    the package namespace, so later reads are plain attribute lookups.
    """
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return sorted(home), __getattr__, __dir__
