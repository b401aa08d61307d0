"""The one PEP 562 helper behind every package ``__init__``.

A package surface is a table ``{submodule: (public names...)}``; a name is
imported from its submodule the first time someone asks the package for it,
so ``import repro.cleaning.rowid`` executes ``rowid`` and nothing else.  The
submodule is a relative name: ``".errors"`` in ``repro.engine``'s table is
``repro.errors``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_surface(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``__getattr__, __dir__, __all__`` for the package named ``package``."""
    home = {name: sub for sub, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f".{home[name]}", package), name)
        return value

    return __getattr__, lambda: sorted({*namespace, *home}), list(home)
