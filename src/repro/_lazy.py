"""Lazy package exports (PEP 562) shared by every ``repro`` package ``__init__``.

A package lists which submodule defines each public name; the name's
submodule is imported on first attribute access, not when the package
loads.  So ``import repro.cli`` pulls in only what a command touches: a
cache replay never imports numpy or the simulator.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]], eager: Iterable[str] = ()
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose ``exports``
    map submodule -> names.

    Submodules may be named relative to ``package`` (``".config"``).
    ``__all__`` lists ``eager`` -- the names the package defines itself --
    then every lazily exported name, in map order.

    A resolved name is stored in the package namespace, so later lookups
    skip ``__getattr__`` altogether.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, [*eager, *origin]
