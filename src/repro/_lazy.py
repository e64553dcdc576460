"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports names from submodules the route path never
runs binds them on first use instead of at import, so set-up does not
pay for those submodules (``docs/architecture.md``, "What the route
path imports")::

    def __getattr__(name: str) -> Any:
        return resolve_lazy(globals(), {"load_lut": "lut_io"}, name)

Only use it for names that no submodule of the package shares: a
submodule import rebinds the package attribute of its own name.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict


def resolve_lazy(namespace: Dict[str, Any], exports: Dict[str, str], name: str) -> Any:
    """``name`` from the submodule ``exports`` maps it to, bound into
    ``namespace`` (the package's globals) so later lookups skip this;
    :class:`AttributeError` for a name ``exports`` does not list."""
    package = namespace["__name__"]
    try:
        module = exports[name]
    except KeyError:
        raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", package), name)
    namespace[name] = value
    return value
