"""``repro.engine`` — the uniform routing-service layer.

The architectural seam between callers and algorithms (see
``docs/architecture.md``): every tree constructor is a
:class:`~repro.engine.protocol.Router` resolved by name from one
registry, and everything cross-cutting — caching, input validation,
observability — is middleware composed around that protocol by
:func:`~repro.engine.build.build_engine`. Quickstart::

    from repro.engine import EngineSpec, build_engine

    engine = build_engine(EngineSpec(router="patlabor", cache="symmetry"))
    front = engine.route(net)          # validated, cached, instrumented

    # the serving stack: shipped lookup table behind a symmetry cache
    served = build_engine(EngineSpec(lut=DATA_FILE, cache="symmetry"))

Resolution by name (what ``eval.runner``, ``core.batch``, and the CLI
use instead of hand-built method dicts)::

    from repro.engine import available_routers, create_router

    salt = create_router("salt")       # case/separator-insensitive
    print(available_routers())
"""

from __future__ import annotations

from .protocol import (
    DelayBudgetPolicy,
    KneePolicy,
    MinDelayPolicy,
    MinWirelengthPolicy,
    POINT_POLICIES,
    PointPolicy,
    Router,
    RouterCapabilities,
    resolve_point_policy,
    route_select,
)
from .registry import (
    RouterEntry,
    available_routers,
    create_router,
    display_names,
    register_router,
    router_entry,
)
from .middleware import (
    CACHE_MODES,
    ObservedRouter,
    RouterMiddleware,
    ValidatingRouter,
)
from .build import SERVING_ENGINE, EngineSpec, build_engine
from . import adapters as _adapters  # noqa: F401  (populates the registry)
from .adapters import FunctionRouter, single_tree_router

__all__ = [
    "CACHE_MODES",
    "DelayBudgetPolicy",
    "EngineSpec",
    "FunctionRouter",
    "KneePolicy",
    "MinDelayPolicy",
    "MinWirelengthPolicy",
    "ObservedRouter",
    "POINT_POLICIES",
    "PointPolicy",
    "Router",
    "RouterCapabilities",
    "RouterEntry",
    "RouterMiddleware",
    "SERVING_ENGINE",
    "ValidatingRouter",
    "available_routers",
    "build_engine",
    "create_router",
    "display_names",
    "register_router",
    "resolve_point_policy",
    "route_select",
    "router_entry",
    "single_tree_router",
]
