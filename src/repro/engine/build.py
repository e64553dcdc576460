"""Engine assembly: one spec, one composed middleware stack.

:func:`build_engine` turns an :class:`EngineSpec` (or just a router name)
into a ready-to-use :class:`~repro.engine.protocol.Router`:

.. code-block:: text

    ValidatingRouter            # typed errors at the boundary
      -> CachedRouter           # optional; translation / symmetry keys
        -> ObservedRouter       # spans + net_routed events per real route
          -> <registered router>

The cache sits *outside* observability on purpose: a cache hit is served
without running the router, so it must not emit a ``net_routed`` event —
exactly the accounting the batch benchmarks assert.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from ..lut.default import DATA_FILE, load_table
from .middleware import ObservedRouter, ValidatingRouter
from .protocol import Router
from .registry import create_router, router_entry


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one engine stack.

    The one description every entry point builds from: the CLI, batch
    routing, the daemon's pool workers and ECO sessions, and the
    negotiator. Frozen and free of live objects, so a spec pickles
    cheaply into worker processes and can be shared as a default.

    Attributes
    ----------
    router:
        Registry name of the innermost router (``"patlabor"``,
        ``"salt"``, ...).
    router_options:
        Keyword arguments for the router's registered factory. A
        lookup table is armed through :attr:`lut`, never a ``"lut"``
        option here.
    lut:
        Path of a lookup-table file (``.npz``, :mod:`repro.io.lut_io`) to
        arm the router with (only routers whose factory takes a ``lut``
        accept one); the shipped table is
        :data:`repro.lut.default.DATA_FILE`. Tables are loaded once per
        process and shared by every engine naming the same file.
    cache:
        ``None`` (no cache) or one of
        :data:`~repro.engine.middleware.CACHE_MODES`:
        ``"translation"`` (source-relative keys, the historical
        behaviour) or ``"symmetry"`` (translation plus the eight
        dihedral symmetries, serving mirrored nets from one entry).
    cache_entries:
        LRU capacity of the cache layer.
    cache_store:
        Optional path to a persistent
        :class:`~repro.core.cache_store.PersistentStore` SQLite file
        installed underneath the LRU (requires ``cache`` to be set);
        disk hits compound across runs and processes.
    incremental:
        Wrap the assembled stack in an
        :class:`~repro.incremental.IncrementalRouter`, the ECO session
        layer: the engine then accepts ``apply_delta`` edits, re-routing
        only the edited net, and its capabilities report
        ``incremental=True``.
    """

    router: str = "patlabor"
    router_options: Dict[str, Any] = field(default_factory=dict)
    lut: Optional[str] = None
    cache: Optional[str] = None
    cache_entries: int = 100_000
    cache_store: Optional[str] = None
    incremental: bool = False


#: The serving stack: PatLabor armed with the shipped degree-4..6 table
#: behind a symmetry cache of 100k entries. The default engine of the
#: daemon (:class:`repro.serve.ServeConfig`), its pool workers
#: (:class:`repro.serve.WorkerSpec`) and the congestion negotiator.
SERVING_ENGINE = EngineSpec(router="patlabor", lut=str(DATA_FILE), cache="symmetry")


def takes_lut(router: str) -> bool:
    """Whether the router registered as ``router`` accepts a lookup table."""
    return "lut" in inspect.signature(router_entry(router).factory).parameters


def build_engine(spec: Union[EngineSpec, str, None] = None) -> Router:
    """Assemble the middleware stack described by ``spec``.

    ``spec`` may be a full :class:`EngineSpec`, a bare router name
    (defaults for everything else), or ``None`` (a plain PatLabor
    engine). Raises ``KeyError`` for unregistered router names and
    ``ValueError`` for unknown cache modes and for a lookup table given
    to a router that takes none or passed as a ``"lut"`` router option.
    """
    if spec is None:
        spec = EngineSpec()
    elif isinstance(spec, str):
        spec = EngineSpec(router=spec)
    if spec.cache_store is not None and spec.cache is None:
        raise ValueError(
            "cache_store requires a cache mode; set EngineSpec.cache to "
            "'translation' or 'symmetry'"
        )
    if "lut" in spec.router_options:
        raise ValueError(
            "arm a lookup table through EngineSpec.lut (a table file path), "
            "not router_options['lut']"
        )
    options = dict(spec.router_options)
    if spec.lut is not None:
        if not takes_lut(spec.router):
            raise ValueError(f"router {spec.router!r} takes no lookup table")
        options["lut"] = load_table(os.path.abspath(spec.lut))
    engine: Router = ObservedRouter(create_router(spec.router, **options))
    if spec.cache is not None:
        from ..core.cache import CachedRouter

        engine = CachedRouter(
            engine,
            max_entries=spec.cache_entries,
            canonicalize=spec.cache,
            store=spec.cache_store,
        )
    engine = ValidatingRouter(engine)
    if spec.incremental:
        # Imported lazily: repro.incremental imports this module.
        from ..incremental.engine import IncrementalRouter

        engine = IncrementalRouter(engine)
    return engine
