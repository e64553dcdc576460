"""The package's one worker pool: a resident engine per worker process.

Both process pools — the daemon's (:mod:`repro.serve.server`) and
:func:`repro.core.batch.route_batch`'s — are the ``ProcessPoolExecutor``
:func:`start_pool` makes. The engine — router, lookup table, cache
tiers — is built **exactly once per worker**, inside :func:`init_worker`
(the pool initializer), from a :class:`WorkerSpec`, and parked in a
module global. Tasks then carry only net payloads; nothing heavy is ever
re-pickled per request.

:func:`start_pool` loads the spec's lookup table in the *parent* before
the pool exists, so on fork start methods every worker inherits the
loaded table copy-on-write and ``init_worker`` finds it already cached;
on spawn methods each worker loads it once from disk. Either way: once
per worker, never per task.

Every worker shares one ``multiprocessing.Barrier``, which is what lets
:func:`broadcast` reach each worker exactly once (readiness probes,
telemetry drains, store flushes).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, TypeVar

from .. import obs
from ..engine.build import SERVING_ENGINE, EngineSpec, build_engine
from ..engine.protocol import Router, route_select
from ..lut.default import load_table
from .protocol import net_from_payload, result_to_payload

if TYPE_CHECKING:
    from multiprocessing.synchronize import Barrier

T = TypeVar("T")

#: Seconds a broadcast task waits at the barrier for the other workers.
BROADCAST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs: its engine and whether to record telemetry.

    A frozen, pickle-friendly description shipped once through the pool
    initializer (never per task). ``telemetry`` turns the worker's own
    obs registry, event log, and trace collector on, so the parent can
    merge what the worker drains (:func:`drain_worker_telemetry`). The
    zero-argument spec is :data:`repro.engine.SERVING_ENGINE`: PatLabor
    with the shipped lookup table behind a symmetry cache.
    """

    engine: EngineSpec = SERVING_ENGINE
    telemetry: bool = False

    def build(self) -> Router:
        """Assemble the engine stack this spec describes."""
        return build_engine(self.engine)


#: The worker-resident engine, built once by :func:`init_worker`.
_ENGINE: Optional[Router] = None

#: The barrier every worker of this pool shares (see :func:`broadcast`).
_BARRIER: Optional["Barrier"] = None


def start_pool(spec: WorkerSpec, workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, each running :func:`init_worker`."""
    if spec.engine.lut is not None:
        # Load in the parent: fork-started workers inherit the table.
        load_table(os.path.abspath(spec.engine.lut))
    context = multiprocessing.get_context()
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=init_worker,
        initargs=(spec, context.Barrier(workers)),
    )


def init_worker(spec: WorkerSpec, barrier: "Barrier") -> None:
    """Pool initializer: build this worker's engine once, park it globally.

    A forked worker inherits the parent's obs buffers and flags, and
    building the engine may record too; both are cleared here, so what
    the worker later drains covers exactly its own tasks. The obs layers
    are then switched to ``spec.telemetry``.
    """
    global _ENGINE, _BARRIER
    _BARRIER = barrier
    _ENGINE = spec.build()
    obs.reset()
    if spec.telemetry:
        obs.enable()
        obs.events_enable()
        obs.trace_enable()
    else:
        obs.disable()
        obs.events_disable()
        obs.trace_disable()


def resident_engine() -> Router:
    """The engine :func:`init_worker` built in this worker process."""
    if _ENGINE is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker pool used before init_worker")
    return _ENGINE


def broadcast(
    executor: ProcessPoolExecutor, fn: Callable[[], T], workers: int
) -> List["Future[T]"]:
    """Run ``fn`` exactly once on each of the pool's ``workers`` workers.

    All tasks are submitted before any result is awaited, and each waits
    at the pool's barrier before running ``fn``: a worker parked at the
    barrier cannot take a second task, so the barrier only trips once
    every worker holds one. Call from one thread at a time. A worker that
    stays busy past :data:`BROADCAST_TIMEOUT_S` breaks the barrier, and
    the tasks fail with ``threading.BrokenBarrierError``.
    """
    return [executor.submit(_at_barrier, fn) for _ in range(workers)]


def _at_barrier(fn: Callable[[], T]) -> T:
    """Broadcast task body: meet every other worker, then run ``fn``."""
    assert _BARRIER is not None
    _BARRIER.wait(BROADCAST_TIMEOUT_S)
    return fn()


def route_payload(
    payload: Dict[str, Any],
    with_trees: bool = False,
    request_id: Optional[str] = None,
    net_id: Optional[str] = None,
    select: Optional[str] = None,
) -> Dict[str, Any]:
    """Route one net payload on the resident engine (runs in a worker).

    Returns the response entry for this net plus accounting the server
    aggregates: which cache tier served it (``memory`` / ``store`` /
    ``routed``, derived from the engine's counter deltas) and the worker
    wall time.

    ``request_id`` / ``net_id`` are the daemon-assigned trace identity:
    the route runs inside :func:`repro.obs.request_context`, so worker-
    side spans and ``net_routed`` events carry them, and they ride the
    result back (``request_id`` in the out dict) for end-to-end checks.

    ``select`` is an optional frontier point-policy spec (see
    :func:`repro.engine.resolve_point_policy`); when given, the chosen
    index rides the result as ``"chosen"`` — the same selection hook the
    congestion negotiator uses, applied worker-side so the whole front
    never has to cross the wire just to pick one tree.
    """
    engine = resident_engine()
    net = net_from_payload(payload)
    chosen: Optional[int] = None
    mem0 = int(getattr(engine, "hits", 0))
    store0 = int(getattr(engine, "store_hits", 0))
    with obs.request_context(request_id, net_id):
        t0 = time.perf_counter()
        if select is not None:
            front, chosen = route_select(engine, net, select)
        else:
            front = engine.route(net)
        seconds = time.perf_counter() - t0
        obs.timer_observe("serve.worker_net_seconds", seconds)
    if int(getattr(engine, "hits", 0)) > mem0:
        served = "memory"
    elif int(getattr(engine, "store_hits", 0)) > store0:
        served = "store"
    else:
        served = "routed"
    out = result_to_payload(
        net.name or "net", front, served, with_trees=with_trees
    )
    out["seconds"] = seconds
    if chosen is not None:
        out["chosen"] = chosen
    if request_id is not None:
        out["request_id"] = request_id
    return out


def worker_ready() -> Dict[str, Any]:
    """Readiness probe body: proof this worker's initializer completed.

    The daemon broadcasts this after pool creation; the returned dicts
    are the evidence behind ``/readyz`` (pid shows which worker answered,
    store flags show the persistent tier is attached and not degraded).
    """
    store = getattr(_ENGINE, "store", None) if _ENGINE is not None else None
    return {
        "pid": os.getpid(),
        "engine": _ENGINE is not None,
        "store_attached": store is not None,
        "store_healthy": bool(getattr(store, "healthy", True)),
    }


def drain_worker_telemetry() -> Dict[str, Any]:
    """This worker's obs state, serialised for a merge in the parent.

    Returns the registry snapshot (with raw timer samples), the buffered
    structured events, and the buffered trace events, and empties all
    three, so a later drain ships only new data. Harmless (all empty)
    when the worker runs without telemetry.
    """
    registry = obs.get_registry()
    snapshot = registry.snapshot(with_samples=True)
    registry.reset()
    return {
        "pid": os.getpid(),
        "snapshot": snapshot,
        "events": obs.drain_events(),
        "trace": obs.get_trace_collector().drain(),
    }


def flush_worker() -> Dict[str, float]:
    """Flush the resident engine's persistent tier; return cache counters.

    The server broadcasts this at shutdown so every worker's session
    hit/miss statistics land in the store's meta table before the pool
    dies, keeping ``repro cache stats`` truthful.
    """
    counters = {
        "hits": float(getattr(_ENGINE, "hits", 0)),
        "store_hits": float(getattr(_ENGINE, "store_hits", 0)),
        "misses": float(getattr(_ENGINE, "misses", 0)),
    }
    close = getattr(_ENGINE, "close", None)
    if callable(close):
        close()
    return counters
