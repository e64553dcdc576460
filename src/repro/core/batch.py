"""Batch routing: route whole net lists with caching and multiprocessing.

The paper's use case is "route millions of nets"; this module provides the
throughput layer a production deployment needs:

* :func:`route_batch` — route a net list, optionally across worker
  processes (nets are independent), on the engine stack one
  :class:`~repro.engine.EngineSpec` describes (any registered router,
  any cache mode, an optional persistent store).
* :class:`BatchResult` — per-net Pareto sets plus throughput statistics.

Parallel runs use the package's one worker pool
(:class:`repro.serve.pool.WorkerPool`, the daemon's pool too): each
worker builds its engine **once**, when it starts, so the engine —
lookup table, cache, RNG state — is never re-pickled per task: only nets
and plain objective results cross process boundaries. The parent
submits one shard per worker on a short-lived event loop and merges the
results in shard order. With
``cache_store`` set, every worker shares one persistent disk tier, so
canonical patterns solved by one worker (or a previous run) are disk
hits for all the others.

When observability is enabled (:func:`repro.obs.enable`) the run is
profiled end to end: per-net route times, per-worker throughput and queue
wait, and the workers' own metric registries — drained by every task and
merged back into the parent process — all surfaced both in the global
registry and in :attr:`BatchResult.metrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Coroutine, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..engine.build import EngineSpec, build_engine
from ..engine.protocol import Router
from ..geometry.net import Net
from .. import obs
from ..obs import emit_event, span, timer_observe
from .pareto import Solution

#: The engine :func:`route_batch` routes on by default: PatLabor behind a
#: translation cache, with no lookup table (LUT fronts can differ from
#: the exact Pareto-DW fronts in the last bits, ``docs/numerics.md`` §4).
BATCH_ENGINE = EngineSpec(router="patlabor", cache="translation")

_T = TypeVar("_T")


@dataclass
class BatchResult:
    """Outcome of one batch run."""

    fronts: Dict[str, List[Solution]]
    seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    #: Structured profile of the run (only populated while
    #: :func:`repro.obs.enable` is active): headline throughput numbers
    #: plus one entry per worker. ``None`` on unprofiled runs.
    metrics: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def nets_per_second(self) -> float:
        """Routed nets per wall-clock second (0.0 for an empty run)."""
        return len(self.fronts) / self.seconds if self.seconds > 0 else 0.0

    @property
    def total_solutions(self) -> int:
        """Pareto solutions summed over every net's front."""
        return sum(len(f) for f in self.fronts.values())

    @property
    def cache_hit_rate(self) -> float:
        """Memory plus disk hits over all cache lookups (0.0 without any)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _route_with(
    router: Router, nets: Sequence[Net]
) -> Tuple[Dict[str, List[Solution]], int, int]:
    """Route ``nets`` through an assembled engine, counting cache deltas.

    Hit/miss counts are reported as *deltas* over the call (the engine may
    be a pool-resident instance that already served earlier tasks).
    """
    hits0 = getattr(router, "hits", 0) + getattr(router, "store_hits", 0)
    misses0 = getattr(router, "misses", 0)
    fronts: Dict[str, List[Solution]] = {}
    profiling = obs.enabled()
    for i, net in enumerate(nets):
        name = net.name or f"net_{i}"
        if profiling:
            t0 = time.perf_counter()
            fronts[name] = router.route(net)
            timer_observe("batch.net_seconds", time.perf_counter() - t0)
        else:
            fronts[name] = router.route(net)
    hits = getattr(router, "hits", 0) + getattr(router, "store_hits", 0) - hits0
    misses = getattr(router, "misses", 0) - misses0
    return fronts, hits, misses


def _route_shard(nets: Sequence[Net], dispatched_at: float) -> Dict[str, Any]:
    """Pool task: route one shard on the worker's resident engine.

    Flushes the persistent store's lifetime counters (pool teardown ends
    workers without running atexit hooks), then returns payload-free
    fronts (objectives are what batch callers need; trees don't cross
    process boundaries cheaply), the hit/miss deltas, and — when the
    worker records telemetry — its stats and drained obs buffers.
    """
    from ..serve import pool

    started_at = time.time()
    t0 = time.perf_counter()
    engine = pool.resident_engine()
    fronts, hits, misses = _route_with(engine, nets)
    store = getattr(engine, "store", None)
    if store is not None:
        store.flush_stats()
    out: Dict[str, Any] = {
        "fronts": {
            name: [(w, d, None) for w, d, _t in front]
            for name, front in fronts.items()
        },
        "hits": hits,
        "misses": misses,
        "stats": None,
    }
    if obs.enabled():
        elapsed = time.perf_counter() - t0
        out["stats"] = {
            "nets": len(fronts),
            "seconds": elapsed,
            "nets_per_second": len(fronts) / elapsed if elapsed > 0 else 0.0,
            "queue_wait_seconds": max(0.0, started_at - dispatched_at),
        }
        out["telemetry"] = pool.drain_worker_telemetry()
    return out


def route_batch(
    nets: Sequence[Net], engine: EngineSpec = BATCH_ENGINE, *, jobs: int = 1
) -> BatchResult:
    """Route every net; returns per-net Pareto sets keyed by net name.

    ``engine`` describes the stack every net is routed on (default
    :data:`BATCH_ENGINE`): the router name, the cache mode, and an
    optional persistent store shared by every worker (disk hits count
    into :attr:`BatchResult.cache_hits`).

    With ``jobs > 1`` the nets are sharded across the processes of a
    :class:`repro.serve.pool.WorkerPool` and the returned solutions carry
    ``None`` payloads (objectives only); run serially when the trees
    themselves are needed. Each worker builds its engine exactly once,
    when it starts — tasks carry nets, not engine state. A worker that
    dies raises ``ReproError("worker pool died: …")``. When any
    observability layer is enabled in the parent — metrics registry,
    Chrome-trace capture, structured event log — the workers record too,
    and every task ships its drained buffers back for merging, so
    cross-process runs still produce one registry, one trace, and one
    chronological event stream.
    """
    profiling = obs.enabled()
    tracing = obs.trace_enabled()
    logging_events = obs.events_enabled()
    t0 = time.perf_counter()
    workers: List[Dict[str, float]] = []
    with span("batch.route_batch"):
        if not nets:
            # Nothing to route: skip pool setup entirely. Ratio metrics
            # (cache_hit_rate, nets_per_second) read 0.0 on this path.
            fronts: Dict[str, List[Solution]] = {}
            hits = misses = 0
        elif jobs <= 1:
            router = build_engine(engine)
            try:
                fronts, hits, misses = _route_with(router, nets)
            finally:
                close = getattr(router, "close", None)
                if callable(close):
                    close()
        else:
            fronts, hits, misses, workers = _route_parallel(
                nets, engine, jobs, profiling or tracing or logging_events
            )
    result = BatchResult(
        fronts=fronts,
        seconds=time.perf_counter() - t0,
        cache_hits=hits,
        cache_misses=misses,
    )
    if profiling:
        result.metrics = _batch_metrics(result, workers=workers)
    if logging_events and nets:
        _emit_batch_event(result, jobs=max(1, jobs))
    return result


def _route_parallel(
    nets: Sequence[Net], engine: EngineSpec, jobs: int, telemetry: bool
) -> Tuple[Dict[str, List[Solution]], int, int, List[Dict[str, float]]]:
    """Shard ``nets`` round-robin over a ``jobs``-worker pool; merge back.

    One shard per worker, run on an event loop of its own; the results
    are merged in shard order. Returns the fronts, the summed hit/miss
    deltas, and one stats entry per task; each task's drained telemetry
    is folded into whichever parent obs layers are enabled.
    """
    import asyncio

    from ..serve import pool

    shards = [list(nets[i::jobs]) for i in range(jobs) if nets[i::jobs]]
    dispatched_at = time.time()
    spec = pool.WorkerSpec(engine=engine, telemetry=telemetry)
    fronts: Dict[str, List[Solution]] = {}
    hits = misses = 0
    workers: List[Dict[str, float]] = []

    async def route_shards(shard_pool: "pool.WorkerPool") -> List[Dict[str, Any]]:
        shard_pool.attach(asyncio.get_running_loop())
        return await asyncio.gather(
            *[shard_pool.submit(_route_shard, shard, dispatched_at) for shard in shards]
        )

    with pool.WorkerPool(spec, len(shards)) as shard_pool:
        for out in _run_loop(route_shards(shard_pool)):
            fronts.update(out["fronts"])
            hits += out["hits"]
            misses += out["misses"]
            stats = out["stats"]
            if stats is None:
                continue
            drained = out["telemetry"]
            if obs.enabled():
                obs.get_registry().merge_snapshot(drained["snapshot"])
            if obs.trace_enabled():
                obs.get_trace_collector().extend(drained["trace"])
            if obs.events_enabled():
                obs.get_event_log().extend(drained["events"])
            timer_observe("batch.queue_wait_seconds", stats["queue_wait_seconds"])
            timer_observe("batch.worker_seconds", stats["seconds"])
            workers.append(stats)
    return fronts, hits, misses, workers


def _run_loop(coroutine: Coroutine[Any, Any, _T]) -> _T:
    """``asyncio.run(coroutine)``, on a thread of its own when this thread
    already runs an event loop (a notebook, a coroutine)."""
    import asyncio
    from concurrent.futures import ThreadPoolExecutor

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coroutine)
    with ThreadPoolExecutor(1) as runner:
        return runner.submit(asyncio.run, coroutine).result()


def _emit_batch_event(result: BatchResult, jobs: int) -> None:
    """One ``batch_done`` summary event per :func:`route_batch` call."""
    emit_event(
        "batch_done",
        nets=len(result.fronts),
        jobs=jobs,
        seconds=result.seconds,
        nets_per_second=result.nets_per_second,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        cache_hit_rate=result.cache_hit_rate,
        peak_rss_kb=obs.peak_rss_kb(),
    )


def _batch_metrics(
    result: BatchResult, workers: List[Dict[str, float]]
) -> Dict[str, object]:
    """The headline profile numbers attached to :attr:`BatchResult.metrics`."""
    obs.counter_add("batch.nets", len(result.fronts))
    return {
        "nets": len(result.fronts),
        "seconds": result.seconds,
        "nets_per_second": result.nets_per_second,
        "cache_hit_rate": result.cache_hit_rate,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "workers": workers,
    }
