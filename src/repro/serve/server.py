"""The routing daemon: an asyncio front-end over a shared-LUT worker pool.

``repro serve`` turns the per-invocation CLI into **routing as a
service**: one resident process accepts batched JSON route requests over
a Unix socket and/or TCP, dispatches nets to a
:class:`~repro.serve.pool.WorkerPool` whose workers each built their
engine exactly once, and answers with Pareto fronts — so repeated
traffic pays neither interpreter start-up, nor lookup-table loading, nor
re-routing of patterns the cache tiers already hold.

Request lifecycle (see ``docs/architecture.md`` for the full diagram)::

    client ── JSON line ──> asyncio reader ──> submit ──> worker's pipe
                                                           (resident
                                                            engine)
    client <── JSON line ── writer  <── gather  <── add_reader: reply

The event loop itself writes each net to a worker's pipe and reads the
reply when the pipe turns readable: no executor thread sits between the
loop and the workers.

Throughput accounting rides :mod:`repro.obs` (no-op unless enabled):
``serve.requests`` / ``serve.nets`` counters, per-tier
``serve.served_{memory,store,routed}`` counters, a
``serve.request_seconds`` timer per request, and a
``serve.queue_depth_max`` gauge. The same numbers are always available —
obs enabled or not — through the ``stats`` op and :meth:`RouteServer.stats`,
which is how the benchmark publishes ``serve.requests_per_second`` and
``cache.store_hit_rate`` to the run ledger.

Live telemetry (PR 8) adds an always-on layer the enabled flag does not
gate, because it is how the daemon is *operated* rather than profiled:

* per-request and per-tier latency **histograms**
  (:class:`repro.obs.LatencyHistogram`) updated inline — exact bucket
  counts, so the merged per-tier totals equal the daemon's net total by
  construction;
* a daemon-assigned ``request_id`` on every route request that rides the
  task tuple into the pool workers (one connected trace lane per request
  across pids — see :func:`repro.obs.request_context`);
* an optional HTTP sidecar (``--metrics-port``) answering ``/metrics``,
  ``/healthz``, and ``/readyz`` (:mod:`repro.serve.http`), plus
  structured ``slow_request`` log records above
  :attr:`ServeConfig.slow_request_seconds`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, cast

from .. import obs
from ..engine.build import SERVING_ENGINE, EngineSpec, build_engine
from ..engine.protocol import resolve_point_policy
from ..exceptions import ReproError
from . import pool
from .http import TelemetryEndpoint
from .protocol import (
    KNOWN_OPS,
    MAX_NETS_PER_REQUEST,
    PROTOCOL_VERSION,
    check_version,
    decode_message,
    encode_message,
    net_from_payload,
    result_to_payload,
)

if TYPE_CHECKING:
    from ..incremental.engine import IncrementalRouter

#: Structured logger carrying the daemon's slow-request records.
LOGGER = logging.getLogger("repro.serve")

#: The cache tiers a net can be served from, in warmest-first order.
TIERS = ("memory", "store", "routed")

#: Line-buffer limit for reader streams: route batches and tree payloads
#: are JSON lines that can far exceed asyncio's 64 KiB default.
STREAM_LIMIT = 64 * 1024 * 1024

#: Cap on concurrently-held ECO sessions (each holds an engine with its
#: caches and every tracked net's last net and front; a runaway client
#: must not exhaust the daemon).
MAX_ECO_SESSIONS = 64


@dataclass
class ServeConfig:
    """Deployment knobs of one :class:`RouteServer` instance.

    At least one of ``socket_path`` / ``host`` must be set. ``port=0``
    binds an ephemeral TCP port (read it back from
    :attr:`RouteServer.tcp_port` — how tests and the smoke job avoid
    collisions).

    ``engine`` is the stack every pool worker and every ECO session
    builds (default: :data:`repro.engine.SERVING_ENGINE`, PatLabor with
    the shipped lookup table behind a symmetry cache). ``store_path``
    attaches the shared persistent cache tier to the pool workers only;
    set it here, not as ``engine.cache_store``.

    ``metrics_port`` (when not None) binds the HTTP telemetry sidecar —
    ``/metrics``, ``/healthz``, ``/readyz`` — on ``metrics_host``;
    ``metrics_port=0`` binds an ephemeral port (read it back from
    :attr:`RouteServer.metrics_port`). ``telemetry`` additionally enables
    the obs registries inside every pool worker so their metrics are
    drained and merged into the daemon's at shutdown.
    """

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    workers: int = 2
    store_path: Optional[str] = None
    telemetry: bool = False
    metrics_host: str = "127.0.0.1"
    metrics_port: Optional[int] = None
    slow_request_seconds: float = 1.0
    engine: EngineSpec = SERVING_ENGINE


class RouteServer:
    """The daemon: accepts route requests, answers from the worker pool.

    Lifecycle: :meth:`start` (binds the listeners, then starts the
    pool), :meth:`serve_until_stopped` (runs until a ``shutdown`` request
    or :meth:`stop`), after which the sockets are closed, the workers'
    telemetry is drained, every worker's persistent-store statistics are
    flushed, and every worker is joined.
    """

    def __init__(self, config: ServeConfig) -> None:
        if config.socket_path is None and config.host is None:
            raise ValueError("ServeConfig needs a socket_path and/or a host")
        if config.engine.cache_store is not None:
            raise ValueError(
                "set ServeConfig.store_path, not engine.cache_store: the "
                "store belongs to the pool workers, not ECO sessions"
            )
        self.config = config
        self._workers = max(1, config.workers)
        self.started_at = 0.0
        self.requests = 0
        self.nets = 0
        self.errors = 0
        self.served: Dict[str, int] = {tier: 0 for tier in TIERS}
        self.queue_depth = 0
        self.queue_depth_max = 0
        #: Per-daemon-incarnation token prefixed onto every request id, so
        #: ids stay disjoint across daemon restarts even when the sequence
        #: counter resets with the process.
        self.instance = uuid.uuid4().hex[:8]
        self._request_seq = 0
        #: Always-on latency histograms (exact counts, associative merge;
        #: independent of the obs enabled flag — this is how the daemon is
        #: operated, not profiled). ``request_hist`` tracks whole-request
        #: wall time; ``net_hists`` tracks worker-measured per-net wall
        #: time keyed by the cache tier that served the net, so the three
        #: tier counts sum to ``self.nets`` by construction (the ``eco``
        #: lane is separate: keyed under ``"eco"``, counted by
        #: ``self.eco_deltas``, never folded into ``self.nets``).
        self.request_hist = obs.LatencyHistogram()
        self.net_hists: Dict[str, obs.LatencyHistogram] = {
            tier: obs.LatencyHistogram() for tier in TIERS
        }
        self.slow_requests = 0
        #: Set by the readiness task once every pool worker answered its
        #: :func:`repro.serve.pool.worker_ready` probe (see :attr:`ready`).
        self._probed = False
        self.worker_info: List[Dict[str, Any]] = []
        self._pool: Optional[pool.WorkerPool] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._metrics_endpoint: Optional[TelemetryEndpoint] = None
        self._ready_task: Optional["asyncio.Task[None]"] = None
        #: Daemon-held ECO sessions: one IncrementalRouter (own engine +
        #: per-net last net and front) per session id. Session engines never
        #: attach the persistent store — it is flock single-writer and
        #: belongs to the pool workers. All ECO work runs serialized on a
        #: lazily-created single-thread executor (IncrementalRouter is
        #: not thread-safe), off the event loop.
        self._eco_sessions: Dict[str, "IncrementalRouter"] = {}
        self._eco_executor: Optional[ThreadPoolExecutor] = None
        self.eco_deltas = 0

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the configured endpoints, then start the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self.config.socket_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection,
                    path=self.config.socket_path,
                    limit=STREAM_LIMIT,
                )
            )
        if self.config.host is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection,
                    host=self.config.host,
                    port=self.config.port,
                    limit=STREAM_LIMIT,
                )
            )
        if self.config.metrics_port is not None:
            self._metrics_endpoint = TelemetryEndpoint(
                metrics=self.metrics_text,
                ready=lambda: self.ready,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            await self._metrics_endpoint.start()
        spec = pool.WorkerSpec(
            engine=dataclasses.replace(
                self.config.engine, cache_store=self.config.store_path
            ),
            telemetry=self.config.telemetry,
        )
        self._pool = pool.WorkerPool(spec, self._workers)
        self._pool.attach(self._loop)
        self._ready_task = self._loop.create_task(self._await_pool_ready())
        self.started_at = time.time()

    async def _await_pool_ready(self) -> None:
        """Probe the pool until every worker's initializer has completed.

        Broadcasts :func:`repro.serve.pool.worker_ready` (one probe per
        worker, never two on one) and gathers the answers. ``/readyz``
        flips to 200 only after the gather resolves — i.e. after the pool
        has actually executed work post-initialization — and only if
        each answer shows a healthy store when one is configured. A
        broken pool leaves the daemon permanently not-ready (the right
        probe verdict for it).
        """
        assert self._pool is not None
        try:
            info = await asyncio.gather(*self._pool.broadcast(pool.worker_ready))
        except (ReproError, asyncio.CancelledError):
            return
        self.worker_info = info
        needs_store = self.config.store_path is not None
        self._probed = all(
            w.get("engine")
            and (not needs_store or (w.get("store_attached") and w.get("store_healthy")))
            for w in info
        )

    @property
    def ready(self) -> bool:
        """Whether ``/readyz`` answers 200: every worker answered its
        readiness probe, and none has died since."""
        return self._probed and self._pool is not None and self._pool.broken is None

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (None without a TCP listener)."""
        if self.config.host is None:
            return None
        for server in self._servers:
            for sock in server.sockets or []:
                name = sock.getsockname()
                if isinstance(name, tuple) and len(name) >= 2:
                    return int(name[1])
        return None

    @property
    def metrics_port(self) -> Optional[int]:
        """The telemetry sidecar's bound port (None when not configured)."""
        if self._metrics_endpoint is None:
            return None
        return self._metrics_endpoint.port

    def stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to wind the daemon down."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Serve requests until :meth:`stop` (or a ``shutdown`` request)."""
        if self._stop_event is None:
            await self.start()
        assert self._stop_event is not None
        await self._stop_event.wait()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        if self._ready_task is not None:
            self._ready_task.cancel()
            self._ready_task = None
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.stop()
            self._metrics_endpoint = None
        if self._pool is not None:
            if self.config.telemetry:
                # Drain worker-side telemetry into the daemon's global
                # registries (histogram merges are associative, so the
                # drain order across workers is immaterial).
                for drained in await self._broadcast(pool.drain_worker_telemetry):
                    obs.get_registry().merge_snapshot(drained["snapshot"])
                    obs.get_event_log().extend(drained["events"])
                    obs.get_trace_collector().extend(drained["trace"])
            # Ask workers to flush their persistent-store statistics now
            # (their atexit hooks cover stragglers).
            await self._broadcast(pool.flush_worker)
            self._pool.close()
        if self._eco_executor is not None:
            self._eco_executor.shutdown(wait=True)
            self._eco_executor = None
        self._eco_sessions.clear()

    async def _broadcast(self, fn: Callable[[], Any]) -> List[Any]:
        """Run ``fn`` once on every worker; the answers that came back.

        Best effort, for shutdown: a broken pool, a failed task and a
        worker still busy after :data:`repro.serve.pool.SHUTDOWN_TIMEOUT_S`
        each just give no answer.
        """
        assert self._pool is not None
        futures = self._pool.broadcast(fn)
        await asyncio.wait(futures, timeout=pool.SHUTDOWN_TIMEOUT_S)
        return [
            f.result()
            for f in futures
            if f.done() and not f.cancelled() and f.exception() is None
        ]

    # ------------------------------------------------------------- handlers

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: serve JSON lines until EOF."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._handle_message(line)
                writer.write(encode_message(response))
                await writer.drain()
                if response.get("stopping"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown cancels handlers still blocked in
            # readline(); treat it as EOF. Ending the task *normally*
            # matters: on 3.11 the streams machinery logs a cancelled
            # handler task as "Exception in callback" noise.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (  # pragma: no cover
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
            ):
                pass

    async def _handle_message(self, line: bytes) -> Dict[str, Any]:
        """Decode, dispatch, and account one request line."""
        t0 = time.perf_counter()
        request_id: Any = None
        try:
            message = decode_message(line)
            request_id = message.get("id")
            op = message.get("op")
            if op not in KNOWN_OPS:
                raise ReproError(
                    f"unknown op {op!r}; expected one of {KNOWN_OPS}"
                )
            check_version(message, op)
            self.requests += 1
            obs.counter_add("serve.requests")
            if op == "ping":
                response: Dict[str, Any] = {"ok": True, "pong": True}
            elif op == "stats":
                response = {"ok": True, "stats": self.stats()}
            elif op == "shutdown":
                response = {"ok": True, "stopping": True}
                self.stop()
            elif op == "eco":
                response = await self._op_eco(message)
            else:
                response = await self._op_route(message)
        except ReproError as exc:
            self.errors += 1
            obs.counter_add("serve.errors")
            response = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        except Exception as exc:  # defensive: a request must never kill the loop
            self.errors += 1
            obs.counter_add("serve.errors")
            response = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__,
            }
        response["id"] = request_id
        seconds = time.perf_counter() - t0
        self.request_hist.observe(seconds)
        obs.timer_observe("serve.request_seconds", seconds)
        if seconds > self.config.slow_request_seconds:
            self._log_slow_request(response, seconds)
        return response

    def _log_slow_request(self, response: Dict[str, Any], seconds: float) -> None:
        """Structured record for one request over the slow threshold.

        Emits both a ``logging`` record on ``repro.serve`` (operators
        tail this) and — when event logging is on — a ``slow_request``
        event into the obs event log, each carrying the daemon-assigned
        request id so the record joins the request's trace lane.
        """
        self.slow_requests += 1
        rid = str(response.get("request_id", ""))
        nets = len(response.get("results", []) or [])
        LOGGER.warning(
            "slow_request request_id=%s seconds=%.6f nets=%d threshold=%.3f",
            rid,
            seconds,
            nets,
            self.config.slow_request_seconds,
        )
        obs.emit_event(
            "slow_request",
            request_id=rid,
            seconds=seconds,
            nets=nets,
            threshold_s=self.config.slow_request_seconds,
        )

    def _next_request_id(self) -> str:
        """The next daemon-assigned request id (instance token + sequence)."""
        self._request_seq += 1
        return f"{self.instance}-{self._request_seq}"

    async def _op_route(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Fan a route request's nets out to the pool; gather in order.

        The daemon assigns the request a ``request_id`` and each net a
        ``net_id`` (``<request_id>/<index>``); both ride the task tuple
        into the worker, scope its spans/events, and come back in the
        response for end-to-end propagation checks. Worker-measured
        per-net seconds are folded into the per-tier latency histograms
        here — on the event loop, so no locking subtleties — which keeps
        the merged tier counts equal to ``self.nets`` at all times.
        """
        nets = message.get("nets")
        if not isinstance(nets, list) or not nets:
            raise ReproError("route request needs a non-empty 'nets' list")
        if len(nets) > MAX_NETS_PER_REQUEST:
            raise ReproError(
                f"route request carries {len(nets)} nets; "
                f"limit is {MAX_NETS_PER_REQUEST}"
            )
        with_trees = bool(message.get("with_trees", False))
        select = message.get("select")
        if select is not None:
            if not isinstance(select, str):
                raise ReproError("route 'select' must be a policy spec string")
            # Fail fast on the event loop (PolicyError is a ReproError),
            # instead of once per net inside the workers.
            resolve_point_policy(select)
        request_id = self._next_request_id()
        assert self._pool is not None
        self.queue_depth += len(nets)
        self.queue_depth_max = max(self.queue_depth_max, self.queue_depth)
        obs.gauge_max("serve.queue_depth_max", float(self.queue_depth))
        try:
            # On a broken pool every future fails with "worker pool
            # died" (a ReproError), and ``ready`` reads false.
            results = await asyncio.gather(
                *[
                    self._pool.submit(
                        pool.route_payload,
                        payload,
                        with_trees,
                        request_id,
                        f"{request_id}/{index}",
                        select,
                    )
                    for index, payload in enumerate(nets)
                ]
            )
        finally:
            self.queue_depth -= len(nets)
        self.nets += len(results)
        obs.counter_add("serve.nets", len(results))
        for result in results:
            tier = str(result.get("served", "routed"))
            self.served[tier] = self.served.get(tier, 0) + 1
            obs.counter_add(f"serve.served_{tier}")
            seconds = result.get("seconds")
            if isinstance(seconds, (int, float)):
                hist = self.net_hists.get(tier)
                if hist is None:
                    hist = self.net_hists[tier] = obs.LatencyHistogram()
                hist.observe(float(seconds))
        return {"ok": True, "request_id": request_id, "results": list(results)}

    # ------------------------------------------------------------------- eco

    def _eco_router(self) -> "IncrementalRouter":
        """A fresh session engine for one ECO session.

        Built from :attr:`ServeConfig.engine`, the spec the pool workers
        use minus the persistent store — the store is flock single-writer
        and belongs to the pool workers; session engines live privately
        inside the daemon process.
        """
        return cast(
            "IncrementalRouter",
            build_engine(dataclasses.replace(self.config.engine, incremental=True)),
        )

    async def _op_eco(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One ECO request: seed a session (``nets``) or apply a ``delta``.

        Sessions are daemon-held :class:`IncrementalRouter` instances
        keyed by the client-chosen ``session`` string. The ``nets`` form
        routes and *tracks* the nets (creating the session on first
        touch, up to :data:`MAX_ECO_SESSIONS`); the ``delta`` form
        applies one edit against the session and answers with the
        re-routed front, its tier and its time. All session work runs
        serialized on a single-thread executor — IncrementalRouter is
        stateful and not thread-safe — so concurrent clients interleave
        at delta granularity without corrupting session state.
        """
        from ..incremental.delta import delta_from_payload

        session_id = message.get("session")
        if not isinstance(session_id, str) or not session_id:
            raise ReproError("eco request needs a non-empty 'session' string")
        assert self._loop is not None
        if self._eco_executor is None:
            self._eco_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-eco"
            )
        request_id = self._next_request_id()
        with_trees = bool(message.get("with_trees", False))
        nets = message.get("nets")
        if nets is not None:
            if not isinstance(nets, list) or not nets:
                raise ReproError("eco 'nets' must be a non-empty list")
            if len(nets) > MAX_NETS_PER_REQUEST:
                raise ReproError(
                    f"eco request carries {len(nets)} nets; "
                    f"limit is {MAX_NETS_PER_REQUEST}"
                )
            router = self._eco_sessions.get(session_id)
            if router is None:
                if len(self._eco_sessions) >= MAX_ECO_SESSIONS:
                    raise ReproError(
                        f"eco session limit reached ({MAX_ECO_SESSIONS}); "
                        "reuse an existing session id"
                    )
                router = self._eco_router()
                self._eco_sessions[session_id] = router
            parsed = [net_from_payload(payload) for payload in nets]

            def _seed() -> List[Dict[str, Any]]:
                return [
                    result_to_payload(
                        net.name,
                        router.route(net),
                        "eco",
                        with_trees=with_trees,
                    )
                    for net in parsed
                ]

            results = await self._loop.run_in_executor(
                self._eco_executor, _seed
            )
            return {
                "ok": True,
                "request_id": request_id,
                "session": session_id,
                "tracked": router.num_sessions,
                "results": results,
            }
        delta_payload = message.get("delta")
        if delta_payload is None:
            raise ReproError(
                "eco request needs 'nets' (seed/track) or 'delta' (apply)"
            )
        router = self._eco_sessions.get(session_id)
        if router is None:
            raise ReproError(
                f"unknown eco session {session_id!r}; "
                "seed it with a 'nets' request first"
            )
        delta = delta_from_payload(delta_payload)
        eco = await self._loop.run_in_executor(
            self._eco_executor, partial(router.apply_delta, delta)
        )
        self.eco_deltas += 1
        hist = self.net_hists.get("eco")
        if hist is None:
            hist = self.net_hists["eco"] = obs.LatencyHistogram()
        hist.observe(eco.wall_s)
        response: Dict[str, Any] = {
            "ok": True,
            "request_id": request_id,
            "session": session_id,
            "kind": eco.kind,
            "tier": eco.tier,
            "cache_hit": eco.cache_hit,
            "seconds": eco.wall_s,
        }
        if eco.net is not None and eco.front is not None:
            response["result"] = result_to_payload(
                eco.net.name, eco.front, "eco", with_trees=with_trees
            )
        return response

    # ----------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        """The daemon's throughput counters, as served by the ``stats`` op.

        ``warm_hit_rate`` counts nets answered without routing (memory or
        store tier) over all nets; ``store_hit_rate`` counts disk hits
        over the nets that missed memory — the number the cross-run cache
        tier is judged by.
        """
        uptime = max(time.time() - self.started_at, 1e-9)
        memory = self.served.get("memory", 0)
        store = self.served.get("store", 0)
        routed = self.served.get("routed", 0)
        cold_or_store = store + routed
        stats: Dict[str, Any] = {
            "uptime_seconds": uptime,
            "instance": self.instance,
            "ready": self.ready,
            "protocol_version": PROTOCOL_VERSION,
            "eco_sessions": len(self._eco_sessions),
            "eco_deltas": self.eco_deltas,
            "workers": self.config.workers,
            "requests": self.requests,
            "nets": self.nets,
            "errors": self.errors,
            "slow_requests": self.slow_requests,
            "requests_per_second": self.requests / uptime,
            "nets_per_second": self.nets / uptime,
            "served_memory": memory,
            "served_store": store,
            "served_routed": routed,
            "warm_hit_rate": (memory + store) / self.nets if self.nets else 0.0,
            "store_hit_rate": store / cold_or_store if cold_or_store else 0.0,
            "queue_depth": self.queue_depth,
            "queue_depth_max": self.queue_depth_max,
            "store_path": self.config.store_path,
            "method": self.config.engine.router,
            "cache_mode": self.config.engine.cache,
            "latency_ms": {
                "request": self.request_hist.as_summary(),
                **{
                    tier: hist.as_summary()
                    for tier, hist in sorted(self.net_hists.items())
                },
            },
        }
        obs.gauge_set("serve.requests_per_second", stats["requests_per_second"])
        obs.gauge_set("serve.nets_per_second", stats["nets_per_second"])
        obs.gauge_set("serve.warm_hit_rate", stats["warm_hit_rate"])
        obs.gauge_set("serve.store_hit_rate", stats["store_hit_rate"])
        return stats

    # ------------------------------------------------------------- telemetry

    def telemetry_registry(self) -> "obs.Registry":
        """A temporary registry holding the daemon's authoritative metrics.

        Built per scrape: start from the process-global obs snapshot (so
        profiled runs keep their counters in ``/metrics``), then
        overwrite the serve family with the daemon's always-on values —
        counters, gauges, and the request/per-tier histograms plus their
        associative fold ``serve.net_seconds`` (whose total count equals
        the daemon's net total by construction). Overwriting after the
        merge means each family appears exactly once in the exposition.
        """
        reg = obs.Registry()
        reg.merge_snapshot(obs.get_registry().snapshot(with_samples=True))
        uptime = max(time.time() - self.started_at, 1e-9)
        reg.counters["serve.requests"] = float(self.requests)
        reg.counters["serve.nets"] = float(self.nets)
        reg.counters["serve.errors"] = float(self.errors)
        reg.counters["serve.slow_requests"] = float(self.slow_requests)
        for tier in TIERS:
            reg.counters[f"serve.served_{tier}"] = float(
                self.served.get(tier, 0)
            )
        reg.gauges["serve.uptime_seconds"] = uptime
        reg.gauges["serve.ready"] = 1.0 if self.ready else 0.0
        reg.gauges["serve.workers"] = float(self.config.workers)
        reg.gauges["serve.queue_depth"] = float(self.queue_depth)
        reg.gauges["serve.queue_depth_max"] = float(self.queue_depth_max)
        reg.gauges["serve.requests_per_second"] = self.requests / uptime
        reg.gauges["serve.nets_per_second"] = self.nets / uptime
        warm = self.served.get("memory", 0) + self.served.get("store", 0)
        reg.gauges["serve.warm_hit_rate"] = (
            warm / self.nets if self.nets else 0.0
        )
        reg.counters["serve.eco_deltas"] = float(self.eco_deltas)
        reg.gauges["serve.eco_sessions"] = float(len(self._eco_sessions))
        reg.histograms["serve.request_seconds"] = self.request_hist.clone()
        tier_hists = {
            f"serve.net_seconds.{tier}": hist.clone()
            for tier, hist in self.net_hists.items()
        }
        reg.histograms.update(tier_hists)
        # The associative fold spans the cache tiers only; the "eco" lane
        # counts delta applications (serve.eco_deltas), not routed nets,
        # so folding it in would break count == serve.nets.
        reg.histograms["serve.net_seconds"] = obs.merge_histograms(
            [h for name, h in tier_hists.items()
             if name != "serve.net_seconds.eco"]
        )
        return reg

    def metrics_text(self) -> str:
        """The ``/metrics`` body: :meth:`telemetry_registry` as exposition."""
        return obs.to_prometheus(self.telemetry_registry())


class ServerThread:
    """A :class:`RouteServer` on a background thread (tests, benchmarks).

    Drives the server's asyncio loop off the caller's thread::

        with ServerThread(ServeConfig(socket_path=...)) as handle:
            client = ServeClient(socket_path=...)
            ...

    Entering the context blocks until the endpoints are bound; leaving it
    stops the server and joins the thread.
    """

    def __init__(self, config: ServeConfig, start_timeout: float = 60.0) -> None:
        self.server = RouteServer(config)
        self._start_timeout = start_timeout
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # surface bind/pool failures
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.serve_until_stopped()

        asyncio.run(main())

    def start(self) -> "ServerThread":
        """Start the thread; block until the server is accepting."""
        self._thread.start()
        if not self._ready.wait(self._start_timeout):
            raise TimeoutError("server did not come up in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Stop the server and join the thread."""
        loop = self.server._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
