"""The package's one worker pool: a resident engine per worker process.

Both process pools — the daemon's (:mod:`repro.serve.server`) and
:func:`repro.core.batch.route_batch`'s — are a :class:`WorkerPool`. Each
worker is a ``multiprocessing`` process on the default context with one
duplex ``Pipe``. It runs :func:`init_worker` once, which builds the
engine — router, lookup table, cache tiers — from a :class:`WorkerSpec`
and parks it in a module global, then loops: receive ``(fn, args)``,
send back ``(ok, value_or_exception)``. Tasks carry only net payloads;
nothing heavy is ever re-pickled per request.

:class:`WorkerPool` loads the spec's lookup table in the *parent* before
it starts the workers, so on fork start methods every worker inherits
the loaded table copy-on-write and ``init_worker`` finds it already
cached; on spawn methods each worker loads it once from disk. Either
way: once per worker, never per task.

An asyncio loop drives the pool (:meth:`WorkerPool.attach`,
:meth:`WorkerPool.submit`, :meth:`WorkerPool.broadcast`): it reads each
worker's pipe with ``loop.add_reader``, so a task costs one write and one
read on the loop's thread and no executor threads. Each worker holds at
most one task. Submitted tasks wait in one FIFO in the parent, and a
worker takes the head as soon as it is idle, so no task waits behind a
slow one while another worker is free. A pipe holds 64 KiB on Linux, so
the loop never blocks writing to a worker that is itself blocked writing
a reply. A broadcast puts one task in a FIFO of each worker's own, so
each worker runs it exactly once; a worker takes whichever of its next
broadcast task and the shared head was submitted first.

A worker that dies — EOF on its pipe, or a failed send — breaks the
pool: every outstanding task fails with ``ReproError("worker pool died:
…")``, as does every later one, and :attr:`WorkerPool.broken` says why.
:meth:`WorkerPool.close` sends each worker a stop message and joins
every worker, so its resource usage lands in ``RUSAGE_CHILDREN``,
killing any that outlive :data:`SHUTDOWN_TIMEOUT_S`. The stop message,
not EOF, ends a worker: a process forked later from the same parent (a
second pool's worker) holds copies of this pool's pipe ends, so EOF may
never come.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..engine.build import SERVING_ENGINE, EngineSpec, build_engine
from ..engine.protocol import Router, route_select
from ..exceptions import ReproError
from ..lut.default import load_table
from .protocol import net_from_payload, result_to_payload

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: Seconds each shutdown step waits on the workers: a broadcast's
#: answers (:class:`~repro.serve.server.RouteServer`), then the workers'
#: exit (:meth:`WorkerPool.close`) before they are killed.
SHUTDOWN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs: its engine and whether to record telemetry.

    A frozen, pickle-friendly description shipped once when the worker
    starts (never per task). ``telemetry`` turns the worker's own obs
    registry, event log, and trace collector on, so the parent can merge
    what the worker drains (:func:`drain_worker_telemetry`). The
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

#: One task waiting in the parent: its submission number (the order
#: tasks reach workers), the function, its arguments, and the future its
#: answer resolves.
_Task = Tuple[int, Callable[..., Any], Tuple[Any, ...], "asyncio.Future[Any]"]

#: What :meth:`WorkerPool.close` sends down each pipe: the worker returns.
_STOP = None


class WorkerPool:
    """``workers`` processes, each with one pipe and a resident engine.

    Drive it from an asyncio loop: :meth:`attach`, then :meth:`submit`
    and :meth:`broadcast`. Use it as a context manager (or call
    :meth:`close`), so every worker is joined.
    """

    def __init__(self, spec: WorkerSpec, workers: int) -> None:
        if spec.engine.lut is not None:
            # Load in the parent: fork-started workers inherit the table.
            load_table(os.path.abspath(spec.engine.lut))
        context = multiprocessing.get_context()
        forking = context.get_start_method() == "fork"
        self._conns: List["Connection"] = []
        self._procs: List["BaseProcess"] = []
        for _ in range(max(1, workers)):
            parent, child = context.Pipe()
            # A forked worker inherits the parent end of its own pipe and
            # of every earlier one, and closes them: while any copy stays
            # open, a worker never sees EOF if the parent dies.
            inherited = (*self._conns, parent) if forking else ()
            proc = context.Process(
                target=_serve, args=(child, spec, inherited), daemon=True
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        #: Submitted tasks, oldest first; the next idle worker takes the head.
        self._shared: Deque[_Task] = deque()
        #: Broadcast tasks, one FIFO per worker.
        self._own: List[Deque[_Task]] = [deque() for _ in self._conns]
        #: The future of each worker's one task in flight (None: idle).
        self._busy: List[Optional["asyncio.Future[Any]"]] = [None] * len(self._conns)
        self._seq = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        #: Why the pool broke (the first worker found dead); None while
        #: every worker answers.
        self.broken: Optional[str] = None

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Read every worker's pipe on ``loop`` (call from its thread)."""
        self._loop = loop
        for index, conn in enumerate(self._conns):
            loop.add_reader(conn.fileno(), self._on_reply, index)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "asyncio.Future[Any]":
        """Run ``fn(*args)`` on whichever worker is idle first.

        Returns a future of the attached loop. On a broken or closed pool
        the future has already failed with a ``ReproError``.
        """
        future = self._queue(self._shared, fn, args)
        self._feed_idle()
        return future

    def broadcast(self, fn: Callable[[], Any]) -> List["asyncio.Future[Any]"]:
        """Run ``fn()`` exactly once on every worker; one future each."""
        futures = [self._queue(own, fn, ()) for own in self._own]
        self._feed_idle()
        return futures

    def _queue(
        self, queue: Deque[_Task], fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "asyncio.Future[Any]":
        """Append one task to ``queue``; its future."""
        assert self._loop is not None, "attach() the pool to a loop first"
        future: "asyncio.Future[Any]" = self._loop.create_future()
        if self.broken is not None or self._closed:
            future.set_exception(ReproError(self._failure()))
        else:
            queue.append((next(self._seq), fn, args, future))
        return future

    def _feed_idle(self) -> None:
        """Give every idle worker its next task."""
        for index, busy in enumerate(self._busy):
            if busy is None:
                self._feed(index)

    def _feed(self, index: int) -> None:
        """Send idle worker ``index`` the older of its next broadcast task
        and the shared head: its one task in flight.

        A task whose arguments do not pickle fails alone (nothing was
        written); a failed write breaks the pool.
        """
        own = self._own[index]
        while self.broken is None:
            if own and not (self._shared and self._shared[0][0] < own[0][0]):
                _seq, fn, args, future = own.popleft()
            elif self._shared:
                _seq, fn, args, future = self._shared.popleft()
            else:
                return
            if future.done():  # cancelled while it waited
                continue
            try:
                self._conns[index].send((fn, args))
            except OSError as exc:
                self._busy[index] = future
                self._break(index, exc)
                return
            except Exception as exc:
                future.set_exception(exc)
                continue
            self._busy[index] = future
            return

    def _on_reply(self, index: int) -> None:
        """Worker ``index``'s pipe is readable: resolve its task in flight."""
        try:
            data = self._conns[index].recv_bytes()
        except (EOFError, OSError) as exc:
            self._break(index, exc)
            return
        future, self._busy[index] = self._busy[index], None
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:  # an exception class that cannot be rebuilt
            ok, value = False, exc
        if future is not None and not future.done():
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        self._feed(index)

    def _break(self, index: int, exc: BaseException) -> None:
        """Worker ``index`` is gone: fail every task, refuse later ones."""
        self._died(index, exc)
        self._detach()
        for future in self._drain():
            future.set_exception(ReproError(self._failure()))

    def _drain(self) -> List["asyncio.Future[Any]"]:
        """Empty every queue and slot; the futures not yet done."""
        futures = [f for f in self._busy if f is not None]
        self._busy = [None] * len(self._busy)
        for queue in (self._shared, *self._own):
            futures.extend(task[3] for task in queue)
            queue.clear()
        return [f for f in futures if not f.done()]

    def close(self) -> None:
        """Stop and join every worker, killing stragglers.

        Each worker gets a stop message and also sees EOF: it exits once
        its current task (if any) is done; one still running after
        :data:`SHUTDOWN_TIMEOUT_S` is killed. Tasks not yet answered are
        cancelled. Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._detach()
        for future in self._drain():
            future.cancel()
        for conn in self._conns:
            try:
                conn.send(_STOP)
            except OSError:
                pass  # a dead worker
            conn.close()
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _detach(self) -> None:
        """Stop reading the pipes on the attached loop, if any."""
        if self._loop is None or self._loop.is_closed():
            return
        for conn in self._conns:
            if not conn.closed:
                self._loop.remove_reader(conn.fileno())

    def _died(self, index: int, exc: BaseException) -> None:
        """Mark the pool broken by worker ``index``."""
        if self.broken is None:
            proc = self._procs[index]
            proc.join(0.5)  # EOF comes as it exits: collect its exit code
            if proc.exitcode is not None:
                self.broken = f"worker {proc.pid} exited with code {proc.exitcode}"
            else:
                self.broken = f"worker {proc.pid}: {type(exc).__name__}: {exc}"

    def _failure(self) -> str:
        """The message every task of a broken or closed pool fails with."""
        if self.broken is not None:
            return f"worker pool died: {self.broken}"
        return "worker pool is closed"


def _serve(
    conn: "Connection", spec: "WorkerSpec", inherited: Sequence["Connection"]
) -> None:
    """A worker's life: build the engine, then answer tasks until told
    to stop, or until EOF.

    Each answer is ``(True, value)`` or ``(False, exception)``; an answer
    that does not pickle is replaced by a ``ReproError`` naming why.
    """
    for other in inherited:
        other.close()
    init_worker(spec)
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            task = pickle.loads(data)
            if task is _STOP:
                return
            fn, args = task
            reply: Tuple[bool, Any] = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return  # the parent closed the pipe
        except Exception as exc:
            conn.send((False, ReproError(f"unpicklable answer: {exc!r}")))


def init_worker(spec: WorkerSpec) -> None:
    """Build this worker's engine once, park it globally.

    A forked worker inherits the parent's obs buffers and flags, and
    building the engine may record too; both are cleared here, so what
    the worker later drains covers exactly its own tasks. The obs layers
    are then switched to ``spec.telemetry``.
    """
    global _ENGINE
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
    if _ENGINE is None:  # pragma: no cover - init_worker always ran
        raise RuntimeError("worker pool used before init_worker")
    return _ENGINE


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
