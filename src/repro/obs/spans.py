"""Nestable tracing spans: ``with span("dw.merge"): ...``.

A span measures one timed region. Spans nest: each thread keeps a stack of
the active spans' full ``parent/child/...`` paths, and a span's duration
is recorded under its path (e.g. ``patlabor.route/patlabor.local_search/
dw.solve``), which is what the span-tree report renders. Closing a span
reads the clock, pops its path and queues ``(path, seconds, error)`` on
the registry, which folds the queue into its span stats on every read
(:meth:`~repro.obs.registry.Registry.snapshot`, ``spans``, ``events``),
so a span exit costs O(1) and readers still see every closed span.

A span is closed by its context manager even when the body raises; the
recorded stat (and the Chrome-trace event, when tracing is on) is then
flagged as errored, so the span tree and exported traces stay well-formed
across failures.

When both the registry and the trace collector are disabled, :func:`span`
returns a shared no-op context manager — no allocation, no clock read —
so instrumented code pays only a function call per region.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter, time
from typing import List

from .live import current_request_id
from .registry import _REGISTRY
from .trace import _TRACE

class _Paths(threading.local):
    """Per-thread stack of the active spans' full paths, innermost last."""

    def __init__(self) -> None:
        self.stack: List[str] = []


_tls = _Paths()


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "_t0", "_wall0")

    def __init__(self, name: str) -> None:
        self.name = name
        self._t0 = 0.0
        self._wall0 = 0.0

    def __enter__(self) -> "_Span":
        stack = _tls.stack
        stack.append(stack[-1] + "/" + self.name if stack else self.name)
        if _TRACE.enabled:
            self._wall0 = time()
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dt = perf_counter() - self._t0
        path = _tls.stack.pop()
        error = exc_type is not None
        _REGISTRY.span_observe(path, dt, error)
        if _TRACE.enabled:
            _TRACE.record(
                self.name,
                path,
                self._wall0 or (time() - dt),
                dt,
                pid=os.getpid(),
                tid=threading.get_ident(),
                error=error,
                request_id=current_request_id(),
            )
        return False


def span(name: str):
    """Context manager timing a named region (no-op while disabled).

    Use static, low-cardinality names (``"dw.merge"``, not one name per
    net); per-item detail belongs in counters and timer samples.
    """
    if not (_REGISTRY.enabled or _TRACE.enabled):
        return _NOOP
    return _Span(name)


def current_span_path() -> str:
    """The active span path of the calling thread ("" outside any span)."""
    stack = _tls.stack
    return stack[-1] if stack else ""
