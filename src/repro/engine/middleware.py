"""Composable middleware around the :class:`~repro.engine.protocol.Router`.

Cross-cutting concerns are layered as wrappers, outermost first:

* :class:`ValidatingRouter` — typed input policy at the engine boundary:
  non-``Net`` inputs and nets beyond the router's declared ``max_degree``
  raise :mod:`repro.exceptions` errors *before* any algorithm runs.
* cache — :class:`~repro.core.cache.CachedRouter` (translation- or
  symmetry-canonicalizing), sitting outside observability so cache hits
  are served without emitting routing events.
* :class:`ObservedRouter` — spans plus one ``net_routed`` event per
  actually-routed net, for *every* router (this used to live inside
  ``PatLabor.route``; hoisting it here gives the baselines the same
  telemetry for free).

All middleware delegates unknown attributes to the wrapped router, so
stack-agnostic callers can still reach ``hits`` / ``dispatch_tier`` /
``clear`` on the assembled engine.
"""

from __future__ import annotations

import time
from typing import List

from ..exceptions import DegreeTooLargeError, InvalidNetError
from ..geometry.net import Net
from ..core.pareto import Solution
from ..obs import (
    current_net_id,
    current_request_id,
    emit_event,
    events_enabled,
    peak_rss_kb,
    span,
)
from .protocol import Router, RouterCapabilities

#: Canonicalization modes of the cache layer
#: (:class:`~repro.core.cache.CachedRouter`, ``EngineSpec.cache``).
CACHE_MODES = ("translation", "symmetry")


class RouterMiddleware:
    """Base wrapper: a :class:`Router` around another :class:`Router`.

    ``name`` and ``capabilities`` mirror the wrapped router; any other
    attribute (cache statistics, ``dispatch_tier``, ...) is forwarded, so
    middleware composes transparently.
    """

    def __init__(self, inner: Router) -> None:
        self.inner = inner

    @property
    def name(self) -> str:
        """The wrapped router's name."""
        return self.inner.name

    @property
    def capabilities(self) -> RouterCapabilities:
        """The wrapped router's capabilities."""
        return self.inner.capabilities

    def route(self, net: Net) -> List[Solution]:
        """Delegate to the wrapped router (subclasses add behaviour)."""
        return self.inner.route(net)

    def __getattr__(self, item: str) -> object:
        # Only called for attributes not found normally: forward to the
        # wrapped router so stacked middleware stays transparent.
        return getattr(self.inner, item)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


class ValidatingRouter(RouterMiddleware):
    """Input validation and error policy at the engine boundary.

    ``Net`` construction already rejects malformed geometry (too few
    pins, duplicates, non-finite coordinates) with
    :class:`~repro.exceptions.InvalidNetError`; this middleware adds the
    two checks construction cannot do: the input actually *is* a ``Net``,
    and its degree respects the wrapped router's declared ``max_degree``
    (raising :class:`~repro.exceptions.DegreeTooLargeError` here instead
    of deep inside a DP transition).
    """

    def route(self, net: Net) -> List[Solution]:
        """Validate ``net`` against the router's capabilities, then route."""
        if not isinstance(net, Net):
            raise InvalidNetError(
                f"engine expects a repro.geometry.net.Net, got "
                f"{type(net).__name__}"
            )
        limit = self.capabilities.max_degree
        if limit is not None and net.degree > limit:
            raise DegreeTooLargeError(net.degree, limit)
        return self.inner.route(net)


class ObservedRouter(RouterMiddleware):
    """Spans and per-net events for any router.

    Wraps each call in an ``engine.route`` span and, with event logging
    enabled (:func:`repro.obs.events_enable`), emits one ``net_routed``
    event — net id, degree, dispatch tier (the wrapped router's
    ``dispatch_tier`` when it has one, its name otherwise), frontier
    size, wall time, peak RSS. Inside a serve request
    (:func:`repro.obs.request_context`) the event also carries the
    daemon-assigned ``request_id``/``net_id``, which is how a request is
    traced across the daemon/worker boundary. Emission happens after the
    frontier is computed and never influences it; results are
    bit-identical with observability on or off.
    """

    def route(self, net: Net) -> List[Solution]:
        """Route ``net``, recording a span and a ``net_routed`` event."""
        if not events_enabled():
            with span("engine.route"):
                return self.inner.route(net)
        t0 = time.perf_counter()
        with span("engine.route"):
            front = self.inner.route(net)
        fields: dict = {}
        request_id = current_request_id()
        if request_id is not None:
            fields["request_id"] = request_id
            net_id = current_net_id()
            if net_id is not None:
                fields["net_id"] = net_id
        emit_event(
            "net_routed",
            net=net.name or f"net_{id(net):x}",
            degree=net.degree,
            tier=self._tier(net),
            front_size=len(front),
            wall_s=time.perf_counter() - t0,
            peak_rss_kb=peak_rss_kb(),
            **fields,
        )
        return front

    def _tier(self, net: Net) -> str:
        tier_fn = getattr(self.inner, "dispatch_tier", None)
        if callable(tier_fn):
            return str(tier_fn(net))
        return self.name
