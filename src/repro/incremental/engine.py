"""The ECO session layer: :class:`IncrementalRouter` middleware.

Wraps a fully-assembled engine stack and keeps, per tracked net, the
state that makes the next edit cheap — the previous net and its routed
frontier. No solver tables are kept: an edit re-routes the one net it
touches, never the design.

:meth:`IncrementalRouter.apply_delta` is the warm path. For each
:class:`~repro.incremental.delta.NetDelta` it tries, in order:

1. **cache short-circuit** — the edited net's canonical key may already
   be cached (the cache layer's ``lookup``/``seed`` peek API); an ECO
   hit then costs one key computation and zero solver work,
2. **exact re-solve** — for exact-DP nets, a cold
   :func:`~repro.core.pareto_dw.pareto_dw` of the edited net (bounded
   from degree 7, like every other exact solve),
3. **warm-started local search** — for ``n > λ`` nets, adapt the
   previous tree to the edit (:func:`adapt_tree`) and seed
   ``PatLabor.local_search`` from it instead of a fresh RSMT,
4. **full route** — closed-form / LUT tiers are already cheap; anything
   else falls back to the wrapped stack.

Results computed off the cache path are published back through
``seed``, so the *next* edit — or plain ``route`` traffic on a
canonical copy — hits. Exactness contract: for the exact tiers
(``closed_form`` / ``lut`` / ``dw``) the incremental frontier is
bit-identical to a cold full re-route of the edited net — same fronts,
same tie collapse, same trees; the warm local-search tier is heuristic
on both paths and is held to equal output *quality* instead.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..core.pareto import Solution
from ..core.pareto_dw import pareto_dw
from ..engine.middleware import RouterMiddleware
from ..engine.protocol import RouterCapabilities
from ..exceptions import InvalidNetError, InvalidTreeError, ReproError
from ..geometry.net import Net
from ..geometry.point import l1
from ..obs import counter_add, emit_event, events_enabled, span
from ..routing.tree import RoutingTree
from .delta import NetDelta, apply_delta

#: Tier label for cache-served edits (not a PatLabor dispatch tier).
CACHE_TIER = "cache"
#: Tier label for deltas that cannot change a net's frontier (blockage).
NOOP_TIER = "unchanged"
#: Tiers whose warm results are bit-identical to a cold re-route (the
#: ``docs/numerics.md`` exactness contract). ``local_search`` is
#: heuristic — warm starts change its trajectory, so only quality holds.
EXACT_TIERS = frozenset({"closed_form", "lut", "dw", CACHE_TIER})


@dataclass
class EcoResult:
    """Outcome of one :meth:`IncrementalRouter.apply_delta` call.

    ``front`` is the edited net's routed frontier (with trees). ``tier``
    says which warm path served it: ``"cache"``, a PatLabor dispatch
    tier (``"closed_form"`` / ``"lut"`` / ``"dw"`` / ``"local_search"``),
    or ``"unchanged"`` for net-independent deltas.
    """

    net: Optional[Net]
    front: List[Solution] = field(default_factory=list)
    tier: str = NOOP_TIER
    kind: str = ""
    cache_hit: bool = False
    wall_s: float = 0.0


def adapt_tree(
    prev_tree: RoutingTree, new_net: Net, delta: NetDelta
) -> RoutingTree:
    """The previous tree carried across ``delta`` — a local-search seed.

    Structure is preserved wherever the edit allows: a moved pin drags
    its tree node (topology unchanged), an added sink attaches to the
    nearest existing tree node, a removed sink's node degrades to a
    Steiner point, a moved source drags the root. The result is a valid
    (not necessarily good) tree of ``new_net`` — the warm local search
    improves it from there. Falls back to a fresh RSMT when the adapted
    structure fails validation (e.g. the edit collapses an edge).
    """
    from ..baselines.rsmt import rsmt

    try:
        if delta.kind in ("move", "source"):
            assert delta.point is not None
            idx = 0 if delta.kind == "source" else 1 + delta.sink_index
            points = [(p.x, p.y) for p in prev_tree.points]
            points[idx] = delta.point
            return RoutingTree.from_parent(
                new_net, points, list(prev_tree.parent)
            )
        pts = prev_tree.points
        edges = [
            ((pts[c].x, pts[c].y), (pts[p].x, pts[p].y))
            for c, p in prev_tree.edges()
        ]
        if delta.kind == "add":
            assert delta.point is not None
            nearest = min(pts, key=lambda q: l1(q, delta.point))
            edges.append(((nearest.x, nearest.y), delta.point))
        return RoutingTree.from_edges(new_net, edges)
    except (InvalidTreeError, InvalidNetError, IndexError):
        return rsmt(new_net)


@dataclass
class _NetSession:
    """Per-net retained state: the previous net and its frontier."""

    net: Net
    front: List[Solution]


class IncrementalRouter(RouterMiddleware):
    """ECO middleware: delta-aware re-routing of the edited net alone.

    Ordinary ``route`` calls delegate to the wrapped stack and
    additionally *track* the net (by name) so later ``apply_delta``
    calls have a session to edit against. Sessions are LRU-bounded by
    ``max_sessions``; untracked nets must be routed (seeded) before
    they can take deltas.
    """

    def __init__(self, inner: object, max_sessions: int = 10_000) -> None:
        """Wrap ``inner`` (a fully-assembled engine stack)."""
        super().__init__(inner)  # type: ignore[arg-type]
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, _NetSession]" = OrderedDict()
        self._caps_of: Optional[RouterCapabilities] = None
        self._caps: Optional[RouterCapabilities] = None

    @property
    def capabilities(self) -> RouterCapabilities:
        """The wrapped capabilities with ``incremental=True``.

        Rebuilt only when the wrapped stack hands out a different
        capabilities object (e.g. after its ``config.lam`` changed).
        """
        inner = self.inner.capabilities
        caps = self._caps
        if caps is None or inner is not self._caps_of:
            caps = self._caps = replace(inner, incremental=True)
            self._caps_of = inner
        return caps

    @property
    def num_sessions(self) -> int:
        """How many nets currently hold an ECO session."""
        return len(self._sessions)

    def route(self, net: Net) -> List[Solution]:
        """Route through the wrapped stack and track the net for ECO."""
        front = self.inner.route(net)
        if net.name:
            self._remember(net.name, _NetSession(net=net, front=front))
        return front

    def session_net(self, name: str) -> Optional[Net]:
        """The tracked net currently registered under ``name``, if any."""
        session = self._sessions.get(name)
        return session.net if session is not None else None

    def forget(self, name: str) -> None:
        """Drop the session of one net (no-op when untracked)."""
        self._sessions.pop(name, None)

    def clear_sessions(self) -> None:
        """Drop every ECO session."""
        self._sessions.clear()

    def _remember(self, name: str, session: _NetSession) -> None:
        sessions = self._sessions
        if name not in sessions and len(sessions) >= self.max_sessions:
            sessions.popitem(last=False)
        sessions[name] = session
        sessions.move_to_end(name)

    # ------------------------------------------------------------ warm path

    def apply_delta(self, delta: NetDelta) -> EcoResult:
        """Re-route the edited net, reusing everything the edit spares.

        Returns an :class:`EcoResult` whose ``front`` is — for the exact
        tiers — bit-identical to ``route(apply_delta(old_net, delta))``
        on a cold stack. Raises
        :class:`~repro.exceptions.InvalidNetError` when ``delta`` names
        a net without a tracked session.
        """
        t0 = time.perf_counter()
        if delta.kind == "blockage":
            # Frontiers are congestion-blind; a blockage changes the
            # negotiation scenario (NegotiatedRouter.run_incremental),
            # not any single net's Pareto set.
            return EcoResult(net=None, kind=delta.kind)
        session = self._sessions.get(delta.net)
        if session is None:
            raise InvalidNetError(
                f"no ECO session for net {delta.net!r}; route/seed it first"
            )
        new_net = apply_delta(session.net, delta)
        with span("eco.apply"):
            result = self._solve(session, new_net, delta)
        result.kind = delta.kind
        result.wall_s = time.perf_counter() - t0
        counter_add("eco.solves")
        if result.cache_hit:
            counter_add("eco.cache_hits")
        if events_enabled():
            emit_event(
                "eco_solve",
                net=delta.net,
                kind=delta.kind,
                tier=result.tier,
                cache_hit=result.cache_hit,
                front_size=len(result.front),
                wall_s=result.wall_s,
            )
        return result

    def _solve(
        self, session: _NetSession, new_net: Net, delta: NetDelta
    ) -> EcoResult:
        """Serve ``new_net`` through the cheapest valid warm path."""
        lookup = getattr(self.inner, "lookup", None)
        if callable(lookup):
            cached = lookup(new_net)
            if cached is not None:
                session.net = new_net
                session.front = cached
                return EcoResult(
                    net=new_net, front=cached, tier=CACHE_TIER, cache_hit=True
                )
        tier_fn = getattr(self.inner, "dispatch_tier", None)
        tier = str(tier_fn(new_net)) if callable(tier_fn) else ""
        if tier == "dw":
            front = pareto_dw(new_net)
        elif tier == "local_search" and session.front:
            seed_tree = adapt_tree(session.front[0][2], new_net, delta)
            try:
                front = self.inner.local_search(new_net, seed_tree=seed_tree)
            except (AttributeError, ReproError):
                front = self.inner.route(new_net)
        else:
            # closed_form / lut / unknown stacks: a full route is already
            # the cheap path (and handles its own caching).
            front = self.inner.route(new_net)
            session.net = new_net
            session.front = front
            return EcoResult(net=new_net, front=front, tier=tier or "route")
        seed = getattr(self.inner, "seed", None)
        if callable(seed):
            seed(new_net, front)
        session.net = new_net
        session.front = front
        return EcoResult(net=new_net, front=front, tier=tier)
