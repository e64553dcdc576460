"""Routing-result cache with translation and dihedral-symmetry invariance.

VLSI designs repeat cell patterns, so many nets are exact translates —
and, because standard cells get mirrored and rotated during placement,
dihedral images — of one another. Both objectives (wirelength, Elmore
path length) are invariant under translation and under the eight D4
symmetries, so the cache can key nets on a *canonical form* and serve
hits by mapping stored trees back into the query frame:

* ``canonicalize="translation"`` — source-relative pin coordinates (the
  historical behaviour): equal for rigid translates.
* ``canonicalize="symmetry"`` — the lexicographically smallest image of
  the source-relative coordinates under the eight
  :class:`~repro.geometry.transforms.GridTransform` elements: equal for
  translates *and* mirrored / rotated copies. Hits apply the inverse
  transform to the cached trees.

Eviction is true LRU (hits refresh recency); the ``evictions`` attribute
and the ``cache.evictions`` counter expose how often capacity bites.

A second, **persistent** tier can sit underneath the LRU: pass ``store=``
(a :class:`~repro.core.cache_store.PersistentStore` or a path) and every
memory miss consults the disk store before routing, while every fresh
solve is appended to it. Disk hits re-enter the LRU, so repeated traffic
is served from memory; the ``store_hits`` attribute and the
``cache.store_hits`` / ``cache.store_misses`` counters separate warm-disk
traffic from genuinely cold solves.

Wraps any :class:`~repro.engine.protocol.Router`; this class *is* the
cache middleware of :func:`repro.engine.build.build_engine`.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from .cache_store import PersistentStore

from ..core.pareto import Solution
from ..engine.middleware import CACHE_MODES, RouterMiddleware
from ..geometry.net import Net
from ..geometry.point import Point
from ..geometry.transforms import ALL_TRANSFORMS, IDENTITY, GridTransform
from ..obs import counter_add, enabled as obs_enabled, span, timer_observe
from ..routing.tree import RoutingTree

CacheKey = Tuple[Tuple[float, float], ...]


def translation_key(net: Net) -> CacheKey:
    """Source-relative pin coordinates — equal for rigid translates.

    Relative coordinates are rounded to 1e-6 so that floating-point noise
    from the subtraction does not split keys; nets whose geometries agree
    only to within 1e-6 therefore share an entry (document this if your
    coordinates are finer than micro-units).
    """
    x0, y0 = net.source
    return tuple(
        (round(p.x - x0, 6), round(p.y - y0, 6)) for p in net.pins
    )


def canonical_key(net: Net) -> Tuple[CacheKey, GridTransform]:
    """Symmetry-canonical key: the smallest dihedral image of the net.

    Applies each of the eight D4 elements to the source-relative pin
    coordinates (same 1e-6 rounding contract as :func:`translation_key`)
    and keeps the lexicographically smallest tuple. Returns that key plus
    the transform mapping the *query* frame onto the canonical frame —
    two nets share a key exactly when some dihedral-plus-translation
    motion maps one onto the other, pin order preserved.
    """
    x0, y0 = net.source
    rel = [(p.x - x0, p.y - y0) for p in net.pins]
    best_key: CacheKey = tuple()
    best_t = IDENTITY
    for t in ALL_TRANSFORMS:
        cand = tuple(
            (round(cx, 6), round(cy, 6))
            for cx, cy in (t.apply_point(x, y) for x, y in rel)
        )
        if not best_key or cand < best_key:
            best_key, best_t = cand, t
    return best_key, best_t


def _translate_tree(tree: RoutingTree, net: Net, dx: float, dy: float) -> RoutingTree:
    points = [Point(p.x + dx, p.y + dy) for p in tree.points]
    # Snap pin nodes (always the first ``degree`` points) onto the query
    # net's exact coordinates: the rigid shift can be an ulp off after
    # float addition — or up to the 1e-6 key rounding when the query is a
    # near-translate — and validation requires exact pin equality.
    points[: net.degree] = list(net.pins)
    return RoutingTree.from_parent(net, points, list(tree.parent))


def _map_tree(
    tree: RoutingTree,
    base_net: Net,
    t_store: GridTransform,
    t_query: GridTransform,
    net: Net,
) -> RoutingTree:
    """Carry a stored tree into the query frame through the canonical one.

    Stored frame --``t_store``--> canonical frame --``t_query``^-1-->
    query frame (plus the rigid translation between sources). Swap and
    negation are exact in floating point, so exact dihedral copies map
    bit-for-bit; pin nodes are snapped exactly as in the translation path.
    """
    inv = t_query.point_inverse()
    sx, sy = base_net.source
    qx, qy = net.source
    points: List[Point] = []
    for p in tree.points:
        cx, cy = t_store.apply_point(p.x - sx, p.y - sy)
        rx, ry = inv.apply_point(cx, cy)
        points.append(Point(rx + qx, ry + qy))
    points[: net.degree] = list(net.pins)
    return RoutingTree.from_parent(net, points, list(tree.parent))


class CachedRouter(RouterMiddleware):
    """Memoising wrapper around a Pareto router (LRU, canonicalizing).

    A :class:`~repro.engine.middleware.RouterMiddleware`: ``name``,
    ``capabilities`` and every other attribute it does not define come
    from the wrapped router (``inner``).

    Parameters
    ----------
    router:
        Any object with ``route(net)`` returning Pareto solutions.
    max_entries:
        Cache capacity; least-recently-used entries are evicted beyond it
        (hits refresh recency, and eviction only happens when inserting a
        genuinely new key, so capacity is always fully usable).
    canonicalize:
        ``"translation"`` (default) keys on source-relative coordinates;
        ``"symmetry"`` additionally folds the eight dihedral symmetries
        into one entry and undoes the transform on hits.
    store:
        Optional persistent tier underneath the LRU — a
        :class:`~repro.core.cache_store.PersistentStore` or a path to
        one. Memory misses consult the store before routing; fresh
        solves are appended to it, so hit rates compound across
        processes and runs.
    """

    def __init__(
        self,
        router: object,
        max_entries: int = 100_000,
        canonicalize: str = "translation",
        store: Union["PersistentStore", str, Path, None] = None,
    ) -> None:
        if canonicalize not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {canonicalize!r} for canonicalize; "
                f"expected one of {CACHE_MODES}"
            )
        if isinstance(store, (str, Path)):
            from .cache_store import PersistentStore

            store = PersistentStore(store)
        super().__init__(router)
        self.max_entries = max_entries
        self.canonicalize = canonicalize
        self.store = store
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0
        self._cache: "OrderedDict[CacheKey, Tuple[Net, GridTransform, List[Solution]]]" = (
            OrderedDict()
        )

    def _key(self, net: Net) -> Tuple[CacheKey, GridTransform]:
        if self.canonicalize == "symmetry":
            return canonical_key(net)
        return translation_key(net), IDENTITY

    def _serve_entry(
        self,
        entry: Tuple[Net, GridTransform, List[Solution]],
        net: Net,
        t_query: GridTransform,
    ) -> List[Solution]:
        """Map a cached entry into the query net's frame (exact; see above)."""
        base_net, t_store, solutions = entry
        if t_store == t_query:
            dx = net.source.x - base_net.source.x
            dy = net.source.y - base_net.source.y
            if dx == 0.0 and dy == 0.0 and base_net.key() == net.key():
                return list(solutions)
            with span("cache.translate"):
                return [
                    (w, d, _translate_tree(tree, net, dx, dy))
                    for w, d, tree in solutions
                ]
        with span("cache.transform"):
            return [
                (w, d, _map_tree(tree, base_net, t_store, t_query, net))
                for w, d, tree in solutions
            ]

    def _insert(
        self, key: CacheKey, entry: Tuple[Net, GridTransform, List[Solution]]
    ) -> None:
        """Install ``entry`` in the LRU, evicting only for genuinely new keys."""
        if key not in self._cache and len(self._cache) >= self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1
            counter_add("cache.evictions")
        self._cache[key] = entry

    def route(self, net: Net) -> List[Solution]:
        """Pareto set of ``net``, served from cache for canonical copies.

        Lookup order: in-memory LRU, then the persistent store (when one
        is attached; disk hits are promoted back into the LRU), then the
        wrapped router — whose result is installed in both tiers.

        With the registry enabled, each tier's lookup latency also lands
        in a timer (``cache.lookup_seconds``, ``cache.store_get_seconds``,
        ``cache.store_put_seconds``) — and therefore in the mergeable
        latency histograms behind the daemon's ``/metrics`` endpoint. The
        clock reads are guarded by the enabled flag, so the disabled path
        stays branch-only.
        """
        timed = obs_enabled()
        t0 = perf_counter() if timed else 0.0
        with span("cache.key"):
            key, t_query = self._key(net)
        entry = self._cache.get(key)
        if timed:
            timer_observe("cache.lookup_seconds", perf_counter() - t0)
        if entry is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            counter_add("cache.hits")
            return self._serve_entry(entry, net, t_query)
        if self.store is not None:
            t1 = perf_counter() if timed else 0.0
            with span("cache.store_get"):
                stored = self.store.get(key)
            if timed:
                timer_observe("cache.store_get_seconds", perf_counter() - t1)
            if stored is not None:
                self.store_hits += 1
                counter_add("cache.store_hits")
                self._insert(key, stored)
                return self._serve_entry(stored, net, t_query)
            counter_add("cache.store_misses")
        self.misses += 1
        counter_add("cache.misses")
        solutions = self.inner.route(net)
        self._insert(key, (net, t_query, list(solutions)))
        if self.store is not None:
            t2 = perf_counter() if timed else 0.0
            with span("cache.store_put"):
                self.store.put(key, net, t_query, list(solutions))
            if timed:
                timer_observe("cache.store_put_seconds", perf_counter() - t2)
        return solutions

    def lookup(self, net: Net) -> Optional[List[Solution]]:
        """Peek both cache tiers without routing and without accounting.

        The ECO short-circuit: an incremental edit that lands on a net
        some canonical copy of which was already solved needs no solver
        work at all. Serves exactly what :meth:`route` would serve on a
        hit — LRU first (recency refreshed), then the persistent store
        (promoted into the LRU) — but leaves the hit/miss counters alone,
        so cache statistics keep meaning "route calls". Returns ``None``
        on a miss in both tiers; the caller decides what to run.
        """
        with span("cache.key"):
            key, t_query = self._key(net)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            return self._serve_entry(entry, net, t_query)
        if self.store is not None:
            with span("cache.store_get"):
                stored = self.store.get(key)
            if stored is not None:
                self._insert(key, stored)
                return self._serve_entry(stored, net, t_query)
        return None

    def seed(self, net: Net, solutions: List[Solution]) -> None:
        """Install an externally-computed frontier under ``net``'s key.

        The write half of the ECO path: incremental solves bypass
        :meth:`route`, so they publish their results here and later
        edits (or ordinary ``route`` traffic on canonical copies) hit.
        The entry is keyed and framed exactly as :meth:`route` would
        have stored it. The persistent store is append-only, so it is
        only written when the key is not already present on disk.
        """
        key, t_query = self._key(net)
        self._insert(key, (net, t_query, list(solutions)))
        if self.store is not None:
            if self.store.get(key) is None:
                with span("cache.store_put"):
                    self.store.put(key, net, t_query, list(solutions))

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from either cache tier (0.0 when idle)."""
        total = self.hits + self.store_hits + self.misses
        return (self.hits + self.store_hits) / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        """Fraction of store lookups (memory misses) served from disk."""
        looked_up = self.store_hits + self.misses
        return self.store_hits / looked_up if looked_up else 0.0

    def clear(self) -> None:
        """Drop every LRU entry and reset hit/miss/eviction statistics.

        The persistent store (when attached) is append-only and is *not*
        cleared — delete the file to reset it.
        """
        self._cache.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0

    def close(self) -> None:
        """Flush and release the persistent store, if one is attached."""
        if self.store is not None:
            self.store.close()
