"""Incremental tree construction: greedy Steiner attachment onto a partial tree.

Several algorithms (the FLUTE-substitute RSMT engine, SALT refinement, and
PatLabor's local-search reassembly) need the same primitive: connect a new
point to a partial tree as cheaply as possible. The cheapest rectilinear
connection to an existing *edge* ``(a, b)`` is the L1 distance from the
point to the bounding box of ``a`` and ``b`` — any monotone embedding of
the edge can be detoured through the projection ``q`` at zero extra cost,
since ``q`` satisfies ``||a-q|| + ||q-b|| = ||a-b||``.

All created Steiner points combine existing node coordinates with the new
point's coordinates, so finished trees stay on the Hanan grid of their pin
set.

:class:`TreeBuilder` relaxes the :class:`RoutingTree` invariant that pins
occupy the first node slots, which lets pins be attached in any order;
:meth:`TreeBuilder.finish` converts to a validated :class:`RoutingTree`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.bbox import BBox, project_onto
from ..geometry.net import Net
from ..geometry.point import Point, PointLike, l1
from .tree import RoutingTree


class TreeBuilder:
    """A mutable rooted tree of points, grown by cheapest attachment."""

    def __init__(self, root: PointLike) -> None:
        self.points: List[Point] = [Point(float(root[0]), float(root[1]))]
        self.parent: List[int] = [-1]

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.points)

    def edges(self) -> List[Tuple[int, int]]:
        """(child, parent) index pairs."""
        return [(i, p) for i, p in enumerate(self.parent) if p >= 0]

    def best_connection(
        self, p: PointLike
    ) -> Tuple[float, int, Optional[int], Point]:
        """Cheapest attachment of ``p``.

        Returns ``(cost, node_index, split_child, attach_point)``:
        attach directly to ``node_index`` when ``split_child`` is None,
        otherwise split the edge ``(split_child -> parent)`` at
        ``attach_point`` first.
        """
        pt = Point(float(p[0]), float(p[1]))
        best_cost = float("inf")
        best_node = 0
        best_split: Optional[int] = None
        best_at = self.points[0]
        for i, node in enumerate(self.points):
            c = l1(pt, node)
            if c < best_cost:
                best_cost, best_node, best_split, best_at = c, i, None, node
        for child, parent in self.edges():
            a, b = self.points[child], self.points[parent]
            box = BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
            q = project_onto(pt, box)
            c = l1(pt, q)
            if c < best_cost - 1e-12 and q != a and q != b:
                best_cost, best_node, best_split, best_at = c, -1, child, q
        return best_cost, best_node, best_split, best_at

    # ----------------------------------------------------------- mutation

    def attach(self, p: PointLike) -> int:
        """Attach ``p`` via the cheapest connection; return its node index."""
        pt = Point(float(p[0]), float(p[1]))
        return self._connect(pt, *self.best_connection(pt))

    def _connect(
        self,
        pt: Point,
        cost: float,
        node: int,
        split_child: Optional[int],
        at: Point,
    ) -> int:
        """Apply one :meth:`best_connection` answer for ``pt``."""
        if split_child is not None:
            grand = self.parent[split_child]
            steiner = len(self.points)
            self.points.append(at)
            self.parent.append(grand)
            self.parent[split_child] = steiner
            node = steiner
        if cost == 0.0 and self.points[node] == pt:
            return node
        idx = len(self.points)
        self.points.append(pt)
        self.parent.append(node)
        return idx

    def attach_cheapest_first(self, points: Sequence[PointLike]) -> None:
        """Attach all of ``points``, cheapest connection first.

        Each step attaches the pending point with the smallest
        :meth:`best_connection` cost (the first such point in ``points``
        order) at that connection. The result is bit-identical to calling
        :meth:`best_connection` for every pending point after every
        attach, but each step scores all pending points against all
        nodes and edges in one NumPy pass (``docs/numerics.md`` §7).
        """
        pins = [Point(float(p[0]), float(p[1])) for p in points]
        k = len(pins)
        if not k:
            return
        n = len(self.points)
        cap = n + 2 * k  # an attach adds at most a Steiner node and the pin
        xs = np.empty(cap)
        ys = np.empty(cap)
        xs[:n] = [q.x for q in self.points]
        ys[:n] = [q.y for q in self.points]
        px = np.array([q.x for q in pins])[:, None]
        py = np.array([q.y for q in pins])[:, None]
        node_cost = np.empty((k, cap))
        # Column ``c`` scores the edge from node ``c`` to its parent; the
        # root's column stays +inf.
        edge_cost = np.full((k, cap), np.inf)

        def score_nodes(lo: int, hi: int) -> None:
            node_cost[:, lo:hi] = np.abs(px - xs[lo:hi]) + np.abs(py - ys[lo:hi])

        def score_edges(children: List[int]) -> None:
            parents = [self.parent[c] for c in children]
            ax, ay = xs[children], ys[children]
            bx, by = xs[parents], ys[parents]
            # min/max and clamp as bbox.project_onto computes them, so ties
            # and signed zeros pick the same operand.
            xlo, xhi = np.where(bx < ax, bx, ax), np.where(bx > ax, bx, ax)
            ylo, yhi = np.where(by < ay, by, ay), np.where(by > ay, by, ay)
            qx = np.where(px < xlo, xlo, np.where(px > xhi, xhi, px))
            qy = np.where(py < ylo, ylo, np.where(py > yhi, yhi, py))
            # The scan skips projections onto an endpoint. Those cost exactly
            # what the endpoint node costs, never 1e-12 below the best node,
            # so they cannot win here either and need no mask.
            edge_cost[:, children] = np.abs(px - qx) + np.abs(py - qy)

        score_nodes(0, n)
        node_best = node_cost[:, :n].min(axis=1)
        node_idx = node_cost[:, :n].argmin(axis=1)
        if n > 1:
            score_edges(list(range(1, n)))
        pending = np.ones(k, dtype=bool)
        for _ in range(k):
            # The scan's edge rule, for every pin at once: starting from the
            # best node, the next edge (in child order) that beats the
            # running best by 1e-12 takes over. Earlier edges cannot beat a
            # lower running best, so each round searches whole rows.
            best = node_best.copy()
            split = np.full(k, -1)
            scores = edge_cost[:, :n]
            rows = np.arange(k)
            while rows.size:
                beats = scores[rows] < (best[rows] - 1e-12)[:, None]
                first = beats.argmax(axis=1)
                took = beats[np.arange(rows.size), first]
                rows, first = rows[took], first[took]
                best[rows] = scores[rows, first]
                split[rows] = first
            best[~pending] = np.inf
            i = int(best.argmin())
            pending[i] = False
            pt, child = pins[i], int(split[i])
            if child < 0:
                node = int(node_idx[i])
                self._connect(pt, float(best[i]), node, None, self.points[node])
            else:
                a, b = self.points[child], self.points[self.parent[child]]
                box = BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
                self._connect(pt, float(best[i]), -1, child, project_onto(pt, box))
            grown = len(self.points)
            if grown == n:
                continue
            xs[n:grown] = [q.x for q in self.points[n:grown]]
            ys[n:grown] = [q.y for q in self.points[n:grown]]
            score_nodes(n, grown)
            new_best = node_cost[:, n:grown].min(axis=1)
            closer = new_best < node_best
            node_best[closer] = new_best[closer]
            node_idx[closer] = n + node_cost[closer, n:grown].argmin(axis=1)
            score_edges(([child] if child >= 0 else []) + list(range(n, grown)))
            n = grown

    def attach_to_node(self, p: PointLike, node: int) -> int:
        """Attach ``p`` directly under an explicit existing node."""
        pt = Point(float(p[0]), float(p[1]))
        if self.points[node] == pt:
            return node
        idx = len(self.points)
        self.points.append(pt)
        self.parent.append(node)
        return idx

    def add_edge_chain(self, a: PointLike, b: PointLike) -> None:
        """Ensure both endpoints exist and are connected (used for seeding
        a builder from an existing tree's edge list). ``a`` must already be
        in the builder; ``b`` is attached directly under it."""
        pa = Point(float(a[0]), float(a[1]))
        try:
            ia = self.points.index(pa)
        except ValueError:
            raise ValueError(f"chain start {pa} not in builder") from None
        self.attach_to_node(b, ia)

    # ------------------------------------------------------------- finish

    def finish(self, net: Net) -> RoutingTree:
        """Convert to a validated :class:`RoutingTree` spanning ``net``."""
        edges = [
            (self.points[i], self.points[p]) for i, p in self.edges()
        ]
        if not edges:
            # Degenerate: a single-node builder (degree-2 net attaches the
            # sink, so this only happens if finish() is called too early).
            edges = [(net.source, net.source)]
        return RoutingTree.from_edges(net, edges, extra_points=self.points)


def grow_from_source(net: Net, order: Optional[List[int]] = None) -> RoutingTree:
    """Greedy Steiner growth: start at the source, repeatedly attach the
    cheapest remaining sink (or follow ``order``, a list of sink indices).

    This is the Prim-with-steinerisation construction used as the fallback
    RSMT heuristic and as PatLabor's reattachment step.
    """
    builder = TreeBuilder(net.source)
    if order is None:
        builder.attach_cheapest_first(net.sinks)
    else:
        for i in order:
            builder.attach(net.sinks[i])
    return builder.finish(net)
