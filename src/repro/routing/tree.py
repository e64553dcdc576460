"""Rooted rectilinear routing trees and their two objectives.

A :class:`RoutingTree` spans all pins of a :class:`~repro.geometry.net.Net`,
is rooted at the source, and may contain extra Steiner nodes. Edges are
abstract rectilinear connections: an edge between nodes ``a`` and ``b``
contributes ``||a - b||_1`` to the wirelength regardless of which L-shape
embeds it, so the objectives are embedding-independent (the embedding
module materialises concrete L-shapes when drawing).

Objectives (paper, Section II):

* ``wirelength`` — sum of edge L1 lengths,
* ``delay``      — maximum source→sink path length along the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import InvalidTreeError
from ..geometry.net import Net
from ..geometry.point import Point, PointLike, l1

Edge = Tuple[int, int]


@dataclass
class RoutingTree:
    """A source-rooted rectilinear Steiner tree for a net.

    Attributes
    ----------
    net:
        The routed net. ``points[i] == net.pins[i]`` for ``i < net.degree``.
    points:
        Node coordinates; pins first (in net order), Steiner nodes after.
    parent:
        ``parent[i]`` is the parent node index of node ``i``; the root
        (node 0, the source) has parent ``-1``.
    """

    net: Net
    points: List[Point]
    parent: List[int]

    # Cached objectives; invalidated by the mutating helpers.
    _wirelength: Optional[float] = field(default=None, repr=False, compare=False)
    _delay: Optional[float] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------ factories

    @classmethod
    def from_parent(
        cls, net: Net, points: Sequence[PointLike], parent: Sequence[int]
    ) -> "RoutingTree":
        """Build and validate a tree from a parent array."""
        tree = cls(
            net=net,
            points=[Point(float(p[0]), float(p[1])) for p in points],
            parent=list(parent),
        )
        tree.validate()
        return tree

    @classmethod
    def from_edges(
        cls,
        net: Net,
        edges: Iterable[Tuple[PointLike, PointLike]],
        extra_points: Iterable[PointLike] = (),
    ) -> "RoutingTree":
        """Build a tree from undirected point-pair edges.

        The edge set must form a tree (after deduplication) whose nodes
        include every pin; it is rooted at the source by a BFS. Points not
        matching any pin become Steiner nodes.
        """
        index: Dict[Tuple[float, float], int] = {}
        points: List[Point] = []

        def node_of(p: PointLike) -> int:
            key = (float(p[0]), float(p[1]))
            if key not in index:
                index[key] = len(points)
                points.append(Point(*key))
            return index[key]

        for pin in net.pins:
            node_of(pin)
        for p in extra_points:
            node_of(p)

        adj: Dict[int, Set[int]] = {}
        for a, b in edges:
            ia, ib = node_of(a), node_of(b)
            if ia == ib:
                continue
            adj.setdefault(ia, set()).add(ib)
            adj.setdefault(ib, set()).add(ia)

        parent = [-2] * len(points)  # -2 = unvisited
        parent[0] = -1
        queue = [0]
        while queue:
            u = queue.pop()
            for v in adj.get(u, ()):
                if parent[v] == -2:
                    parent[v] = u
                    queue.append(v)
        if any(p == -2 for p in parent):
            orphans = [points[i] for i, p in enumerate(parent) if p == -2]
            raise InvalidTreeError(
                f"edge set does not connect all nodes; unreachable: {orphans[:5]}"
            )
        tree = cls(net=net, points=points, parent=parent)
        tree.validate()
        return tree

    @classmethod
    def star(cls, net: Net) -> "RoutingTree":
        """The trivial star: every sink wired straight to the source."""
        parent = [-1] + [0] * (net.degree - 1)
        return cls.from_parent(net, list(net.pins), parent)

    # ---------------------------------------------------------- structure

    @property
    def num_nodes(self) -> int:
        """Number of nodes: pins plus Steiner points."""
        return len(self.points)

    @property
    def num_steiner(self) -> int:
        """Number of non-pin nodes."""
        return len(self.points) - self.net.degree

    def children(self) -> List[List[int]]:
        """Child adjacency lists indexed by node."""
        ch: List[List[int]] = [[] for _ in self.points]
        for i, p in enumerate(self.parent):
            if p >= 0:
                ch[p].append(i)
        return ch

    def edges(self) -> List[Edge]:
        """All (child, parent) edges."""
        return [(i, p) for i, p in enumerate(self.parent) if p >= 0]

    def edge_length(self, child: int) -> float:
        """L1 length of the edge from ``child`` to its parent."""
        p = self.parent[child]
        if p < 0:
            raise InvalidTreeError(f"node {child} has no parent edge")
        return l1(self.points[child], self.points[p])

    def topological_order(self) -> List[int]:
        """Nodes ordered root-first (every node after its parent)."""
        ch = self.children()
        order: List[int] = []
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(ch[u])
        if len(order) != len(self.points):
            raise InvalidTreeError("tree contains unreachable nodes or a cycle")
        return order

    # ---------------------------------------------------------- objectives

    def wirelength(self) -> float:
        """Total wirelength ``w(T)``."""
        if self._wirelength is None:
            pts = self.points
            self._wirelength = sum(
                abs(pts[i].x - pts[p].x) + abs(pts[i].y - pts[p].y)
                for i, p in enumerate(self.parent)
                if p >= 0
            )
        return self._wirelength

    def path_lengths(self) -> List[float]:
        """Source→node path length for every node, in node order."""
        dist = [0.0] * len(self.points)
        for u in self.topological_order():
            p = self.parent[u]
            if p >= 0:
                dist[u] = dist[p] + l1(self.points[u], self.points[p])
        return dist

    def delay(self) -> float:
        """Delay ``d(T)`` — the maximum source→sink path length."""
        if self._delay is None:
            dist = self.path_lengths()
            self._delay = max(dist[i] for i in range(1, self.net.degree))
        return self._delay

    def sink_delays(self) -> List[float]:
        """Source→sink path length per sink (net sink order)."""
        dist = self.path_lengths()
        return [dist[i] for i in range(1, self.net.degree)]

    def objective(self) -> Tuple[float, float]:
        """``(w(T), d(T))`` — the bicriterion objective vector ``s(T)``."""
        return (self.wirelength(), self.delay())

    def stretch(self) -> float:
        """Max sink path length over its L1 lower bound (a shallowness measure)."""
        worst = 1.0
        dist = self.path_lengths()
        src = self.points[0]
        for i in range(1, self.net.degree):
            lb = l1(src, self.points[i])
            if lb > 0:
                worst = max(worst, dist[i] / lb)
        return worst

    def _invalidate(self) -> None:
        self._wirelength = None
        self._delay = None

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Raise :class:`InvalidTreeError` on any structural violation."""
        n = self.net.degree
        if len(self.points) != len(self.parent):
            raise InvalidTreeError("points and parent arrays differ in length")
        if len(self.points) < n:
            raise InvalidTreeError("tree has fewer nodes than the net has pins")
        for i, pin in enumerate(self.net.pins):
            if self.points[i] != pin:
                raise InvalidTreeError(
                    f"node {i} is {self.points[i]} but pin {i} is {pin}"
                )
        if self.parent[0] != -1:
            raise InvalidTreeError("root (source) must have parent -1")
        for i, p in enumerate(self.parent[1:], start=1):
            if not 0 <= p < len(self.points):
                raise InvalidTreeError(f"node {i} has invalid parent {p}")
        self.topological_order()  # raises on cycles / disconnection

    # ------------------------------------------------------- normalisation

    def compacted(self) -> "RoutingTree":
        """An equivalent tree with redundant Steiner nodes removed.

        Removes (a) Steiner nodes coinciding with their parent (zero-length
        edges) and (b) pass-through Steiner nodes with exactly one child
        that lie on a monotone path between parent and child. Neither
        removal changes ``w`` or ``d``.
        """
        n = self.net.degree
        parent = list(self.parent)
        drop: Set[int] = set()
        # Iterate to a fixed point; child lists are recomputed after every
        # structural change so contractions never act on stale adjacency.
        changed = True
        while changed:
            changed = False
            ch: List[List[int]] = [[] for _ in self.points]
            for i, p in enumerate(parent):
                if i not in drop and p >= 0 and p not in drop:
                    ch[p].append(i)
            for v in range(n, len(self.points)):
                if v in drop:
                    continue
                p = parent[v]
                if p < 0:
                    continue
                kids = ch[v]
                if len(kids) == 0:
                    drop.add(v)
                    changed = True
                    break
                if len(kids) == 1:
                    c = kids[0]
                    a, s, b = self.points[p], self.points[v], self.points[c]
                    monotone_x = min(a.x, b.x) <= s.x <= max(a.x, b.x)
                    monotone_y = min(a.y, b.y) <= s.y <= max(a.y, b.y)
                    if monotone_x and monotone_y:
                        parent[c] = p
                        drop.add(v)
                        changed = True
                        break
        keep = [i for i in range(len(self.points)) if i not in drop]
        remap = {old: new for new, old in enumerate(keep)}
        new_points = [self.points[i] for i in keep]
        new_parent = [
            -1 if parent[i] == -1 else remap[parent[i]] for i in keep
        ]
        return RoutingTree.from_parent(self.net, new_points, new_parent)

    def canonical_edge_set(self) -> frozenset:
        """Hashable identity of the compacted tree's geometry (for dedup)."""
        t = self.compacted()
        return frozenset(
            frozenset((tuple(t.points[i]), tuple(t.points[p])))
            for i, p in enumerate(t.parent)
            if p >= 0 and t.points[i] != t.points[p]
        )

    def copy(self) -> "RoutingTree":
        """A deep-enough copy safe for independent mutation."""
        return RoutingTree(self.net, list(self.points), list(self.parent))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RoutingTree(n={self.net.degree}, nodes={len(self.points)}, "
            f"w={self.wirelength():.1f}, d={self.delay():.1f})"
        )
