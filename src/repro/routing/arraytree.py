"""One mutable routing tree on arrays, for local search.

Every tree that is grown or rewired one move at a time lives on an
:class:`ArrayTree`. Greedy growth (:mod:`repro.routing.attach`) and
reassembly attach pins, post-refine and SALT move subtrees, and the
RSMT seed re-inserts leaves. The tree keeps the ``points`` and
``parent`` lists every caller reads. Alongside them it keeps:

* NumPy columns of the coordinates and parents, which the scoring
  kernels read without rebuilding lists;
* a preorder ``pre`` with positions ``tin`` and subtree sizes ``size``,
  so ``u`` lies below ``v`` iff ``tin[v] <= tin[u] < tin[v] + size[v]``;
* ``dist``, each node's source arrival.

Every move updates them in place. A new node is spliced into the
preorder. A moved subtree is cut out and re-inserted after its new
parent. Arrivals are recomputed top-down over exactly the nodes whose
path changed, with ``RoutingTree.path_lengths``' per-edge expression
``dist[p] + l1(u, p)``. They are never shifted by a delta, which would
re-associate the sum (``docs/numerics.md`` §10). A subtree move returns
its :class:`Undo`, the inverse of each of its parts, so taking a
rejected move back costs what the move cost.

The preorder is *a* preorder, not ``RoutingTree.topological_order``'s.
It is only read as subtree intervals, and every preorder gives the same
intervals as sets.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidTreeError
from ..geometry.bbox import BBox, project_onto
from ..geometry.net import Net
from ..geometry.point import Point
from .tree import RoutingTree

#: Nodes whose arrivals one step overwrote, and their old arrivals.
Saved = Tuple[List[int], List[float]]


class Undo(NamedTuple):
    """What :meth:`ArrayTree.undo` needs to take back one
    :meth:`ArrayTree.reattach`: each field is the inverse of one part of
    the move, so undoing costs what the move cost."""

    v: int
    #: ``v``'s parent before the move.
    parent: int
    #: The preorder rotation ``(lo, hi, shift)`` the move made.
    roll: Tuple[int, int, int]
    #: Arrivals the move overwrote.
    moved: Saved
    #: The split edge's child and the arrivals the split overwrote, or
    #: ``None`` when the move attached to a node.
    split: Optional[Tuple[int, Saved]]


def edge_box(a: Point, b: Point) -> BBox:
    """The bounding box of edge ``(a, b)``, as the per-pin scans build it
    (``min`` and ``max`` pick between equal operands as they did)."""
    return BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))


class ArrayTree:
    """A rooted point tree with a maintained preorder and source arrivals.

    Node 0 is the root (``parent[0] == -1``). ``points`` and ``parent``
    are kept as given, not copied, and a tree :meth:`view` reads them.
    Pins may sit at any node; :meth:`finish` renumbers them first.

    The coordinates and parents are NumPy columns (``x``, ``y``, ``par``,
    with spare capacity), read by the scoring kernels. The preorder
    ``pre``, its positions ``tin`` and the subtree sizes ``size`` are
    lists: a move touches a few entries of them, which plain lists do
    for less than a NumPy call costs, and a scoring pass converts them
    once.
    """

    def __init__(self, points: List[Point], parent: List[int]) -> None:
        self.points = points
        self.parent = parent
        n = len(points)
        cap = 2 * n + 8
        self.x = np.empty(cap)
        self.y = np.empty(cap)
        self.par = np.empty(cap, dtype=np.intp)
        self.x[:n] = [p[0] for p in points]
        self.y[:n] = [p[1] for p in points]
        self.par[:n] = parent
        self.pre: List[int] = []
        self.tin: List[int] = [0] * n
        self.size: List[int] = [1] * n
        self.dist: List[float] = [0.0] * n
        self._index()

    def __len__(self) -> int:
        return len(self.points)

    # ------------------------------------------------------------ queries

    def subtree(self, v: int) -> Tuple[int, int]:
        """Preorder interval ``[lo, hi)`` of the subtree rooted at ``v``."""
        lo = self.tin[v]
        return lo, lo + self.size[v]

    def view(self, net: Net) -> RoutingTree:
        """A :class:`RoutingTree` of ``net`` on this tree's lists.

        Its ``path_lengths``, ``delay`` and ``sink_delays`` read the
        maintained arrivals. Pins must occupy nodes ``0 .. degree - 1``.
        """
        return _LiveRoutingTree(net, self)

    def finish(self, net: Net) -> RoutingTree:
        """A validated :class:`RoutingTree` of ``net`` with this tree's
        edges, through ``RoutingTree.from_edges``: pins first, then the
        other points in node order, rooted at the source."""
        pts = self.points
        edges = [(pts[u], pts[p]) for u, p in enumerate(self.parent) if p >= 0]
        return RoutingTree.from_edges(net, edges, extra_points=pts)

    def cheapest_within(
        self, p: Point, budget: float
    ) -> Tuple[int, Optional[int], Point]:
        """Cheapest attachment of ``p`` whose arrival meets ``budget``.

        The candidates are every node in index order, then the projection
        onto every edge in child order, skipping projections onto an
        edge's end. The choice is the first lexicographic minimum of
        ``(cost, arrival)`` among those with ``arrival <= budget + 1e-9``.
        The source always qualifies when ``budget`` is at least its
        distance. Returns ``(node, split_child, attach_point)``.
        """
        _, _, _, pick = lexmin_rows(
            self, np.array([[p[0]]]), np.array([[p[1]]]), self.dist,
            max_arrival=budget + 1e-9,
        )
        return self.candidate(p, int(pick[0]))

    def candidate(self, p: Point, column: int) -> Tuple[int, Optional[int], Point]:
        """``(node, split_child, attach_point)`` of column ``column`` of
        :func:`lexmin_rows` for the point ``p``."""
        n = len(self.points)
        if column < n:
            return column, None, self.points[column]
        child = column - n + 1
        node = self.parent[child]
        box = edge_box(self.points[child], self.points[node])
        return node, child, project_onto(p, box)

    # ----------------------------------------------------------- mutation

    def split(self, child: int, at: Point) -> int:
        """Split the edge above ``child`` at ``at``; return the new node.

        The new Steiner node takes ``child``'s place under its parent.
        ``child``'s path now runs through it, so its whole subtree's
        arrivals are recomputed.
        """
        return self._split(child, at)[0]

    def add_leaf(self, p: Point, node: int) -> int:
        """Attach ``p`` as a new leaf under ``node``; return its index.

        The leaf becomes ``node``'s last child in the preorder, so growth
        in preorder (a seed copied from another tree) only appends.
        """
        pos = self.tin[node] + self.size[node]
        u = self._append(p, node)
        self._splice(pos, u)
        self._resize(node, 1)
        return u

    def attach(
        self, p: Point, node: int, split_child: Optional[int], at: Point
    ) -> int:
        """Attach ``p`` at a chosen connection; return its node.

        Splits the edge above ``split_child`` at ``at`` first when asked;
        ``attach(p, node, None, p)`` hangs ``p`` under ``node``. A point
        equal to its attach node is that node, so nothing is added.
        """
        target = node if split_child is None else self.split(split_child, at)
        if self.points[target] == p:
            return target
        return self.add_leaf(p, target)

    def reattach(
        self, v: int, node: int, split_child: Optional[int], at: Point
    ) -> Undo:
        """Move ``v``'s subtree to a chosen connection, splitting the edge
        above ``split_child`` at ``at`` first when asked.

        Returns the move's :class:`Undo`, for :meth:`undo`.
        """
        split: Optional[Tuple[int, Saved]] = None
        target = node
        if split_child is not None:
            target, saved = self._split(split_child, at)
            split = (split_child, saved)
        old = self.parent[v]
        self.parent[v] = target
        self.par[v] = target
        tin = self.tin
        s, k, t = tin[v], self.size[v], tin[target]
        # The subtree's k entries move to just after the target's: rotate
        # the span between them.
        roll = (t + 1, s + k, k) if t < s else (s, t + 1, -k)
        self._roll(*roll)
        self._resize(old, -k)
        self._resize(target, k)
        return Undo(v, old, roll, self._relax(tin[v], tin[v] + k), split)

    def undo(self, move: Undo) -> None:
        """Take back ``move``, the latest :meth:`reattach`.

        The preorder, sizes, columns and arrivals return to their exact
        values before it; ``points`` and ``parent`` lose the split's
        Steiner node.
        """
        v, old = move.v, move.parent
        target = self.parent[v]
        k = self.size[v]
        self.parent[v] = old
        self.par[v] = old
        lo, hi, shift = move.roll
        self._roll(lo, hi, -shift)
        self._resize(target, -k)
        self._resize(old, k)
        _put(self.dist, move.moved)
        if move.split is None:
            return
        child, saved = move.split
        s = self.parent[child]
        g = self.parent[s]
        self.parent[child] = g
        self.par[child] = g
        pos = self.tin[s]
        del self.pre[pos]
        self._renumber(pos, s)
        self._resize(g, -1)
        _put(self.dist, saved)
        for column in (self.points, self.parent, self.dist, self.tin, self.size):
            del column[s]

    # ------------------------------------------------------------ helpers

    def _index(self) -> None:
        """Build the preorder, subtree sizes and arrivals from scratch."""
        parent = self.parent
        n = len(parent)
        children: List[List[int]] = [[] for _ in range(n)]
        for u in range(1, n):
            children[parent[u]].append(u)
        order = self.pre
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(children[u])
        if len(order) != n:
            raise InvalidTreeError("tree contains unreachable nodes or a cycle")
        size = self.size
        for u in reversed(order[1:]):
            size[parent[u]] += size[u]
        self._renumber(0, n)
        self._relax(1, n)

    def _append(self, p: Point, parent: int) -> int:
        """Append node ``p`` under ``parent`` to the lists and columns, with
        its arrival as :meth:`_relax` sums it; the caller splices it into
        the preorder."""
        u = len(self.points)
        if u == len(self.x):
            self._grow()
        q = self.points[parent]
        self.points.append(p)
        self.parent.append(parent)
        self.dist.append(self.dist[parent] + (abs(p[0] - q[0]) + abs(p[1] - q[1])))
        self.tin.append(0)
        self.size.append(1)
        self.x[u] = p[0]
        self.y[u] = p[1]
        self.par[u] = parent
        return u

    def _grow(self) -> None:
        cap = 2 * len(self.x)
        for name in ("x", "y", "par"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def _split(self, child: int, at: Point) -> Tuple[int, Saved]:
        """:meth:`split`, also returning the arrivals it overwrote."""
        g = self.parent[child]
        s = self._append(at, g)
        self.parent[child] = s
        self.par[child] = s
        lo, k = self.tin[child], self.size[child]
        self._splice(lo, s)
        self.size[s] = k + 1
        self._resize(g, 1)
        return s, self._relax(lo, lo + 1 + k)

    def _roll(self, lo: int, hi: int, shift: int) -> None:
        """Rotate preorder positions ``[lo, hi)`` by ``shift``, as
        ``np.roll`` does, and renumber them."""
        seg = self.pre[lo:hi]
        cut = -shift % len(seg)
        self.pre[lo:hi] = seg[cut:] + seg[:cut]
        self._renumber(lo, hi)

    def _splice(self, pos: int, u: int) -> None:
        """Insert the newest node ``u`` at preorder position ``pos``."""
        self.pre.insert(pos, u)
        self._renumber(pos, u + 1)

    def _renumber(self, lo: int, hi: int) -> None:
        """Set ``tin`` for preorder positions ``[lo, hi)``."""
        tin = self.tin
        for i, u in enumerate(self.pre[lo:hi], lo):
            tin[u] = i

    def _resize(self, u: int, k: int) -> None:
        """Add ``k`` to the size of ``u`` and every node above it."""
        size, parent = self.size, self.parent
        while u >= 0:
            size[u] += k
            u = parent[u]

    def _relax(self, lo: int, hi: int) -> Saved:
        """Recompute arrivals over preorder positions ``[lo, hi)``, parents
        first, as ``RoutingTree.path_lengths`` sums them. Returns the
        nodes and their old arrivals."""
        pts, parent, dist = self.points, self.parent, self.dist
        nodes = self.pre[lo:hi]
        old = [dist[u] for u in nodes]
        for u in nodes:
            p = parent[u]
            a, b = pts[u], pts[p]
            dist[u] = dist[p] + (abs(a[0] - b[0]) + abs(a[1] - b[1]))
        return nodes, old


def _put(dist: List[float], saved: Saved) -> None:
    """Write saved arrivals back."""
    nodes, old = saved
    for u, d in zip(nodes, old):
        dist[u] = d


def lexmin_rows(
    tree: ArrayTree,
    px: np.ndarray,
    py: np.ndarray,
    path_lengths: Sequence[float],
    below: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    max_arrival: Optional[float] = None,
    cutoff: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score points ``(px, py)`` (column vectors) against every candidate.

    Candidate column ``u < n`` is node ``u``; column ``n + c - 1`` is the
    projection onto edge ``(c, parent(c))``, so nodes come in index
    order, then edges in child order. Cost is the L1 distance to the
    candidate; arrival is ``pl[u] + cost`` for a node and
    ``(pl[parent] + l1(parent, q)) + cost`` for a projection ``q``.
    Masked out: projections onto an edge's child end, candidates whose
    node (an edge's child end) lies in the preorder interval
    ``below = (lo, hi)`` of the row, and arrivals above ``max_arrival``.
    A row counts when its least cost is below its ``cutoff`` (default:
    finite). For those rows, in row order, returns ``(row, cost,
    arrival, column)``: the least cost, the least arrival at that cost
    and the first column holding both (``docs/numerics.md`` §8).
    """
    n = len(tree.points)
    x, y = tree.x[:n], tree.y[:n]
    up = tree.par[1:n]
    xa, ya, xb, yb = x[1:], y[1:], x[up], y[up]
    pl = np.asarray(path_lengths, dtype=float)[:n]
    # The projection reaches the costs only through |.| and ==, so which
    # of two equal zeros min/max/clamp return cannot matter; the winning
    # attach point is recomputed with project_onto.
    qx = np.minimum(np.maximum(px, np.minimum(xa, xb)), np.maximum(xa, xb))
    qy = np.minimum(np.maximum(py, np.minimum(ya, yb)), np.maximum(ya, yb))
    node = np.abs(px - x) + np.abs(py - y)
    edge = np.abs(px - qx) + np.abs(py - qy)
    cost = np.concatenate((node, edge), axis=1)
    arrival = np.concatenate(
        (pl + node, (pl[up] + (np.abs(xb - qx) + np.abs(yb - qy))) + edge), axis=1
    )
    # A projection onto the parent end has that node's cost and arrival,
    # and the node's column comes first; only the child end needs a mask.
    bad = np.zeros(cost.shape, dtype=bool)
    bad[:, n:] = (qx == xa) & (qy == ya)
    if below is not None:
        lo, hi = below
        tin = np.array(tree.tin)
        inside = (lo <= tin) & (tin < hi)
        bad[:, :n] |= inside
        bad[:, n:] |= inside[:, 1:]
    if max_arrival is not None:
        bad |= arrival > max_arrival
    cost[bad] = np.inf
    best = cost.min(axis=1)
    rows = np.flatnonzero(best < (np.inf if cutoff is None else cutoff))
    arrival[cost != best[:, None]] = np.inf
    least = arrival.min(axis=1)
    pick = (arrival == least[:, None]).argmax(axis=1)
    return rows, best[rows], least[rows], pick[rows]


class _LiveRoutingTree(RoutingTree):
    """A :class:`RoutingTree` over an :class:`ArrayTree`'s lists whose
    arrivals are the maintained ones (see :meth:`ArrayTree.view`)."""

    def __init__(self, net: Net, live: ArrayTree) -> None:
        super().__init__(net, live.points, live.parent)
        self._live = live

    def path_lengths(self) -> List[float]:
        """Source→node path length per node, read from the live tree."""
        return list(self._live.dist)

    def delay(self) -> float:
        """Maximum source→sink path length, read from the live tree."""
        return max(self._live.dist[1:self.net.degree])

    def sink_delays(self) -> List[float]:
        """Source→sink path length per sink, read from the live tree."""
        return self._live.dist[1:self.net.degree]
