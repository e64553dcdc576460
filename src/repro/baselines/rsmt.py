"""FLUTE-substitute RSMT engine: exact for small nets, divide-and-conquer above.

FLUTE itself is "lookup-table exact below degree 9, recursive net breaking
above"; this module honours the same contract with pure-Python machinery:

* ``degree <= exact_limit`` — exact Hanan-grid Dreyfus–Wagner,
* larger nets — Kalpakis–Sherman-style median splitting down to exact base
  cases, tree union at the shared split pin, then a reattachment refinement
  pass that removes most of the splitting artefacts.

The engine provides PatLabor's seed tree (step 1 of the local search) and
the ``w(FLUTE)`` normalisation of Figure 7.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..geometry.net import Net
from ..geometry.point import Point, l1
from ..routing.arraytree import ArrayTree
from ..routing.attach import attach_cheapest, connection_cost, grow_from_source
from ..routing.tree import RoutingTree
from .dreyfus_wagner import steiner_min_tree

DEFAULT_EXACT_LIMIT = 8


def rsmt(net: Net, exact_limit: int = DEFAULT_EXACT_LIMIT, refine_passes: int = 2) -> RoutingTree:
    """A low-wirelength rectilinear Steiner tree for ``net``.

    Exact for ``net.degree <= exact_limit``; a refined divide-and-conquer
    heuristic above (typically within a few percent of optimal).
    """
    if net.degree <= exact_limit:
        return steiner_min_tree(net, max_terminals=exact_limit)
    points = list(net.pins)
    edges = _dc_edges(points, axis=0, exact_limit=exact_limit)
    tree = RoutingTree.from_edges(net, edges)
    for k in range(refine_passes):
        # The greedy regrowth is the same tree in every pass. After the
        # first, the tree is either that regrowth or one it did not beat
        # by 1e-12, and leaf re-insertion only makes the tree lighter, so
        # the probe never wins again: it is grown once, for pass one.
        improved, tree = _refine(tree, _greedy_regrowth(net) if k == 0 else None)
        if not improved:
            break
    return tree


def _dc_edges(
    points: List[Point], axis: int, exact_limit: int
) -> List[Tuple[Point, Point]]:
    """Edge set of a Steiner tree over ``points`` by median splitting."""
    if len(points) <= exact_limit:
        sub = Net.from_points(points[0], points[1:], name="rsmt/base")
        t = steiner_min_tree(sub, max_terminals=exact_limit)
        return [
            (t.points[i], t.points[p])
            for i, p in t.edges()
            if t.points[i] != t.points[p]
        ]
    ordered = sorted(points, key=lambda p: (p[axis], p[1 - axis]))
    k = len(ordered) // 2
    left = ordered[: k + 1]
    right = ordered[k:]
    return _dc_edges(left, 1 - axis, exact_limit) + _dc_edges(
        right, 1 - axis, exact_limit
    )


class _LeafReattacher:
    """Leaf re-insertion on one tree, scored as a per-leaf regrowth would.

    Re-inserting a leaf grows an :class:`ArrayTree` with the compacted
    tree minus that leaf, node by node in ``topological_order``, and
    attaches the leaf at its cheapest connection. Every leaf of one tree
    sees the same tree minus one node. This class numbers the compacted
    tree once in that order (a node equal to its parent's point shares
    the parent's node, as ``ArrayTree.attach`` fuses it) and scores a
    leaf with one :func:`~repro.routing.attach.connection_cost` that skips
    the leaf's own node. Only an accepted re-insertion builds the tree,
    from those columns with the leaf's node left out.
    """

    def __init__(self, tree: RoutingTree) -> None:
        self.tree = tree
        compact = tree.compacted()
        self.compact = compact
        self.order = compact.topological_order()
        self.has_child = [False] * len(compact.points)
        for p in compact.parent[1:]:
            self.has_child[p] = True
        # Grown node of every compacted node, and the grown columns.
        pts = compact.points
        home = [0] * len(pts)
        owner = [0]
        points: List[Point] = [pts[0]]
        parent: List[int] = [-1]
        for u in self.order[1:]:
            p = home[compact.parent[u]]
            if points[p] == pts[u]:
                home[u] = p
                continue
            home[u] = len(points)
            owner.append(u)
            points.append(pts[u])
            parent.append(p)
        self.home, self.owner = home, owner
        self.points, self.parent = points, parent
        xy = np.array(points, dtype=float).reshape(-1, 2)
        self.x, self.y = xy[:, 0], xy[:, 1]
        self.bx, self.by = self.x[parent[1:]], self.y[parent[1:]]

    def reattach(self, leaf: int) -> Optional[RoutingTree]:
        """:func:`reattach_leaf` for ``leaf`` (a pin of ``self.tree``)."""
        tree, compact = self.tree, self.compact
        old_cost = tree.edge_length(leaf)
        # Pins keep their index under compaction, and pins are distinct.
        if self.has_child[leaf]:
            return None  # not a leaf after compaction (it became a through node)
        own = self.home[leaf]
        if self.owner[own] != leaf:
            own = 0  # the leaf fused into its parent: it has no node to drop
        pt = compact.points[leaf]
        cost = connection_cost(pt, self.x, self.y, self.bx, self.by, own)
        if cost >= old_cost - 1e-12:
            return None
        points, parent = list(self.points), list(self.parent)
        if own:
            # No node hangs below the leaf's own: drop it and renumber
            # the nodes grown after it.
            del points[own], parent[own]
            parent = [p - (p > own) for p in parent]
        live = ArrayTree(points, parent)
        attach_cheapest(live, pt)
        return live.finish(tree.net).compacted()


def reattach_leaf(tree: RoutingTree, leaf: int) -> Optional[RoutingTree]:
    """Detach leaf pin ``leaf`` and re-insert it at its cheapest connection.

    Returns the improved tree, or ``None`` when no strict improvement
    exists. The leaf must be a pin with no children. The search runs on
    the compacted tree; the result's Steiner nodes follow that tree's
    topological order.
    """
    return _LeafReattacher(tree).reattach(leaf)


def refine_wirelength(tree: RoutingTree) -> Tuple[bool, RoutingTree]:
    """One refinement pass: leaf reattachment plus a greedy rebuild probe.

    Detaches each leaf pin and re-inserts it at its cheapest Steiner
    connection, which removes most divide-and-conquer splitting artefacts;
    also probes a full greedy regrowth and keeps whichever tree is
    lightest.
    """
    return _refine(tree, _greedy_regrowth(tree.net))


def _greedy_regrowth(net: Net) -> RoutingTree:
    """Greedy growth from the source, sinks taken nearest first."""
    order = sorted(
        range(len(net.sinks)), key=lambda i: l1(net.source, net.sinks[i])
    )
    return grow_from_source(net, order=order)


def _refine(
    tree: RoutingTree, rebuilt: Optional[RoutingTree]
) -> Tuple[bool, RoutingTree]:
    """:func:`refine_wirelength` with the regrowth ``rebuilt`` given, or
    not probed when it is ``None``."""
    net = tree.net
    best = tree
    improved = False
    leaves = _LeafReattacher(best)
    for leaf in range(1, net.degree):
        if any(p == leaf for p in best.parent):
            continue  # pin has children; moving it would move its subtree
        candidate = leaves.reattach(leaf)
        if candidate is not None and candidate.wirelength() < best.wirelength() - 1e-12:
            best = candidate
            improved = True
            leaves = _LeafReattacher(best)
    if rebuilt is not None and rebuilt.wirelength() < best.wirelength() - 1e-12:
        best = rebuilt
        improved = True
    return improved, best


def rsmt_wirelength(net: Net, exact_limit: int = DEFAULT_EXACT_LIMIT) -> float:
    """Wirelength of the engine's tree (Fig. 7's ``w(FLUTE)`` reference)."""
    return rsmt(net, exact_limit=exact_limit).wirelength()
