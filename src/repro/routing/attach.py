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

The functions here grow an :class:`~repro.routing.arraytree.ArrayTree`,
the one mutable routing tree. It does not require pins to occupy the
first node slots, so pins can be attached in any order;
:meth:`ArrayTree.finish` converts it to a validated :class:`RoutingTree`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..geometry.bbox import BBox, project_onto
from ..geometry.net import Net
from ..geometry.point import Point, PointLike
from .arraytree import ArrayTree, edge_box
from .tree import RoutingTree


def best_connection(
    tree: ArrayTree, p: PointLike
) -> Tuple[float, int, Optional[int], Point]:
    """Cheapest attachment of ``p`` to ``tree``.

    Returns ``(cost, node_index, split_child, attach_point)``: attach
    directly to ``node_index`` when ``split_child`` is None, otherwise
    split the edge ``(split_child -> parent)`` at ``attach_point`` first.
    Nodes are tried in index order (first least cost wins), then the
    projection onto each edge in child order, which takes over when it
    beats the running best by 1e-12; projections onto an edge's end never
    win (``docs/numerics.md`` §7). A Python scan: one-off queries
    (:func:`attach_cheapest`, YSD's greedy construction) would pay more
    to build NumPy rows than the scan costs. Loops that score many pins
    keep their rows instead (:func:`attach_cheapest_first`,
    :func:`connection_cost`).
    """
    pt = Point(float(p[0]), float(p[1]))
    pts, parent = tree.points, tree.parent
    costs = [abs(pt.x - q.x) + abs(pt.y - q.y) for q in pts]
    best = min(costs)
    node = costs.index(best)
    row = [float("inf")] + [
        _box_cost(edge_box(pts[c], pts[parent[c]]), pt.x, pt.y)
        for c in range(1, len(pts))
    ]
    cost, child = _fold(row, 1, len(pts), best, -1)
    if child < 0:
        return cost, node, None, pts[node]
    return cost, -1, child, project_onto(pt, edge_box(pts[child], pts[parent[child]]))


def attach_cheapest(tree: ArrayTree, p: PointLike) -> int:
    """Attach ``p`` to ``tree`` at its :func:`best_connection`; return
    its node."""
    pt = Point(float(p[0]), float(p[1]))
    _, node, split_child, at = best_connection(tree, pt)
    return tree.attach(pt, node, split_child, at)


def attach_cheapest_first(tree: ArrayTree, points: Sequence[PointLike]) -> None:
    """Attach all of ``points`` to ``tree``, cheapest connection first.

    Each step attaches the pending point with the smallest
    :func:`best_connection` cost (the first such point in ``points``
    order) at that connection. The result is bit-identical to calling
    :func:`best_connection` for every pending point after every attach,
    but each pin's connection is kept between steps and only re-derived
    where an attach can change it (``docs/numerics.md`` §7): the first
    step scores all pins in one NumPy pass, and each later step scores
    them against the at most three edges and two nodes the attach
    created or changed.
    """
    pins = [Point(float(p[0]), float(p[1])) for p in points]
    if not pins:
        return
    pts, parent = tree.points, tree.parent
    n = len(pts)
    xs, ys = tree.x[:n], tree.y[:n]
    up = tree.par[1:n]
    px = np.array([q.x for q in pins])[:, None]
    py = np.array([q.y for q in pins])[:, None]
    node_cost = np.abs(px - xs) + np.abs(py - ys)
    node_best: List[float] = node_cost.min(axis=1).tolist()
    node_idx: List[int] = node_cost.argmin(axis=1).tolist()
    # Row ``i`` holds pin ``i``'s cost to each edge column: column ``c``
    # is the edge from node ``c`` to its parent (the root's column is
    # +inf). ``boxes`` holds each column's box.
    rows: List[List[float]] = np.concatenate(
        (np.full((len(pins), 1), np.inf),
         edge_costs(px, py, xs[1:], ys[1:], xs[up], ys[up])),
        axis=1,
    ).tolist()
    boxes = [BBox(0.0, 0.0, 0.0, 0.0)]
    boxes += [edge_box(pts[c], pts[parent[c]]) for c in range(1, n)]
    best = list(node_best)
    split = [-1] * len(pins)
    for i, row in enumerate(rows):
        best[i], split[i] = _fold(row, 1, n, best[i], -1)
    pending = list(range(len(pins)))
    while pending:
        i = min(pending, key=best.__getitem__)
        pending.remove(i)
        pt, child = pins[i], split[i]
        if child < 0:
            tree.attach(pt, node_idx[i], None, pt)
        else:
            box = edge_box(pts[child], pts[parent[child]])
            tree.attach(pt, -1, child, project_onto(pt, box))
        grown = len(pts)
        if grown == n:
            continue
        new = range(n, grown)
        if child >= 0:
            boxes[child] = edge_box(pts[child], pts[parent[child]])
        boxes += [edge_box(pts[c], pts[parent[c]]) for c in new]
        for j in pending:
            q = pins[j]
            qx, qy = q.x, q.y
            row = rows[j]
            # A pin's connection changes only if (a) a new node beats its
            # best node, which restarts its fold, or (b) the split edge
            # could have been taken, i.e. cost below the best node by
            # 1e-12: the split shrinks that edge's box, so its cost can
            # only rise. Any other pin's fold is unchanged up to the old
            # last column and just continues over the new ones.
            nb = node_best[j]
            redo = child >= 0 and row[child] < nb - 1e-12
            for u in new:
                c = abs(qx - pts[u].x) + abs(qy - pts[u].y)
                if c < nb:
                    nb, node_idx[j], redo = c, u, True
            node_best[j] = nb
            if child >= 0:
                row[child] = _box_cost(boxes[child], qx, qy)
            row += [_box_cost(boxes[c], qx, qy) for c in new]
            if redo:
                best[j], split[j] = _fold(row, 1, grown, nb, -1)
            else:
                best[j], split[j] = _fold(row, n, grown, best[j], split[j])
        n = grown


def edge_costs(
    px: Union[float, np.ndarray],
    py: Union[float, np.ndarray],
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
) -> np.ndarray:
    """L1 cost from ``(px, py)`` to its projection on each edge ``(a, b)``.

    ``px`` and ``py`` are one point or a column of points (one row each).

    The box and the clamp are written as ``BBox`` and ``project_onto``
    compare (``np.where(b < a, b, a)`` for ``min`` and so on), so ties
    between ``0.0`` and ``-0.0`` pick the same operand.
    """
    xlo, xhi = np.where(bx < ax, bx, ax), np.where(bx > ax, bx, ax)
    ylo, yhi = np.where(by < ay, by, ay), np.where(by > ay, by, ay)
    qx = np.where(px < xlo, xlo, np.where(px > xhi, xhi, px))
    qy = np.where(py < ylo, ylo, np.where(py > yhi, yhi, py))
    out: np.ndarray = np.abs(px - qx) + np.abs(py - qy)
    return out


def connection_cost(
    p: Point,
    x: np.ndarray, y: np.ndarray, bx: np.ndarray, by: np.ndarray,
    skip: int = 0,
) -> float:
    """The cost of :func:`best_connection`'s choice, in one NumPy row.

    ``x``, ``y`` are a tree's node coordinates and ``bx``, ``by`` the
    coordinates of each node ``1 .. n-1``'s parent. ``skip > 0`` leaves
    out leaf ``skip`` and its edge, as if the tree had never held it.

    The scan keeps the first node of least cost, then walks the edges in
    column order and takes an edge whenever it beats the running best by
    1e-12. That fold is not a minimum. Each round here takes the first
    edge of the whole row that beats the running best; an edge the scan
    passed over cannot beat a lower best either (``docs/numerics.md``
    §7). Projections onto an edge's end need no mask: they cost what
    that node costs, never 1e-12 below the best node.
    """
    node_cost = np.abs(p.x - x) + np.abs(p.y - y)
    edge_cost = edge_costs(p.x, p.y, x[1:], y[1:], bx, by)
    if skip:
        node_cost[skip] = np.inf
        edge_cost[skip - 1] = np.inf
    best = float(node_cost.min())
    while True:
        hits = np.flatnonzero(edge_cost < best - 1e-12)
        if not hits.size:
            return best
        best = float(edge_cost[hits[0]])


def _box_cost(box: BBox, x: float, y: float) -> float:
    """L1 distance from ``(x, y)`` to its ``project_onto`` point in ``box``."""
    xlo, ylo, xhi, yhi = box
    qx = xlo if x < xlo else xhi if x > xhi else x
    qy = ylo if y < ylo else yhi if y > yhi else y
    return abs(x - qx) + abs(y - qy)


def _fold(
    row: List[float], lo: int, hi: int, best: float, split: int
) -> Tuple[float, int]:
    """The scan's edge rule over columns ``[lo, hi)`` of one pin's row:
    an edge that beats the running ``best`` by 1e-12 takes over."""
    for c in range(lo, hi):
        if row[c] < best - 1e-12:
            best, split = row[c], c
    return best, split


def grow_from_source(net: Net, order: Optional[List[int]] = None) -> RoutingTree:
    """Greedy Steiner growth: start at the source, repeatedly attach the
    cheapest remaining sink (or follow ``order``, a list of sink indices).

    This is the Prim-with-steinerisation construction used as the fallback
    RSMT heuristic and as PatLabor's reattachment step.
    """
    tree = ArrayTree([net.source], [-1])
    if order is None:
        attach_cheapest_first(tree, net.sinks)
    else:
        for i in order:
            attach_cheapest(tree, net.sinks[i])
    return tree.finish(net)
