"""Delay-aware tree refinement passes.

SALT's post-processing, PD-II's detour-aware Steinerisation, and
PatLabor's local-search cleanup all need the same move: *reattach a
subtree somewhere cheaper without breaking a delay budget*. This module
implements that move on the parent-array representation, plus a
convergence loop around it.

A reattachment candidate is either an existing node or a Steiner point
projected onto an existing edge (splitting it at zero wirelength cost, see
:mod:`repro.routing.attach`). Candidates inside the moving subtree are
excluded — attaching below yourself creates a cycle.

Candidates are scored for a whole block of moving nodes in one NumPy
pass; the result is bit-identical to scanning one node at a time
(``docs/numerics.md`` §8).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.bbox import BBox, project_onto
from ..geometry.point import Point, l1
from .tree import RoutingTree

Reattachment = Tuple[float, float, int, Optional[int], Point]


def subtree_nodes(tree: RoutingTree, v: int) -> Set[int]:
    """Node indices of the subtree rooted at ``v`` (``v`` included)."""
    ch = tree.children()
    out = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for c in ch[u]:
            out.add(c)
            stack.append(c)
    return out


def _score_rows(
    tree: RoutingTree,
    path_lengths: Sequence[float],
    rows: Sequence[int],
    max_arrival: Optional[float],
    require_cheaper: bool,
) -> List[Tuple[int, Reattachment]]:
    """:func:`best_reattachment` for every node in ``rows`` at once.

    Returns ``(v, candidate)`` for each row that has a candidate, in
    ``rows`` order. One pass builds (rows × candidates) cost and arrival
    matrices with the scan's arithmetic, masks the moving subtree by
    preorder interval, and takes the lexicographic (cost, arrival) first
    minimum over nodes in index order and then edges in child order
    (``docs/numerics.md`` §8).
    """
    pts = tree.points
    parent = tree.parent
    n = len(pts)
    # Preorder: ``u`` is in the subtree of ``v`` iff tin[v] <= tin[u] < tout[v].
    order = tree.topological_order()
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    tin = [0] * n
    for i, u in enumerate(order):
        tin[u] = i
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    up = parent[1:]
    # Candidate columns: node ``u`` as the zero-length edge (u, u), whose
    # projection is ``u`` itself at the node's cost and arrival, then each
    # edge (child, parent) in child order. ``a`` is the child end.
    xa, ya, xb, yb, pl, ta = np.array([
        xs + xs[1:],
        ys + ys[1:],
        xs + [xs[q] for q in up],
        ys + [ys[q] for q in up],
        list(path_lengths) + [path_lengths[q] for q in up],
        tin + tin[1:],
    ], dtype=float)
    vs = list(rows)
    px, py, lo, hi = np.array([
        [xs[v] for v in vs],
        [ys[v] for v in vs],
        [tin[v] for v in vs],
        [tin[v] + size[v] for v in vs],
    ], dtype=float)[:, :, None]

    # The projection only reaches the costs through |.| and ==, so which
    # of two equal zeros min/max/clamp return cannot matter; the winning
    # attach point is recomputed with project_onto.
    qx = np.minimum(np.maximum(px, np.minimum(xa, xb)), np.maximum(xa, xb))
    qy = np.minimum(np.maximum(py, np.minimum(ya, yb)), np.maximum(ya, yb))
    cost = np.abs(px - qx) + np.abs(py - qy)
    arrival = (pl + (np.abs(xb - qx) + np.abs(yb - qy))) + cost
    r = np.arange(len(vs))
    current = cost[r, [parent[v] for v in vs]]  # l1(v, parent(v))
    bad = (lo <= ta) & (ta < hi)
    # The scan skips projections onto an endpoint. One onto the parent end
    # has exactly that node's cost and arrival, and the node's column comes
    # first, so only the child end needs the mask.
    bad[:, n:] |= (qx[:, n:] == xa[n:]) & (qy[:, n:] == ya[n:])
    if max_arrival is not None:
        bad |= arrival > max_arrival + 1e-12
    cost[bad] = np.inf
    best_cost = cost.min(axis=1)
    arrival[cost != best_cost[:, None]] = np.inf
    best_arrival = arrival.min(axis=1)
    pick = (arrival == best_arrival[:, None]).argmax(axis=1)
    found = best_cost < np.inf
    if require_cheaper:
        found &= ~(best_cost >= current - 1e-12)

    out: List[Tuple[int, Reattachment]] = []
    for i in np.flatnonzero(found).tolist():
        v, j = vs[i], int(pick[i])
        c, a = float(best_cost[i]), float(best_arrival[i])
        if j < n:
            out.append((v, (c, a, j, None, pts[j])))
        else:
            child = j - n + 1
            node = parent[child]
            p, q = pts[child], pts[node]
            box = BBox(min(p.x, q.x), min(p.y, q.y), max(p.x, q.x), max(p.y, q.y))
            out.append((v, (c, a, node, child, project_onto(pts[v], box))))
    return out


def best_reattachment(
    tree: RoutingTree,
    v: int,
    path_lengths: List[float],
    max_arrival: Optional[float] = None,
    require_cheaper: bool = True,
) -> Optional[Reattachment]:
    """Cheapest reattachment of node ``v`` (with its subtree).

    Returns ``(cost, arrival, node, split_child, attach_point)`` or
    ``None`` when no candidate qualifies. Candidates are every node
    outside ``v``'s subtree and the projection of ``v`` onto every edge
    outside it (projections onto an endpoint excluded); ties on
    ``(cost, arrival)`` go to the first node in index order, then the
    first edge in child order. ``arrival`` is the
    source→attach-point→v path length; with ``max_arrival`` set, only
    candidates meeting that budget qualify (the shallow-light constraint).
    With ``require_cheaper`` (default), candidates at least as expensive as
    the current parent edge are rejected — pass ``False`` when the caller
    must rewire regardless of cost (e.g. to restore a delay budget).
    """
    moves = _score_rows(tree, path_lengths, [v], max_arrival, require_cheaper)
    return moves[0][1] if moves else None


def apply_reattachment(
    tree: RoutingTree,
    v: int,
    node: int,
    split_child: Optional[int],
    attach_point: Point,
) -> None:
    """Rewire ``v`` under the chosen attachment, splitting an edge if asked."""
    target = node
    if split_child is not None:
        parent = tree.parent[split_child]
        steiner = len(tree.points)
        tree.points.append(attach_point)
        tree.parent.append(parent)
        tree.parent[split_child] = steiner
        target = steiner
    tree.parent[v] = target
    tree._invalidate()


def _sweep(
    work: RoutingTree,
    require_cheaper: bool,
    accept: Callable[[RoutingTree], bool],
) -> bool:
    """One refinement pass over ``work`` in place; ``True`` if a move stuck.

    Each node present at the start of the pass, in index order, is moved
    to its :func:`best_reattachment` tentatively and kept if ``accept``
    approves the changed tree. A rejected move restores the tree, so the
    candidates scored for the later nodes stay valid; only an accepted
    move re-scores the nodes after it.
    """
    improved = False
    start, stop = 1, len(work.points)
    pls = work.path_lengths()
    while start < stop:
        moves = _score_rows(work, pls, range(start, stop), None, require_cheaper)
        start = stop
        for v, (_, _, node, split_child, at) in moves:
            snapshot = (list(work.points), list(work.parent))
            apply_reattachment(work, v, node, split_child, at)
            if accept(work):
                improved = True
                pls = work.path_lengths()
                start = v + 1
                break
            work.points, work.parent = snapshot
            work._invalidate()
    return improved


def refine_passes(
    tree: RoutingTree,
    max_passes: int,
    accept: Callable[[RoutingTree], bool],
    require_cheaper: bool = True,
) -> RoutingTree:
    """Up to ``max_passes`` reattachment sweeps, stopping at a fixed point.

    ``accept`` sees the tree after each tentative move and decides
    whether it stays. Returns a compacted copy; the input is not mutated.
    """
    work = tree.copy()
    for _ in range(max_passes):
        if not _sweep(work, require_cheaper, accept):
            break
    return work.compacted()


def wirelength_refine(
    tree: RoutingTree,
    delay_cap: Optional[float] = None,
    max_passes: int = 4,
) -> RoutingTree:
    """Repeatedly reattach subtrees to shed wirelength.

    With ``delay_cap`` set, a move is kept only if the whole tree's delay
    stays within the cap (moves are applied tentatively and reverted
    otherwise). Terminates after ``max_passes`` sweeps or at a fixed point.
    Returns a compacted copy; the input is not mutated.
    """

    def within_cap(work: RoutingTree) -> bool:
        return delay_cap is None or not work.delay() > delay_cap + 1e-9

    return refine_passes(tree, max_passes, within_cap)


def per_sink_shallow_refine(
    tree: RoutingTree, epsilon: float, max_passes: int = 4
) -> RoutingTree:
    """Shed wirelength while keeping every sink ``(1+epsilon)``-shallow.

    The per-sink budget ``(1+epsilon) * ||r - sink||`` is the SALT
    invariant; moves violating any sink's budget are reverted.
    """
    src = tree.net.source
    budgets = [
        (1.0 + epsilon) * l1(src, s) for s in tree.net.sinks
    ]

    def within_budget(work: RoutingTree) -> bool:
        return all(
            pl <= b + 1e-9 for pl, b in zip(work.sink_delays(), budgets)
        )

    return refine_passes(tree, max_passes, within_budget)
