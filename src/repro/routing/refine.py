"""Delay-aware tree refinement passes.

SALT's post-processing, PD-II's detour-aware Steinerisation, and
PatLabor's local-search cleanup all need the same move: *reattach a
subtree somewhere cheaper without breaking a delay budget*. This module
scores that move, makes it on an
:class:`~repro.routing.arraytree.ArrayTree` (``reattach``), and runs a
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

from ..geometry.point import Point, l1
from .arraytree import ArrayTree, lexmin_rows
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
    tree: ArrayTree,
    path_lengths: Sequence[float],
    rows: Sequence[int],
    max_arrival: Optional[float],
    require_cheaper: bool,
) -> List[Tuple[int, float, float, int]]:
    """:func:`best_reattachment` for every node in ``rows`` at once.

    Returns ``(v, cost, arrival, column)`` for each row that has a
    candidate, in ``rows`` order; :meth:`ArrayTree.candidate` turns the
    column into the attachment. One
    :func:`~repro.routing.arraytree.lexmin_rows` pass scores the rows
    against every node and edge, masks each row's own subtree by its
    preorder interval and takes the lexicographic (cost, arrival) first
    minimum (``docs/numerics.md`` §8).
    """
    vs = np.asarray(rows, dtype=np.intp)
    px = tree.x[vs][:, None]
    py = tree.y[vs][:, None]
    lo = np.array(tree.tin)[vs][:, None]
    hi = lo + np.array(tree.size)[vs][:, None]
    cutoff = None
    if require_cheaper:
        up = tree.par[vs]
        # l1(v, parent(v)), as the parent's node column scores it.
        current = np.abs(px[:, 0] - tree.x[up]) + np.abs(py[:, 0] - tree.y[up])
        cutoff = current - 1e-12
    i, cost, arrival, column = lexmin_rows(
        tree, px, py, path_lengths, (lo, hi),
        None if max_arrival is None else max_arrival + 1e-12, cutoff,
    )
    return list(zip(vs[i].tolist(), cost.tolist(), arrival.tolist(), column.tolist()))


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
    live = ArrayTree(tree.points, tree.parent)
    moves = _score_rows(live, path_lengths, [v], max_arrival, require_cheaper)
    if not moves:
        return None
    _, cost, arrival, column = moves[0]
    return (cost, arrival, *live.candidate(tree.points[v], column))


def _sweep(
    live: ArrayTree,
    view: RoutingTree,
    require_cheaper: bool,
    accept: Callable[[RoutingTree], bool],
) -> bool:
    """One refinement pass over ``live`` in place; ``True`` if a move stuck.

    Each node present at the start of the pass, in index order, is moved
    to its :func:`best_reattachment` tentatively and kept if ``accept``
    approves ``view``, the changed tree. A rejected move is undone, so
    the tree is the same before and after it: scoring a node before or
    after the rejected moves ahead of it gives the same candidate. Only
    an accepted move changes the tree, and the nodes after it are scored
    against the new one. Nodes are therefore scored in blocks that start
    at ``_BLOCK`` rows and double while no move sticks, so an accepted
    move discards little scoring.
    """
    improved = False
    start, stop = 1, len(live)
    block = _BLOCK
    while start < stop:
        end = min(stop, start + block)
        moves = _score_rows(live, live.dist, range(start, end), None, require_cheaper)
        start, block = end, 2 * block
        for v, _, _, column in moves:
            move = live.reattach(v, *live.candidate(live.points[v], column))
            view._invalidate()
            if accept(view):
                improved = True
                start, block = v + 1, _BLOCK
                break
            live.undo(move)
            view._invalidate()
    return improved


#: Rows :func:`_sweep` scores first after the start of a pass or an
#: accepted move.
_BLOCK = 16


def refine_passes(
    tree: RoutingTree,
    max_passes: int,
    accept: Callable[[RoutingTree], bool],
    require_cheaper: bool = True,
) -> RoutingTree:
    """Up to ``max_passes`` reattachment sweeps, stopping at a fixed point.

    ``accept`` sees the tree after each tentative move and decides
    whether it stays. The tree it sees reads its arrivals
    (``path_lengths``, ``delay``, ``sink_delays``) from the maintained
    :class:`~repro.routing.arraytree.ArrayTree`. Returns a compacted
    copy; the input is not mutated.
    """
    live = ArrayTree(list(tree.points), list(tree.parent))
    view = live.view(tree.net)
    for _ in range(max_passes):
        if not _sweep(live, view, require_cheaper, accept):
            break
    return view.compacted()


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
