"""Classic single-objective Dreyfus–Wagner on the Hanan grid.

Computes an exact rectilinear Steiner *minimum* tree (RSMT) for small pin
sets. This is the exact oracle behind the FLUTE-substitute RSMT engine and
the wirelength normaliser ``w(FLUTE)`` of the paper's Figure 7. The DP
keeps one cost row per terminal subset over the non-corner Hanan nodes
(Lemma 2 pruning) and int backpointer arrays; its minimum wirelength
equals the light end of Pareto-DW's front, which the tests cross-check.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from ..exceptions import DegreeTooLargeError
from ..geometry.hanan import GridNode, HananGrid
from ..geometry.net import Net
from ..routing.tree import RoutingTree

DEFAULT_MAX_TERMINALS = 10


def steiner_min_tree(net: Net, max_terminals: int = DEFAULT_MAX_TERMINALS) -> RoutingTree:
    """Exact RSMT spanning all pins of ``net`` (root = source).

    Raises :class:`DegreeTooLargeError` above ``max_terminals`` pins; use
    :func:`repro.baselines.rsmt.rsmt` for larger nets.
    """
    n = net.degree
    if n > max_terminals:
        raise DegreeTooLargeError(n, max_terminals)

    grid = HananGrid.of_net(net)
    pin_nodes = grid.pin_nodes()
    terms = pin_nodes[1:]
    k = len(terms)
    full = (1 << k) - 1
    corner = set(grid.corner_nodes())
    nodes = [v for v in grid.nodes() if v not in corner]
    col = {v: i for i, v in enumerate(nodes)}
    flat = [grid.flat_index(v) for v in nodes]
    dist = grid.distance_array()[np.ix_(flat, flat)]
    node_ix = np.array([v[0] for v in nodes])
    node_iy = np.array([v[1] for v in nodes])
    term_ix = np.array([t[0] for t in terms])
    term_iy = np.array([t[1] for t in terms])
    m = len(nodes)

    # cost[mask, v]: cheapest tree joining the terminals in ``mask`` and
    # node ``v`` (+inf where none). The tree closes from node
    # ``source[mask, v]`` (``v`` itself: no edge), whose merged tree joins
    # sub-masks ``split[mask, u]`` and ``mask ^ split[mask, u]``. Masks of
    # one size depend only on smaller ones, so each size is one batch.
    cost = np.full((full + 1, m), np.inf)
    source = np.zeros((full + 1, m), dtype=np.intp)
    split = np.zeros((full + 1, m), dtype=np.intp)

    def close(masks: np.ndarray, merged: np.ndarray) -> None:
        # argmin keeps the first minimum over source nodes in index order;
        # at the node itself ``c + dist(v, v)`` is ``c + 0.0 == c``.
        total = merged[:, :, None] + dist
        source[masks] = total.argmin(axis=1)
        cost[masks] = total.min(axis=1)

    leaves = np.full((k, m), np.inf)
    leaves[np.arange(k), [col[t] for t in terms]] = 0.0
    close(1 << np.arange(k), leaves)

    masks_by_size: List[List[int]] = [[] for _ in range(k + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, k + 1):
        masks = np.array(masks_by_size[size], dtype=np.intp)
        # Sub-mask pairs (q1 holds the lowest terminal) in ``(sub - 1) &
        # rest`` order, so argmin breaks ties as the dict DP in the tests
        # does; every mask of one size has as many pairs.
        firsts = []
        for mask in masks_by_size[size]:
            low = mask & -mask
            rest = mask ^ low
            sub = (rest - 1) & rest
            row = [low | sub]
            while sub:
                sub = (sub - 1) & rest
                row.append(low | sub)
            firsts.append(row)
        q1 = np.array(firsts, dtype=np.intp)
        total = cost[q1] + cost[masks[:, None] ^ q1]  # (masks, pairs, nodes)
        best = total.argmin(axis=1)
        merged = total.min(axis=1)
        # Only nodes inside the bounding box of the mask's terminals merge.
        bits = (masks[:, None] >> np.arange(k)) & 1 == 1
        lo_x = np.where(bits, term_ix, np.iinfo(np.intp).max).min(axis=1)
        hi_x = np.where(bits, term_ix, -1).max(axis=1)
        lo_y = np.where(bits, term_iy, np.iinfo(np.intp).max).min(axis=1)
        hi_y = np.where(bits, term_iy, -1).max(axis=1)
        in_box = (
            (lo_x[:, None] <= node_ix) & (node_ix <= hi_x[:, None])
            & (lo_y[:, None] <= node_iy) & (node_iy <= hi_y[:, None])
        )
        merged[~in_box] = np.inf
        split[masks] = q1[np.arange(len(masks))[:, None], best]
        close(masks, merged)

    node_edges = _tree_edges(nodes, source, split, full, col[pin_nodes[0]])
    pt = grid.point
    edges = [(pt(a), pt(b)) for a, b in node_edges]
    if not edges:
        edges = [(net.source, s) for s in net.sinks]
    referenced = {p for e in edges for p in e}
    tree = RoutingTree.from_edges(net, edges, extra_points=list(referenced))
    return tree


def _tree_edges(
    nodes: List[GridNode],
    source: np.ndarray,
    split: np.ndarray,
    full: int,
    root: int,
) -> Set[Tuple[GridNode, GridNode]]:
    """Grid edges of the optimal tree for ``full`` at node ``root``.

    Walks the backpointers depth-first, second sub-mask first. Set
    iteration order, and with it the tree's node order, depends on the
    insertion order, which this walk keeps fixed (``docs/numerics.md`` §8).
    """
    source_of = source.tolist()
    split_of = split.tolist()
    out: Set[Tuple[GridNode, GridNode]] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        u = source_of[mask][v]
        if u != v:
            out.add((nodes[u], nodes[v]))
        if mask & (mask - 1):  # not a single terminal
            q1 = split_of[mask][u]
            stack.append((q1, u))
            stack.append((mask ^ q1, u))
    return out


def rsmt_cost(net: Net, max_terminals: int = DEFAULT_MAX_TERMINALS) -> float:
    """Exact RSMT wirelength of a small net."""
    return steiner_min_tree(net, max_terminals=max_terminals).wirelength()
