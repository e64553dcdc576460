"""Congestion-aware routing: exact tri-objective DW and practical helpers.

Implements the paper's first future-work direction — extending Pareto
optimisation to congestion — on top of the existing machinery:

* :func:`pareto_dw3` — exact (w, d, c) frontier by the Dreyfus–Wagner
  recurrence with 3-D dominance. Congestion is additive over edges, so
  the same extension/merge structure applies; the corner/bounding-box
  pruning lemmas are **not** used because their proofs rely on both
  objectives improving towards the pins, which congestion weights can
  invert. Exact therefore only for small nets (``n <= 6`` by default).
* :func:`embed_min_congestion` — zero-cost win for any tree: pick each
  edge's L orientation to dodge hot cells (w and d are embedding-
  invariant, so this is free).
* :func:`congestion_annotated_front` — the practical path for any degree:
  take PatLabor's (w, d) Pareto set, congestion-optimise each tree's
  embedding, and 3-D-filter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.pareto_dw import _collect_edges
from ..core.patlabor import PatLabor
from ..exceptions import DegreeTooLargeError
from ..geometry.hanan import GridNode, HananGrid
from ..geometry.net import Net
from ..routing.embedding import Segment, embed_edge
from ..routing.tree import RoutingTree
from .model import CapacityGrid
from .pareto3 import Solution3, pareto_filter3

DEFAULT_MAX_DEGREE3 = 6


def pareto_dw3(
    net: Net,
    cmap: CapacityGrid,
    max_degree: int = DEFAULT_MAX_DEGREE3,
) -> List[Solution3]:
    """Exact (wirelength, delay, congestion) Pareto frontier.

    Edge congestion uses the cheaper of the two L embeddings (the final
    tree is embedded accordingly). Runs the unpruned DW recurrence —
    exponential in the sink count, intended for ``net.degree <= 6``.
    """
    n = net.degree
    if n > max_degree:
        raise DegreeTooLargeError(n, max_degree)
    grid = HananGrid.of_net(net)
    pin_nodes = grid.pin_nodes()
    source_node = pin_nodes[0]
    sink_nodes = pin_nodes[1:]
    num_sinks = len(sink_nodes)
    full = (1 << num_sinks) - 1
    nodes = list(grid.nodes())
    dist = grid.dist
    point = grid.point

    cong: Dict[Tuple[GridNode, GridNode], float] = {}

    def ccost(u: GridNode, v: GridNode) -> float:
        key = (u, v)
        c = cong.get(key)
        if c is None:
            c = cmap.best_edge_cost(point(u), point(v))[0]
            cong[key] = c
            cong[(v, u)] = c
        return c

    S: List[Optional[Dict[GridNode, List[Solution3]]]] = [None] * (full + 1)

    def closure(merged: Dict[GridNode, List[Solution3]]) -> Dict[GridNode, List[Solution3]]:
        out: Dict[GridNode, List[Solution3]] = {}
        sources = [(u, lst) for u, lst in merged.items() if lst]
        for v in nodes:
            bucket: List[Solution3] = []
            for u, lst in sources:
                if u == v:
                    bucket.extend(lst)
                else:
                    duv = dist(u, v)
                    cuv = ccost(u, v)
                    for w, d, c, p in lst:
                        bucket.append(
                            (w + duv, d + duv, c + cuv, ("ext", u, v, p))
                        )
            out[v] = pareto_filter3(bucket)
        return out

    for si, s_node in enumerate(sink_nodes):
        S[1 << si] = closure({s_node: [(0.0, 0.0, 0.0, ("leaf", s_node))]})

    masks_by_size: List[List[int]] = [[] for _ in range(num_sinks + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, num_sinks + 1):
        for mask in masks_by_size[size]:
            bits = [i for i in range(num_sinks) if mask >> i & 1]
            low = 1 << bits[0]
            rest = mask & ~low
            merged: Dict[GridNode, List[Solution3]] = {}
            for v in nodes:
                bucket: List[Solution3] = []
                sub = rest
                while True:
                    q1 = sub | low
                    if q1 != mask:
                        q2 = mask ^ q1
                        s1 = S[q1].get(v) if S[q1] else None
                        s2 = S[q2].get(v) if S[q2] else None
                        if s1 and s2:
                            for w1, d1, c1, p1 in s1:
                                for w2, d2, c2, p2 in s2:
                                    bucket.append(
                                        (
                                            w1 + w2,
                                            max(d1, d2),
                                            c1 + c2,
                                            ("merge", p1, p2),
                                        )
                                    )
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest
                if bucket:
                    merged[v] = pareto_filter3(bucket)
            S[mask] = closure(merged)

    result = S[full][source_node] if S[full] else []
    final: List[Solution3] = []
    for w, d, c, payload in result:
        edges: Set[Tuple[GridNode, GridNode]] = set()
        _collect_edges(payload, edges)
        pt_edges = [(point(a), point(b)) for a, b in edges]
        if not pt_edges:
            pt_edges = [(net.source, s) for s in net.sinks]
        referenced = [p for e in pt_edges for p in e]
        tree = RoutingTree.from_edges(net, pt_edges, extra_points=referenced)
        tw, td = tree.objective()
        tc = cmap.tree_cost(tree)
        final.append((min(w, tw), min(d, td), min(c, tc), tree))
    return pareto_filter3(final)


def embed_min_congestion(
    tree: RoutingTree, cmap: CapacityGrid
) -> Tuple[List[Segment], float]:
    """Per-edge L-orientation choice minimising total congestion.

    Returns the chosen segments and their total congestion cost. This is
    free quality: wirelength and delay do not depend on the choice.
    """
    segments: List[Segment] = []
    total = 0.0
    for child, parent in tree.edges():
        a, b = tree.points[parent], tree.points[child]
        cost, lower = cmap.best_edge_cost(a, b)
        segments.extend(embed_edge(a, b, lower_l=lower))
        total += cost
    return segments, total


def congestion_annotated_front(
    net: Net,
    cmap: CapacityGrid,
    router: Optional[PatLabor] = None,
) -> List[Solution3]:
    """Practical tri-objective front for any degree.

    Routes the (w, d) Pareto set with PatLabor, congestion-optimises each
    tree's embedding, and filters in 3-D. Exact in (w, d); congestion is
    a post-optimised annotation (the exact tri-objective frontier can
    contain additional trees — see :func:`pareto_dw3` for small nets).
    """
    router = router or PatLabor()
    front2 = router.route(net)
    out: List[Solution3] = []
    for w, d, tree in front2:
        _, cost = embed_min_congestion(tree, cmap)
        out.append((w, d, cost, tree))
    return pareto_filter3(out)
