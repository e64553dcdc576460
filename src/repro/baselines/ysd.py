"""YSD-substitute: learned weighted-sum routing, modelled as a greedy
weighted constructor (convex-curve method).

Yang, Sun & Ding (ICCAD 2023) train a neural network that, for each
weighted-sum parameter ``alpha``, predicts a routing topology minimising
``alpha * w + (1 - alpha) * d``; large nets use a divide-and-conquer
framework. The released code is incomplete (the PatLabor paper notes it
reimplemented parts) and no GPU stack exists offline, so this module
substitutes a stand-in that preserves both behaviours the paper measures:

* every output minimises a **linear scalarisation**, so the method can
  only reach points on the convex hull of the Pareto frontier — the
  structural weakness Fig. 7 highlights;
* the per-alpha minimisation is **approximate** (a greedy blended-key
  construction plus weighted refinement stands in for the trained
  predictor, which is likewise an imperfect optimiser), so the method
  misses frontier points on harder small nets — the behaviour behind
  Table III's non-zero non-optimality ratios.

Large nets use the same divide-and-conquer framework as the original
(median splits, one best-weighted tree per sub-problem), which inherits
YSD's documented weakness for wirelength minimisation on degree-100 nets.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.pareto import Solution, clean_front
from ..geometry.net import Net
from ..geometry.point import Point, l1
from ..routing.arraytree import ArrayTree
from ..routing.attach import attach_cheapest, best_connection
from ..routing.refine import refine_passes
from ..routing.tree import RoutingTree

DEFAULT_WEIGHTS: Sequence[float] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Above this degree the divide-and-conquer framework takes over.
SMALL_DEGREE_LIMIT = 9


def _scales(net: Net) -> Tuple[float, float]:
    return (max(net.star_wirelength(), 1e-9), max(net.delay_lower_bound(), 1e-9))


def weighted_objective(
    w: float, d: float, alpha: float, scales: Tuple[float, float]
) -> float:
    """The scalarised cost ``alpha*w/ws + (1-alpha)*d/ds``."""
    return alpha * w / scales[0] + (1.0 - alpha) * d / scales[1]


def weighted_construct(net: Net, alpha: float, scales: Tuple[float, float]) -> RoutingTree:
    """Greedy blended-key Steiner growth for one scalarisation.

    At each step the remaining sink with the cheapest blended attachment
    (``alpha``-weighted wirelength increment + ``(1-alpha)``-weighted
    arrival time) is attached at its best Steiner connection. This is the
    stand-in for YSD's neural topology predictor.
    """
    tree = ArrayTree([net.source], [-1])
    pending = dict(enumerate(net.sinks))

    def blended(i: int) -> float:
        cost, node, split_child, at = best_connection(tree, pending[i])
        if split_child is not None:
            # Arrival through the split edge's parent side.
            parent = tree.parent[split_child]
            base = tree.dist[parent] + l1(tree.points[parent], at)
        else:
            base = tree.dist[node]
        arrival = base + cost
        return alpha * cost / scales[0] + (1.0 - alpha) * arrival / scales[1]

    while pending:
        attach_cheapest(tree, pending.pop(min(pending, key=blended)))
    return tree.finish(net)


def weighted_refine(
    tree: RoutingTree, alpha: float, scales: Tuple[float, float],
    max_passes: int = 3,
) -> RoutingTree:
    """Hill-climb reattachments on the scalarised objective."""
    current = weighted_objective(*tree.objective(), alpha, scales)

    def improves(work: RoutingTree) -> bool:
        nonlocal current
        new = weighted_objective(*work.objective(), alpha, scales)
        if new < current - 1e-12:
            current = new
            return True
        return False

    return refine_passes(tree, max_passes, improves, require_cheaper=False)


def ysd_single(net: Net, alpha: float) -> RoutingTree:
    """One YSD-substitute tree for one scalarisation weight."""
    scales = _scales(net)
    if net.degree <= SMALL_DEGREE_LIMIT:
        tree = weighted_construct(net, alpha, scales)
        return weighted_refine(tree, alpha, scales)
    edges = _dc_edges(list(net.pins), net.source, alpha, 0)
    tree = RoutingTree.from_edges(net, edges)
    return weighted_refine(tree, alpha, scales, max_passes=1)


def _dc_edges(
    points: List[Point], source: Point, alpha: float, axis: int
) -> List[Tuple[Point, Point]]:
    """Divide-and-conquer: one best-weighted tree's edges per subset."""
    root_idx = min(range(len(points)), key=lambda i: l1(points[i], source))
    sub = Net.from_points(
        points[root_idx], [p for i, p in enumerate(points) if i != root_idx]
    )
    if len(points) <= SMALL_DEGREE_LIMIT:
        scales = _scales(sub)
        t = weighted_refine(weighted_construct(sub, alpha, scales), alpha, scales)
        return [
            (t.points[i], t.points[p])
            for i, p in t.edges()
            if t.points[i] != t.points[p]
        ]
    ordered = sorted(points, key=lambda p: (p[axis], p[1 - axis]))
    k = len(ordered) // 2
    return _dc_edges(ordered[: k + 1], source, alpha, 1 - axis) + _dc_edges(
        ordered[k:], source, alpha, 1 - axis
    )


def ysd(net: Net, weights: Sequence[float] = DEFAULT_WEIGHTS) -> List[Solution]:
    """The YSD-substitute's Pareto set for ``net``.

    One tree per scalarisation weight, Pareto-filtered. Only convex-hull
    frontier points are reachable even in the best case.
    """
    solutions: List[Solution] = []
    for alpha in weights:
        t = ysd_single(net, alpha)
        w, d = t.objective()
        solutions.append((w, d, t))
    return clean_front(solutions)
