"""SALT: Steiner shallow-light trees (Chen & Young, TCAD 2020) — baseline.

SALT interpolates between the RSMT (light) and the shortest-path tree
(shallow) with one parameter ``epsilon``: the output guarantees every sink
``v`` a path length of at most ``(1 + epsilon) * ||r - v||_1`` while
keeping total wirelength close to the RSMT's. The construction here
follows the algorithm's structure:

1. seed with the RSMT of the net,
2. walk pins root-outward; any sink whose tree path overshoots its budget
   is rewired to the cheapest attachment that restores the budget
   (the source always qualifies, so the invariant is always satisfiable),
3. post-process with the budget-preserving wirelength refinement passes
   described in the SALT paper (our :func:`per_sink_shallow_refine`).

Sweeping ``epsilon`` yields SALT's Pareto *curve* — this is exactly how
the PatLabor paper evaluates SALT ("we run SALT with different parameters
to obtain Pareto sets").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..geometry.net import Net
from ..geometry.point import l1
from ..routing.arraytree import ArrayTree
from ..routing.refine import _score_rows, per_sink_shallow_refine
from ..routing.tree import RoutingTree
from .rsmt import rsmt

#: Default epsilon sweep for producing SALT's Pareto set. Matches the
#: published usage: a dense range from near-shortest-path (0) to
#: effectively-RSMT (large).
DEFAULT_EPSILONS: Sequence[float] = (
    0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.55, 0.75, 1.0, 1.5, 2.5, 5.0,
)


def salt(
    net: Net,
    epsilon: float,
    seed: Optional[RoutingTree] = None,
    refine: bool = True,
) -> RoutingTree:
    """One SALT tree: ``(1+epsilon)``-shallow, close to light.

    ``seed`` lets callers share one RSMT across a sweep.
    """
    start = seed or rsmt(net)
    live = ArrayTree(list(start.points), list(start.parent))
    src = net.source

    # Process sinks in root-outward order (ancestor rewires first), so a
    # descendant sees its ancestors' corrected path lengths.
    order = sorted(
        range(1, net.degree), key=lambda i: l1(src, net.pins[i])
    )
    for v in order:
        budget = (1.0 + epsilon) * l1(src, live.points[v])
        if live.dist[v] <= budget + 1e-9:
            continue
        # The cheapest attachment within budget, as best_reattachment
        # scores it, without the cost-drop requirement.
        moves = _score_rows(live, live.dist, [v], budget, False)
        if not moves:
            # No feasible candidate: wire straight to the source, which
            # always meets the budget.
            live.reattach(v, 0, None, live.points[0])
        else:
            live.reattach(v, *live.candidate(live.points[v], moves[0][3]))
    tree = live.view(net).compacted()
    if refine:
        tree = per_sink_shallow_refine(tree, epsilon)
    return tree


def salt_sweep(
    net: Net,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    refine: bool = True,
) -> List:
    """SALT's Pareto set: one tree per epsilon, Pareto-filtered.

    Returns solutions ``(w, d, tree)`` as used across the library.
    """
    from ..core.pareto import clean_front

    seed = rsmt(net)
    solutions = []
    for eps in epsilons:
        t = salt(net, eps, seed=seed, refine=refine)
        w, d = t.objective()
        solutions.append((w, d, t))
    # The seed itself anchors the light end of the curve.
    w, d = seed.objective()
    solutions.append((w, d, seed))
    return clean_front(solutions)
