#!/usr/bin/env python3
"""Congestion-aware Pareto routing (the paper's future-work metric).

Run:  python examples/congestion_aware_routing.py

Walks the congestion extension end to end:

1. build a congestion grid with a hot region (an over-demanded g-cell area),
2. compute the exact tri-objective (wirelength, delay, congestion)
   frontier of a small net crossing the hot region,
3. show the free win on any tree: per-edge L-shape selection that dodges
   hot cells without touching wirelength or delay,
4. annotate a large net's PatLabor front with optimised congestion.
"""

import random

from repro import Net, PatLabor, random_net
from repro.baselines.rsmt import rsmt
from repro.congestion import (
    CapacityGrid,
    congestion_annotated_front,
    embed_min_congestion,
    pareto_dw3,
)


def main() -> None:
    # A 10x10 g-cell grid over [0,100]^2 with a hot center (weight 12).
    # The base weights are complete before the grid is built: its price
    # cache does not watch in-place edits of ``base``.
    base = [[12.0 if 3 <= ix < 7 and 3 <= iy < 7 else 1.0 for iy in range(10)]
            for ix in range(10)]
    grid = CapacityGrid(0, 0, 10.0, base)

    # ---- exact tri-objective frontier -----------------------------------
    net = Net.from_points(
        (5, 50), [(95, 55), (55, 95), (90, 10)], name="hot_crossing"
    )
    front3 = pareto_dw3(net, grid)
    print(f"exact (w, d, congestion) frontier of {net.name!r}:")
    for w, d, c, _tree in front3:
        print(f"  w = {w:6.1f}   d = {d:6.1f}   congestion = {c:7.1f}")
    print(
        "note the third axis: some trees pay wire or delay to route around "
        "the hot center.\n"
    )

    # ---- free congestion win from embedding choice ----------------------
    big = random_net(20, rng=random.Random(3), span=100.0)
    tree = rsmt(big)
    fixed_cost = sum(
        grid.edge_cost(tree.points[p], tree.points[c])
        for c, p in tree.edges()
    )
    _, best_cost = embed_min_congestion(tree, grid)
    print(
        f"degree-20 RSMT: fixed lower-L embedding congestion = {fixed_cost:.1f}, "
        f"per-edge optimised = {best_cost:.1f} "
        f"({(1 - best_cost / fixed_cost) * 100:.1f}% saved for free)"
    )

    # ---- practical path for any degree -----------------------------------
    front = congestion_annotated_front(big, grid, router=PatLabor())
    print(f"\nPatLabor front of the degree-20 net, congestion-annotated:")
    for w, d, c, _tree in front:
        print(f"  w = {w:7.1f}   d = {d:7.1f}   congestion = {c:8.1f}")
    print(
        "\na global router can now trade all three objectives per net — the "
        "integration the paper's conclusion sketches."
    )


if __name__ == "__main__":
    main()
