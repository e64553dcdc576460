"""Extension experiment — congestion as a third objective (paper §VII).

Quantifies what the tri-objective extension buys on hot-spot maps:

* the exact 3-D frontier is at least as large as the 2-D one (extra
  congestion-driven trade-off trees appear),
* per-edge embedding choice alone cuts congestion measurably at zero
  wirelength/delay cost,
* the 2-D Pareto set's best congestion (after embedding optimisation)
  is within a bounded factor of the true 3-D optimum on small nets.

Timed kernel: one exact tri-objective DW solve (degree 5).
"""

import random

from repro.congestion import (
    CapacityGrid,
    congestion_annotated_front,
    embed_min_congestion,
    pareto_dw3,
)
from repro.core.pareto_dw import pareto_dw
from repro.baselines.rsmt import rsmt
from repro.eval.reporting import format_table
from repro.geometry.net import random_net

from conftest import write_artifact

NUM_NETS = 5


def test_ext_congestion(benchmark):
    rng = random.Random(17)
    rows = []
    extra_trees_total = 0
    emb_savings = []
    gap_ratios = []
    for i in range(NUM_NETS):
        net = random_net(5, rng=rng, span=100.0)
        grid = CapacityGrid.random_hotspots(
            0, 0, 100, 10, hotspots=3, hot_weight=10.0,
            rng=random.Random(100 + i),
        )
        front2 = pareto_dw(net)
        front3 = pareto_dw3(net, grid)
        extra = len(front3) - len(front2)
        extra_trees_total += max(0, extra)

        # Embedding-only savings on the RSMT.
        tree = rsmt(net)
        fixed = sum(
            grid.edge_cost(tree.points[p], tree.points[c])
            for c, p in tree.edges()
        )
        _, best = embed_min_congestion(tree, grid)
        saving = 1.0 - best / fixed if fixed > 0 else 0.0
        emb_savings.append(saving)

        # How close the annotated 2-D set gets to the 3-D optimum.
        annotated = congestion_annotated_front(net, grid)
        best_2d = min(c for _w, _d, c, _t in annotated)
        best_3d = min(c for _w, _d, c, _t in front3)
        ratio = best_2d / best_3d if best_3d > 0 else 1.0
        gap_ratios.append(ratio)

        rows.append(
            [
                i,
                len(front2),
                len(front3),
                f"{saving * 100:.1f}%",
                f"{ratio:.3f}",
            ]
        )

    table = format_table(
        ["net", "|front 2D|", "|front 3D|", "embed saving", "2D/3D best-congestion"],
        rows,
        title=(
            "Extension — congestion objective on hot-spot maps "
            f"({NUM_NETS} degree-5 nets)"
        ),
    )
    write_artifact("ext_congestion.txt", table)

    # Shape: the third objective exposes new trade-off trees somewhere...
    assert extra_trees_total >= 1
    # ...embedding choice never hurts...
    assert all(s >= -1e-9 for s in emb_savings)
    # ...and the 2-D set is a decent but not perfect congestion proxy.
    assert all(r >= 1.0 - 1e-9 for r in gap_ratios)

    net = random_net(5, rng=random.Random(999), span=100.0)
    grid = CapacityGrid.random_hotspots(0, 0, 100, 10, rng=random.Random(1))
    benchmark(lambda: pareto_dw3(net, grid))
