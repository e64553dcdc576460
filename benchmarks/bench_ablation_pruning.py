"""Ablation A1 — Pareto-DW pruning lemmas (2, 3, 4) on/off.

DESIGN.md calls out the three pruning lemmas as the reason Pareto-DW is
practical. Measures DP work counters and wall time per configuration on
the same nets; all configurations must return identical frontiers
(exactness is pruning-independent). Every counter column is a sum over
the 4 nets.

The lemma rows run the array engine unbounded, so they measure the
paper's lemmas alone; ``pareto_dw`` itself also bounds the DP by two
incumbent trees, which the last row ("all on + incumbent bound") adds
on top of every lemma.

Timed kernels: full DW with all pruning vs none (two benchmark rounds via
pedantic manual timing; the pytest-benchmark fixture times the pruned
variant).
"""

import random
import time

from repro.core.pareto_dw import DWStats, _pareto_dw_on, pareto_frontier
from repro.eval.reporting import format_table
from repro.geometry.net import random_net

from conftest import write_artifact

CONFIGS = [
    ("all on", dict(lemma2=True, lemma3=True, lemma4=True)),
    ("no L2", dict(lemma2=False, lemma3=True, lemma4=True)),
    ("no L3", dict(lemma2=True, lemma3=False, lemma4=True)),
    ("no L4", dict(lemma2=True, lemma3=True, lemma4=False)),
    ("all off", dict(lemma2=False, lemma3=False, lemma4=False)),
]

#: The row of the default solve: every lemma plus the incumbent bound.
BOUNDED = "all on + incumbent bound"


def unbounded_frontier(net, **kwargs):
    """``pareto_frontier`` on the array engine without the incumbent bound."""
    front = _pareto_dw_on(net, "array", with_trees=False, **kwargs)
    return [(w, d) for w, d, _ in front]


def test_ablation_pruning(benchmark):
    rng = random.Random(12)
    nets = [random_net(7, rng=rng) for _ in range(4)]

    reference = [pareto_frontier(n) for n in nets]
    rows = []
    timings = {}
    for name, flags in CONFIGS + [(BOUNDED, {})]:
        solve = pareto_frontier if name == BOUNDED else unbounded_frontier
        stats = DWStats()
        # A solve sets ``grid_nodes`` to its own net's count while the
        # other counters accumulate, so sum it per net like them.
        grid_nodes = 0
        fronts = []
        t0 = time.perf_counter()
        for n in nets:
            fronts.append(solve(n, stats=stats, **flags))
            grid_nodes += stats.grid_nodes
        elapsed = time.perf_counter() - t0
        timings[name] = elapsed
        for got, want in zip(fronts, reference):
            assert len(got) == len(want)
            for (gw, gd), (ww, wd) in zip(got, want):
                assert abs(gw - ww) < 1e-6 and abs(gd - wd) < 1e-6
        rows.append(
            [
                name,
                grid_nodes,
                stats.merge_transitions,
                stats.closure_extensions,
                f"{elapsed:.2f}s",
            ]
        )
    table = format_table(
        ["config", "grid nodes (sum)", "merge transitions", "closure ext", "time (4 nets)"],
        rows,
        title="Ablation — Pareto-DW pruning lemmas (degree-7 nets)",
    )
    write_artifact("ablation_pruning.txt", table)

    # Pruning must pay: full pruning beats no pruning clearly.
    assert timings["all on"] < timings["all off"]
    assert rows[-1][2] < rows[0][2]  # the bound cuts merge transitions

    net = nets[0]
    benchmark(lambda: pareto_frontier(net))
