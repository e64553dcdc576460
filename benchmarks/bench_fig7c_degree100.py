"""Fig. 7(c) — randomly generated degree-100 nets.

Paper: 100 uniform-random degree-100 nets; PatLabor ties SALT at the
low-wirelength end and is tighter at high wirelength; YSD's
divide-and-conquer is poor at wirelength minimisation. Scaled to
``NUM_NETS`` nets (pure-Python PatLabor needs seconds per degree-100
net). PatLabor runs the paper's configuration, ``PatLaborConfig()``:
floor(n / lambda) = 11 local-search iterations with SALT-style
post-processing, as Fig. 7(b) does. Required shape: (a) YSD's lightest
tree is heavier than PatLabor's, (b) PatLabor's mean delay is at or
below SALT's at every wirelength budget of the grid.

Timed kernel: one PatLabor route of a degree-100 net.
"""

from repro.core.patlabor import PatLabor, PatLaborConfig
from repro.eval.metrics import average_curves
from repro.eval.reporting import render_curves
from repro.eval.runner import compare_on_nets, fig7_normalizers
from repro.baselines.salt import salt_sweep
from repro.baselines.ysd import ysd

from conftest import write_artifact

NUM_NETS = 4  # paper: 100 — scaled for pure Python


def test_fig7c_degree100(benchmark, suite):
    nets = suite.degree100_nets(count=NUM_NETS)
    router = PatLabor(config=PatLaborConfig())
    methods = {
        "PatLabor": router.route,
        "SALT": lambda n: salt_sweep(n, epsilons=(0.0, 0.1, 0.25, 0.5, 1.0, 2.0)),
        "YSD": lambda n: ysd(n, weights=(0.0, 0.25, 0.5, 0.75, 1.0)),
    }
    comparisons = compare_on_nets(nets, methods, compute_exact=False)
    norm = fig7_normalizers(nets)
    budgets = [1.0 + 0.05 * i for i in range(15)]
    curves = average_curves(
        comparisons, norm.w_refs, norm.d_refs, budgets=budgets
    )
    rendered = render_curves(
        curves, title=f"Fig. 7(c) — {NUM_NETS} random degree-100 nets"
    )
    by_name = {c.method: c for c in curves}
    ratio = by_name["PatLabor"].total_runtime / by_name["SALT"].total_runtime
    write_artifact(
        "fig7c_degree100.txt", f"{rendered} (PatLabor/SALT: {ratio:.2f}x)"
    )

    # Shape (a): YSD's divide-and-conquer wastes wirelength.
    min_w = {
        name: min(
            min(w for w, _, _ in row.methods[name]) / norm.w_refs[row.net_name]
            for row in comparisons
        )
        for name in methods
    }
    assert min_w["PatLabor"] <= min_w["YSD"] + 1e-9
    # Shape (b): PatLabor's mean delay is at or below SALT's at every
    # budget on the grid (the paper's claim).
    for ours, theirs in zip(by_name["PatLabor"].mean_delay, by_name["SALT"].mean_delay):
        assert ours <= theirs + 1e-9

    net = nets[0]
    benchmark.pedantic(lambda: router.route(net), rounds=1, iterations=1)
