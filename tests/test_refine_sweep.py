"""Batched subtree reattachment against the per-node scan oracle.

The oracle is ``best_reattachment`` and the three refine loops as they
ran before the NumPy kernel: a Python scan over every node (index
order) and then every edge (child order) outside the moving subtree,
keeping the lexicographic ``(cost, arrival)`` first minimum, and one
scan per node per pass. The oracles rewire a plain ``RoutingTree`` with
``apply_reattachment``. Trees must match them exactly: same points
(``repr``, so signed zeros count) and the same parent array.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.rsmt import rsmt
from repro.baselines.salt import salt
from repro.baselines.ysd import _scales, weighted_objective, weighted_refine
from repro.geometry.bbox import BBox, project_onto
from repro.geometry.net import Net, random_net
from repro.geometry.point import Point, l1
from repro.routing.attach import grow_from_source
from repro.routing.refine import (
    best_reattachment,
    per_sink_shallow_refine,
    subtree_nodes,
    wirelength_refine,
)
from repro.routing.tree import RoutingTree

# --------------------------------------------------------------- oracle


def apply_reattachment(tree, v, node, split_child, attach_point):
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


def oracle_best_reattachment(
    tree, v, path_lengths, max_arrival=None, require_cheaper=True
):
    """The per-node scan: ``(cost, arrival, node, split_child, at)``."""
    forbidden = subtree_nodes(tree, v)
    pv = tree.points[v]
    current_cost = tree.edge_length(v)
    best = None

    def consider(cost, arrival, node, split_child, at):
        nonlocal best
        if max_arrival is not None and arrival > max_arrival + 1e-12:
            return
        if best is None or (cost, arrival) < (best[0], best[1]):
            best = (cost, arrival, node, split_child, at)

    for u, pu in enumerate(tree.points):
        if u in forbidden:
            continue
        cost = l1(pu, pv)
        consider(cost, path_lengths[u] + cost, u, None, pu)

    for child, parent in tree.edges():
        if child in forbidden or parent in forbidden:
            continue
        a, b = tree.points[child], tree.points[parent]
        box = BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
        q = project_onto(pv, box)
        cost = l1(pv, q)
        arrival = path_lengths[parent] + l1(tree.points[parent], q) + cost
        if q != a and q != b:
            consider(cost, arrival, parent, child, q)

    if best is None:
        return None
    if require_cheaper and best[0] >= current_cost - 1e-12:
        return None
    return best


def oracle_passes(tree, max_passes, accept, require_cheaper=True):
    """One scan per node per pass; ``accept(work)`` keeps or reverts."""
    work = tree.copy()
    for _ in range(max_passes):
        improved = False
        pls = work.path_lengths()
        for v in range(1, len(work.points)):
            cand = oracle_best_reattachment(
                work, v, pls, require_cheaper=require_cheaper
            )
            if cand is None:
                continue
            _, _, node, split_child, at = cand
            snapshot = (list(work.points), list(work.parent))
            apply_reattachment(work, v, node, split_child, at)
            if not accept(work):
                work.points, work.parent = snapshot
                work._invalidate()
                continue
            improved = True
            pls = work.path_lengths()
        if not improved:
            break
    return work.compacted()


def oracle_wirelength_refine(tree, delay_cap=None, max_passes=4):
    return oracle_passes(
        tree,
        max_passes,
        lambda w: delay_cap is None or not w.delay() > delay_cap + 1e-9,
    )


def oracle_per_sink_shallow_refine(tree, epsilon, max_passes=4):
    src = tree.net.source
    budgets = [(1.0 + epsilon) * l1(src, s) for s in tree.net.sinks]
    return oracle_passes(
        tree,
        max_passes,
        lambda w: all(pl <= b + 1e-9 for pl, b in zip(w.sink_delays(), budgets)),
    )


def oracle_weighted_refine(tree, alpha, scales, max_passes=3):
    work = tree.copy()
    for _ in range(max_passes):
        improved = False
        pls = work.path_lengths()
        current = weighted_objective(*work.objective(), alpha, scales)
        for v in range(1, len(work.points)):
            cand = oracle_best_reattachment(work, v, pls, require_cheaper=False)
            if cand is None:
                continue
            _, _, node, split_child, at = cand
            snapshot = (list(work.points), list(work.parent))
            apply_reattachment(work, v, node, split_child, at)
            new = weighted_objective(*work.objective(), alpha, scales)
            if new < current - 1e-12:
                current = new
                improved = True
                pls = work.path_lengths()
            else:
                work.points, work.parent = snapshot
                work._invalidate()
        if not improved:
            break
    return work.compacted()


def oracle_salt(net, epsilon, seed):
    tree = seed.copy()
    src = net.source
    order = sorted(range(1, net.degree), key=lambda i: l1(src, net.pins[i]))
    for v in order:
        budget = (1.0 + epsilon) * l1(src, tree.points[v])
        pls = tree.path_lengths()
        if pls[v] <= budget + 1e-9:
            continue
        cand = oracle_best_reattachment(
            tree, v, pls, max_arrival=budget, require_cheaper=False
        )
        if cand is None:
            apply_reattachment(tree, v, 0, None, tree.points[0])
        else:
            _, _, node, split_child, at = cand
            apply_reattachment(tree, v, node, split_child, at)
    return oracle_per_sink_shallow_refine(tree.compacted(), epsilon)


def shape(tree):
    return repr(list(tree.points)), list(tree.parent)


# ----------------------------------------------------------- strategies

# A small coordinate set makes collinear pins, repeated coordinates, exact
# cost ties and signed zeros routine rather than rare.
coords = st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.0, 3.0, 4.5, 6.0, 10.0])

prop = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def nets(draw, min_degree=2, max_degree=12, values=coords):
    n = draw(st.integers(min_degree, max_degree))
    pins = draw(
        st.lists(st.tuples(values, values), min_size=n, max_size=n, unique=True)
    )
    return Net.from_points(pins[0], pins[1:])


@st.composite
def trees(draw, max_degree=12, extra=6, values=coords):
    """A random tree on a random net, Steiner nodes and duplicates allowed."""
    net = draw(nets(max_degree=max_degree, values=values))
    points = list(net.pins) + [
        Point(*p) for p in draw(st.lists(st.tuples(values, values), max_size=extra))
    ]
    # Attach the nodes in a random order under an already placed node.
    order = [0] + draw(st.permutations(list(range(1, len(points)))))
    parent = [-1] * len(points)
    for k in range(1, len(order)):
        parent[order[k]] = order[draw(st.integers(0, k - 1))]
    return RoutingTree(net, points, parent)


@st.composite
def grown_trees(draw, max_degree=14):
    """``grow_from_source`` trees with a shuffled attach order."""
    net = draw(nets(min_degree=3, max_degree=max_degree))
    order = draw(st.permutations(list(range(len(net.sinks)))))
    return grow_from_source(net, order=order)


any_tree = st.one_of(trees(), grown_trees())
# Inexact sums: a change in summation order shows in the arrival bits.
real_tree = trees(values=st.floats(-1000.0, 1000.0, allow_nan=False, width=32))

# ---------------------------------------------------------------- tests


class TestBestReattachment:
    @prop
    @given(st.one_of(any_tree, real_tree), st.data())
    def test_matches_scan(self, tree, data):
        pls = tree.path_lengths()
        if data.draw(st.booleans()):
            # Arbitrary arrivals: edge projections onto an endpoint no
            # longer tie with the endpoint node, so the skip shows.
            arrivals = st.sampled_from([0.0, 1.0, 2.5, 7.0])
            pls = data.draw(st.lists(arrivals, min_size=len(pls), max_size=len(pls)))
        v = data.draw(st.integers(1, len(tree.points) - 1))
        cheaper = data.draw(st.booleans())
        cap = data.draw(st.sampled_from([None, 0.0, 5.0, 12.0, 30.0]))
        got = best_reattachment(tree, v, pls, max_arrival=cap, require_cheaper=cheaper)
        want = oracle_best_reattachment(
            tree, v, pls, max_arrival=cap, require_cheaper=cheaper
        )
        assert repr(got) == repr(want)

    def test_ties_go_to_first_node_then_first_edge(self):
        # Sink (5, 5) is 5 from both (0, 5) and (5, 0), and from the edges
        # through them: the lowest-index node wins at equal arrival.
        net = Net.from_points((0.0, 0.0), [(0.0, 5.0), (5.0, 0.0), (5.0, 5.0)])
        t = RoutingTree(net, list(net.pins), [-1, 0, 0, 0])
        pls = t.path_lengths()
        got = best_reattachment(t, 3, pls, require_cheaper=False)
        assert got == oracle_best_reattachment(t, 3, pls, require_cheaper=False)
        assert got[2] == 1 and got[3] is None


    @pytest.mark.parametrize("seed", range(3))
    def test_every_node_of_random_nets(self, seed):
        # Uniform real coordinates: sums round, so the returned arrival
        # pins down the scan's summation order.
        rng = random.Random(seed)
        net = random_net(30, rng=rng)
        # Random parents give edges whose parent end has a non-zero path
        # length.
        shuffled = [0] + rng.sample(range(1, 30), 29)
        parent = [-1] * 30
        for k in range(1, 30):
            parent[shuffled[k]] = shuffled[rng.randrange(k)]
        wired = RoutingTree(net, list(net.pins), parent)
        grown = grow_from_source(net, order=list(range(len(net.sinks))))
        for tree in (wired, grown):
            pls = tree.path_lengths()
            for v in range(1, len(tree.points)):
                for cheaper in (True, False):
                    got = best_reattachment(tree, v, pls, require_cheaper=cheaper)
                    want = oracle_best_reattachment(
                        tree, v, pls, require_cheaper=cheaper
                    )
                    assert repr(got) == repr(want)

    @pytest.mark.parametrize("slack", [0.0, -0.5e-12, -2e-12])
    def test_arrival_budget_margin(self, slack):
        # The projection onto (10, 0) arrives at 14; the budget admits it
        # down to 14 - 1e-12.
        net = Net.from_points((0.0, 0.0), [(10.0, 0.0), (10.0, 4.0)])
        t = RoutingTree(net, list(net.pins), [-1, 0, 0])
        pls = t.path_lengths()
        got = best_reattachment(t, 2, pls, max_arrival=14.0 + slack)
        assert got == oracle_best_reattachment(t, 2, pls, max_arrival=14.0 + slack)
        assert (got is not None) == (slack > -1e-12)


class TestApplyReattachment:
    def test_apply_reattachment_splits_edge(self):
        net = Net.from_points((0, 0), [(10, 0), (10, 4)])
        t = RoutingTree.from_edges(
            net, [((0, 0), (10, 0)), ((0, 0), (10, 4))]
        ).copy()
        pls = t.path_lengths()
        cand = best_reattachment(t, 2, pls)
        _, _, node, split_child, at = cand
        n_before = len(t.points)
        apply_reattachment(t, 2, node, split_child, at)
        assert len(t.points) == n_before + (1 if split_child is not None else 0)
        t.validate()


class TestRefineLoops:
    @prop
    @given(any_tree, st.sampled_from([None, 1.0, 0.9]))
    def test_wirelength_refine(self, tree, cap):
        # No cap, the tree's own delay, and a cap tighter than it.
        delay_cap = None if cap is None else cap * tree.delay()
        assert shape(wirelength_refine(tree, delay_cap=delay_cap)) == shape(
            oracle_wirelength_refine(tree, delay_cap=delay_cap)
        )

    @prop
    @given(any_tree, st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    def test_per_sink_shallow_refine(self, tree, eps):
        assert shape(per_sink_shallow_refine(tree, eps)) == shape(
            oracle_per_sink_shallow_refine(tree, eps)
        )

    @prop
    @given(any_tree, st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_weighted_refine(self, tree, alpha):
        scales = _scales(tree.net)
        assert shape(weighted_refine(tree, alpha, scales)) == shape(
            oracle_weighted_refine(tree, alpha, scales)
        )

    @settings(prop, max_examples=40)
    @given(nets(min_degree=3, max_degree=12))
    def test_salt(self, net):
        seed = rsmt(net)
        for eps in (0.0, 0.1, 0.3, 1.0):
            assert shape(salt(net, eps, seed=seed)) == shape(
                oracle_salt(net, eps, seed)
            )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("grid", [8, 1000])
    def test_large_random_nets(self, seed, grid):
        net = random_net(40, rng=random.Random(seed), grid=grid)
        tree = grow_from_source(net, order=list(range(len(net.sinks))))
        for cap in (None, tree.delay(), 0.9 * tree.delay()):
            assert shape(wirelength_refine(tree, delay_cap=cap)) == shape(
                oracle_wirelength_refine(tree, delay_cap=cap)
            )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_collinear_pins(self, axis):
        cs = [-0.0, 9.0, 3.0, 6.0, 1.0, 12.0, 4.0, -2.0]
        pins = [(c, 5.0) if axis == 0 else (5.0, c) for c in cs]
        net = Net.from_points(pins[0], pins[1:])
        tree = RoutingTree.star(net)
        assert shape(wirelength_refine(tree)) == shape(oracle_wirelength_refine(tree))
        assert shape(per_sink_shallow_refine(tree, 0.2)) == shape(
            oracle_per_sink_shallow_refine(tree, 0.2)
        )
