"""The array exact RSMT against the dict-and-payload Dreyfus–Wagner oracle.

The oracle is ``steiner_min_tree`` as it ran before the DP moved to
arrays: one dict per terminal subset mapping each non-corner Hanan node
to ``(cost, payload)``, with nested tuple payloads walked by an explicit
stack. Trees must match it exactly: same points (``repr``, so signed
zeros count) and the same parent array, which also pins down the order
in which edges reach ``RoutingTree.from_edges``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dreyfus_wagner import steiner_min_tree
from repro.geometry.hanan import HananGrid
from repro.geometry.net import Net, random_net
from repro.routing.tree import RoutingTree

# --------------------------------------------------------------- oracle


def _collect_edges(payload, out):
    stack = [payload]
    while stack:
        p = stack.pop()
        if p[0] == "leaf":
            continue
        if p[0] == "ext":
            _, u, v, child = p
            if u != v:
                out.add((u, v))
            stack.append(child)
        else:
            stack.append(p[1])
            stack.append(p[2])


def oracle_steiner_min_tree(net):
    grid = HananGrid.of_net(net)
    pin_nodes = grid.pin_nodes()
    root_node = pin_nodes[0]
    terms = pin_nodes[1:]
    k = len(terms)
    full = (1 << k) - 1
    corner = set(grid.corner_nodes())
    nodes = [v for v in grid.nodes() if v not in corner]
    dist = grid.dist
    S = [None] * (full + 1)

    def closure(merged):
        out = {}
        items = list(merged.items())
        for v in nodes:
            best = None
            for u, (c, p) in items:
                if u == v:
                    cand = (c, p)
                else:
                    cand = (c + dist(u, v), ("ext", u, v, p))
                if best is None or cand[0] < best[0]:
                    best = cand
            if best is not None:
                out[v] = best
        return out

    for ti, t_node in enumerate(terms):
        S[1 << ti] = closure({t_node: (0.0, ("leaf", t_node))})

    masks_by_size = [[] for _ in range(k + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, k + 1):
        for mask in masks_by_size[size]:
            bits = [i for i in range(k) if mask >> i & 1]
            ixs = [terms[i][0] for i in bits]
            iys = [terms[i][1] for i in bits]
            bxlo, bxhi, bylo, byhi = min(ixs), max(ixs), min(iys), max(iys)
            low = 1 << bits[0]
            rest = mask & ~low
            merged = {}
            for v in nodes:
                ix, iy = v
                if not (bxlo <= ix <= bxhi and bylo <= iy <= byhi):
                    continue
                best = None
                sub = rest
                while True:
                    q1 = sub | low
                    if q1 != mask:
                        q2 = mask ^ q1
                        a = S[q1].get(v) if S[q1] else None
                        b = S[q2].get(v) if S[q2] else None
                        if a and b:
                            cand = (a[0] + b[0], ("merge", a[1], b[1]))
                            if best is None or cand[0] < best[0]:
                                best = cand
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest
                if best is not None:
                    merged[v] = best
            S[mask] = closure(merged)

    _, payload = S[full][root_node]
    node_edges = set()
    _collect_edges(payload, node_edges)
    pt = grid.point
    edges = [(pt(a), pt(b)) for a, b in node_edges]
    if not edges:
        edges = [(net.source, s) for s in net.sinks]
    referenced = {p for e in edges for p in e}
    return RoutingTree.from_edges(net, edges, extra_points=list(referenced))


def shape(tree):
    return repr(list(tree.points)), list(tree.parent)


# ----------------------------------------------------------- strategies

# Few distinct values: collinear pins, shared rows and columns, exact
# cost ties and signed zeros are common.
small = st.sampled_from([-4.0, -0.0, 0.0, 1.0, 2.0, 3.5, 5.0, 8.0])

prop = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def nets(draw, values, min_degree=2, max_degree=8):
    n = draw(st.integers(min_degree, max_degree))
    pins = draw(
        st.lists(st.tuples(values, values), min_size=n, max_size=n, unique=True)
    )
    return Net.from_points(pins[0], pins[1:])


# ---------------------------------------------------------------- tests


class TestMatchesDictOracle:
    @prop
    @given(nets(small))
    def test_small_grids(self, net):
        assert shape(steiner_min_tree(net)) == shape(oracle_steiner_min_tree(net))

    @prop
    @given(nets(st.floats(-1000.0, 1000.0, allow_nan=False, width=32)))
    def test_real_coordinates(self, net):
        assert shape(steiner_min_tree(net)) == shape(oracle_steiner_min_tree(net))

    @pytest.mark.parametrize("degree", range(2, 11))
    @pytest.mark.parametrize("grid", [3, 1000])
    def test_degrees(self, degree, grid):
        rng = random.Random(degree)
        if grid * grid < degree:
            grid = 4
        net = random_net(degree, rng=rng, grid=grid)
        assert shape(steiner_min_tree(net)) == shape(oracle_steiner_min_tree(net))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_collinear_pins(self, axis):
        cs = [-0.0, 9.0, 3.0, -6.0, 1.0, 12.0]
        pins = [(c, 5.0) if axis == 0 else (5.0, c) for c in cs]
        net = Net.from_points(pins[0], pins[1:])
        assert shape(steiner_min_tree(net)) == shape(oracle_steiner_min_tree(net))

    @pytest.mark.parametrize(
        "pins",
        [
            [(959.59596, 545.454545), (111.111111, 676.767677),
             (565.656566, 484.848485), (929.292929, 181.818182),
             (757.575758, 636.363636)],
            [(333.333333, 666.666667), (333.333333, 333.333333),
             (333.333333, 1000.0), (1000.0, 0.0), (0.0, 0.0),
             (0.0, 666.666667), (666.666667, 1000.0), (1000.0, 666.666667)],
        ],
    )
    def test_edge_insertion_order(self, pins):
        # Walking the backpointers with the sub-masks in the other order
        # yields the same edge set but a different tree on these nets.
        net = Net.from_points(pins[0], pins[1:])
        assert shape(steiner_min_tree(net)) == shape(oracle_steiner_min_tree(net))
