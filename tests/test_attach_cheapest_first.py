"""``attach_cheapest_first`` against the per-pin scan oracle.

The oracle is the cheapest-first loop reassembly and ``grow_from_source``
ran before the NumPy primitive: after every attach, score each pending
pin with a Python scan over all nodes (strict ``<``, index order) and
then all edges (child order, an edge must beat the running best by
1e-12, projections onto an endpoint skipped), attach the first pin of
minimum cost. The oracle grows a :class:`PlainTree`, two lists and
nothing else. The ``ArrayTree`` it is compared with must match it
exactly: same points (``repr``, so signed zeros count) and the same
parent array.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.patlabor import reassemble
from repro.core.pareto_dw import pareto_dw
from repro.geometry.bbox import BBox, project_onto
from repro.geometry.net import Net, random_net
from repro.geometry.point import Point, l1
from repro.routing.arraytree import ArrayTree
from repro.routing.attach import attach_cheapest_first, grow_from_source
from repro.routing.tree import RoutingTree

# --------------------------------------------------------------- oracle


class PlainTree:
    """A rooted tree as ``points`` and ``parent`` lists, grown by the
    oracles. Node 0 is the root; nothing else is kept."""

    def __init__(self, root):
        self.points = [Point(float(root[0]), float(root[1]))]
        self.parent = [-1]

    def edges(self):
        """(child, parent) index pairs."""
        return [(i, p) for i, p in enumerate(self.parent) if p >= 0]

    def attach_to_node(self, p, node):
        """Hang ``p`` under ``node``; a point equal to it is that node."""
        pt = Point(float(p[0]), float(p[1]))
        if self.points[node] == pt:
            return node
        self.points.append(pt)
        self.parent.append(node)
        return len(self.points) - 1

    def finish(self, net):
        """The validated ``RoutingTree`` of ``net`` on these edges."""
        edges = [(self.points[i], self.points[p]) for i, p in self.edges()]
        return RoutingTree.from_edges(net, edges, extra_points=self.points)

    def live(self):
        """An ``ArrayTree`` on copies of the two lists."""
        return ArrayTree(list(self.points), list(self.parent))


def oracle_best_connection(builder, p):
    """The per-pin scan: ``(cost, node, split_child, attach_point)``."""
    pt = Point(float(p[0]), float(p[1]))
    best_cost = float("inf")
    best_node = 0
    best_split = None
    best_at = builder.points[0]
    for i, node in enumerate(builder.points):
        c = l1(pt, node)
        if c < best_cost:
            best_cost, best_node, best_split, best_at = c, i, None, node
    for child, parent in enumerate(builder.parent):
        if parent < 0:
            continue
        a, b = builder.points[child], builder.points[parent]
        box = BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
        q = project_onto(pt, box)
        c = l1(pt, q)
        if c < best_cost - 1e-12 and q != a and q != b:
            best_cost, best_node, best_split, best_at = c, -1, child, q
    return best_cost, best_node, best_split, best_at


def oracle_attach(builder, p):
    pt = Point(float(p[0]), float(p[1]))
    cost, node, split_child, at = oracle_best_connection(builder, pt)
    if split_child is not None:
        grand = builder.parent[split_child]
        steiner = len(builder.points)
        builder.points.append(at)
        builder.parent.append(grand)
        builder.parent[split_child] = steiner
        node = steiner
    if cost == 0.0 and builder.points[node] == pt:
        return node
    builder.points.append(pt)
    builder.parent.append(node)
    return len(builder.points) - 1


def oracle_cheapest_first(builder, points):
    pending = list(points)
    while pending:
        best_i = min(
            range(len(pending)),
            key=lambda i: oracle_best_connection(builder, pending[i])[0],
        )
        oracle_attach(builder, pending.pop(best_i))


def oracle_grow_from_source(net):
    builder = PlainTree(net.source)
    oracle_cheapest_first(builder, net.sinks)
    return builder.finish(net)


def seeded_builder(sub_tree):
    """A tree holding ``sub_tree``'s edges, as ``reassemble`` seeds it."""
    builder = PlainTree(sub_tree.points[0])
    index_map = {0: 0}
    for u in sub_tree.topological_order():
        p = sub_tree.parent[u]
        if p >= 0:
            index_map[u] = builder.attach_to_node(sub_tree.points[u], index_map[p])
    return builder


def oracle_reassemble(net, sub_tree, rest):
    builder = seeded_builder(sub_tree)
    oracle_cheapest_first(builder, rest)
    return builder.finish(net)


def shape(tree_or_builder):
    return repr(list(tree_or_builder.points)), list(tree_or_builder.parent)


# ----------------------------------------------------------- strategies

# A small coordinate set makes collinear pins, repeated coordinates, exact
# cost ties and signed zeros routine rather than rare.
coords = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, 4.5, 6.0, 7.0, 10.0])
points = st.tuples(coords, coords)

prop = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def builders(draw):
    """A random tree (any shape, duplicates allowed) plus pending points."""
    builder = PlainTree(draw(points))
    for p in draw(st.lists(points, max_size=8)):
        parent = draw(st.integers(0, len(builder.points) - 1))
        builder.points.append(Point(*p))
        builder.parent.append(parent)
    return builder, draw(st.lists(points, min_size=1, max_size=12))


@st.composite
def grid_nets(draw, min_degree=2, max_degree=16, span=12):
    n = draw(st.integers(min_degree, max_degree))
    xy = st.tuples(st.integers(0, span), st.integers(0, span))
    pins = draw(st.lists(xy, min_size=n, max_size=n, unique=True))
    return Net.from_points(pins[0], pins[1:])


# ---------------------------------------------------------------- tests


class TestMatchesScanOracle:
    @prop
    @given(builders())
    def test_random_trees_and_points(self, case):
        expected, pending = case
        live = expected.live()
        oracle_cheapest_first(expected, pending)
        attach_cheapest_first(live, pending)
        assert shape(live) == shape(expected)

    @prop
    @given(grid_nets())
    def test_grow_from_source(self, net):
        assert shape(grow_from_source(net)) == shape(oracle_grow_from_source(net))

    @settings(prop, max_examples=30)
    @given(grid_nets(min_degree=10, max_degree=18), st.randoms(use_true_random=False))
    def test_dw_sub_trees(self, net, rng):
        chosen = sorted(rng.sample(range(len(net.sinks)), 6))
        sub = Net.from_points(net.source, [net.sinks[i] for i in chosen])
        rest = [s for i, s in enumerate(net.sinks) if i not in chosen]
        for _w, _d, sub_tree in pareto_dw(sub):
            assert shape(reassemble(net, sub_tree, rest)) == shape(
                oracle_reassemble(net, sub_tree, rest)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_large_random_nets(self, seed):
        net = random_net(40, rng=random.Random(seed))
        assert shape(grow_from_source(net)) == shape(oracle_grow_from_source(net))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_collinear_pins(self, axis):
        coords = [0.0, 9.0, 3.0, 6.0, 1.0, 12.0, 4.0]
        pins = [(c, 5.0) if axis == 0 else (5.0, c) for c in coords]
        net = Net.from_points(pins[0], pins[1:])
        assert shape(grow_from_source(net)) == shape(oracle_grow_from_source(net))

    def test_duplicate_coordinates_fuse(self):
        expected = PlainTree((0.0, 0.0))
        expected.attach_to_node((10.0, 0.0), 0)
        live = expected.live()
        pending = [(5.0, 0.0), (10.0, 0.0), (5.0, 0.0), (5.0, 4.0), (0.0, 0.0)]
        oracle_cheapest_first(expected, pending)
        attach_cheapest_first(live, pending)
        assert shape(live) == shape(expected)
        # Only the split point (5, 0) and (5, 4) are new nodes.
        assert len(live.points) == 4


class TestEpsilonFold:
    """The 1e-12 edge margin folds in child order; it is not an argmin."""

    @staticmethod
    def ladder(edge_ys):
        """Pin at the origin under a chain of horizontal edges at ``edge_ys``.

        Each edge spans x in [-3, 3], so the pin projects onto (0, y) at
        cost y; the short vertical links between them project onto an
        endpoint and are skipped. Every node costs at least 3 + y.
        """
        builder = PlainTree((-3.0, edge_ys[0]))
        tip = 0
        for k, y in enumerate(edge_ys):
            x = 3.0 if k % 2 == 0 else -3.0
            if k:
                tip = builder.attach_to_node((-x, y), tip)  # vertical link
            tip = builder.attach_to_node((x, y), tip)  # horizontal edge
        return builder

    @pytest.mark.parametrize(
        "edge_ys, expected_y",
        [
            # The second edge is cheaper, but not by 1e-12: the first stays.
            ([5.0, 5.0 - 0.5e-12], 5.0),
            # The third beats the first by more than 1e-12 and takes over.
            ([5.0, 5.0 - 0.5e-12, 5.0 - 1.2e-12], 5.0 - 1.2e-12),
            # Raise the first edge: the second now beats it and holds.
            ([5.0 + 1e-12, 5.0 - 0.5e-12, 5.0 - 1.2e-12], 5.0 - 0.5e-12),
        ],
    )
    def test_sequential_fold(self, edge_ys, expected_y):
        expected = self.ladder(edge_ys)
        live = expected.live()
        pending = [(0.0, 0.0), (1.0, 20.0)]
        oracle_cheapest_first(expected, pending)
        attach_cheapest_first(live, pending)
        assert shape(live) == shape(expected)
        pin = live.points.index(Point(0.0, 0.0))
        assert live.points[live.parent[pin]] == Point(0.0, expected_y)

    def test_plain_argmin_would_differ(self):
        builder = self.ladder([5.0, 5.0 - 0.5e-12])
        pt = Point(0.0, 0.0)
        costs = {}
        for child, parent in builder.edges():
            a, b = builder.points[child], builder.points[parent]
            box = BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
            q = project_onto(pt, box)
            if q != a and q != b:
                costs[child] = l1(pt, q)
        assert min(costs, key=costs.get) == 3
        assert oracle_best_connection(builder, pt)[2] == 1
