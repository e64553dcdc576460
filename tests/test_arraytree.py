"""The array routing tree and its users against the per-pin scan oracles.

``ArrayTree`` keeps a preorder and source arrivals up to date move by
move. Every move must leave the arrivals ``==`` to a from-scratch
``RoutingTree.path_lengths()`` and the preorder intervals equal to the
subtrees, and every grown tree must hold what a tree indexed from
scratch on its lists holds. Its users must build the trees the Python
scans built on a ``PlainTree``, with the same points (``repr``, so
signed zeros count) and parents:

* arrival-mode reassembly against ``_builder_arrivals`` and
  ``_cheapest_within_budget`` (rebuild every arrival, scan every node
  and edge per pin);
* ``reattach_leaf`` and ``refine_wirelength`` against the per-leaf
  ``compacted()`` -> ``PlainTree`` -> ``from_edges`` round trip;
* ``rsmt``, which grows its greedy regrowth once, against a loop that
  probes it in every refinement pass;
* ``grow_from_source(order)`` against one ``best_connection`` scan per
  pin;
* ``weighted_construct`` against the per-pin scan, with every arrival
  rebuilt per step;
* ``refine_passes`` with all three ``accept`` callbacks;
* ``SelectionPolicy.select`` against per-candidate ``pin_features``.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dreyfus_wagner import steiner_min_tree
from repro.baselines.rsmt import _dc_edges, reattach_leaf, refine_wirelength, rsmt
from repro.baselines.ysd import _scales, weighted_construct, weighted_refine
from repro.core.patlabor import ARRIVAL_SLACK, reassemble
from repro.core.policy import SelectionPolicy, pin_features
from repro.geometry.bbox import BBox, project_onto
from repro.geometry.net import Net, random_net
from repro.geometry.point import Point, l1
from repro.routing.arraytree import ArrayTree
from repro.routing.attach import attach_cheapest_first, grow_from_source
from repro.routing.refine import (
    per_sink_shallow_refine,
    refine_passes,
    subtree_nodes,
    wirelength_refine,
)
from repro.routing.tree import RoutingTree
from tests.test_attach_cheapest_first import (
    PlainTree,
    oracle_attach,
    oracle_best_connection,
    seeded_builder,
)
from tests.test_refine_sweep import (
    oracle_per_sink_shallow_refine,
    oracle_weighted_refine,
    oracle_wirelength_refine,
)

# --------------------------------------------------------------- oracles


def oracle_builder_arrivals(builder):
    n = len(builder.points)
    children = [[] for _ in range(n)]
    for idx in range(1, n):
        children[builder.parent[idx]].append(idx)
    arrivals = [0.0] * n
    stack = [0]
    while stack:
        u = stack.pop()
        for c in children[u]:
            arrivals[c] = arrivals[u] + l1(builder.points[u], builder.points[c])
            stack.append(c)
    return arrivals


def oracle_cheapest_within_budget(builder, arrivals, p, budget):
    pt = Point(float(p[0]), float(p[1]))
    best = None
    for u, pu in enumerate(builder.points):
        cost = l1(pu, pt)
        arrival = arrivals[u] + cost
        if arrival <= budget + 1e-9:
            if best is None or (cost, arrival) < (best[0], best[1]):
                best = (cost, arrival, u, None, pu)
    for child, parent in builder.edges():
        a, b = builder.points[child], builder.points[parent]
        box = BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
        q = project_onto(pt, box)
        if q == a or q == b:
            continue
        cost = l1(q, pt)
        arrival = arrivals[parent] + l1(builder.points[parent], q) + cost
        if arrival <= budget + 1e-9 and (
            best is None or (cost, arrival) < (best[0], best[1])
        ):
            best = (cost, arrival, parent, child, q)
    assert best is not None
    return best[2], best[3], best[4]


def oracle_reassemble_arrival(net, sub_tree, rest):
    builder = seeded_builder(sub_tree)
    source = Point(float(net.source[0]), float(net.source[1]))
    for p in sorted(rest, key=lambda p: -l1(source, p)):
        arrivals = oracle_builder_arrivals(builder)
        budget = (1.0 + ARRIVAL_SLACK) * l1(source, p)
        node, split_child, at = oracle_cheapest_within_budget(
            builder, arrivals, p, budget
        )
        target = node
        if split_child is not None:
            grand = builder.parent[split_child]
            target = len(builder.points)
            builder.points.append(at)
            builder.parent.append(grand)
            builder.parent[split_child] = target
        builder.attach_to_node(p, target)
    return builder.finish(net)


def oracle_reattach_leaf(tree, leaf):
    net = tree.net
    old_cost = tree.edge_length(leaf)
    compact = tree.compacted()
    target = compact.points[: compact.net.degree].index(tree.points[leaf])
    if any(p == target for p in compact.parent):
        return None
    builder = PlainTree(compact.points[0])
    index_map = {0: 0}
    for u in compact.topological_order():
        p = compact.parent[u]
        if p < 0 or u == target:
            continue
        index_map[u] = builder.attach_to_node(compact.points[u], index_map[p])
    cost, _, _, _ = oracle_best_connection(builder, compact.points[target])
    if cost >= old_cost - 1e-12:
        return None
    oracle_attach(builder, compact.points[target])
    return builder.finish(net).compacted()


def oracle_grow_in_order(net, order):
    builder = PlainTree(net.source)
    for i in order:
        oracle_attach(builder, net.sinks[i])
    return builder.finish(net)


def oracle_weighted_construct(net, alpha, scales):
    builder = PlainTree(net.source)
    pending = dict(enumerate(net.sinks))
    while pending:
        arrivals = oracle_builder_arrivals(builder)
        best_key = None
        best_i = None
        for i, s in pending.items():
            cost, node, split_child, at = oracle_best_connection(builder, s)
            if split_child is not None:
                parent = builder.parent[split_child]
                base = arrivals[parent] + l1(builder.points[parent], at)
            else:
                base = arrivals[node]
            arrival = base + cost
            key = alpha * cost / scales[0] + (1.0 - alpha) * arrival / scales[1]
            if best_key is None or key < best_key:
                best_key, best_i = key, i
        oracle_attach(builder, pending.pop(best_i))
    return builder.finish(net)


def oracle_refine_wirelength(tree):
    net = tree.net
    best = tree
    improved = False
    for leaf in range(1, net.degree):
        if any(p == leaf for p in best.parent):
            continue
        candidate = oracle_reattach_leaf(best, leaf)
        if candidate is not None and candidate.wirelength() < best.wirelength() - 1e-12:
            best = candidate
            improved = True
    order = sorted(range(len(net.sinks)), key=lambda i: l1(net.source, net.sinks[i]))
    rebuilt = oracle_grow_in_order(net, order)
    if rebuilt.wirelength() < best.wirelength() - 1e-12:
        best = rebuilt
        improved = True
    return improved, best


def rsmt_probing_every_pass(net, exact_limit, passes):
    """``rsmt`` above ``exact_limit`` with the greedy regrowth probed in
    every refinement pass, not just the first."""
    tree = RoutingTree.from_edges(net, _dc_edges(list(net.pins), 0, exact_limit))
    for _ in range(passes):
        improved, tree = refine_wirelength(tree)
        if not improved:
            break
    return tree


def oracle_select(policy, net, tree, k):
    alpha = policy.params_for(net.degree)
    delays = tree.sink_delays()
    selected = []
    remaining = set(range(len(net.sinks)))
    while remaining and len(selected) < k:
        scored = []
        for i in remaining:
            f1, f2, f3, f4 = pin_features(net, tree, i, selected, delays)
            s = alpha.a1 * f1 + alpha.a2 * f2 - alpha.a3 * f3 - alpha.a4 * f4
            scored.append((s, i))
        scored.sort(reverse=True)
        selected.append(scored[0][1])
        remaining.discard(scored[0][1])
    return selected


def shape(tree):
    return repr(list(tree.points)), list(tree.parent)


def maybe_shape(tree):
    return None if tree is None else shape(tree)


# ----------------------------------------------------------- strategies

# Few distinct values make collinear pins, shared coordinates, exact cost
# ties and signed zeros routine. The fractional values and the 1e6
# offset make sums round, so a change in summation order shows.
lattice = [-0.0, 0.0, 1.0, 2.0, 3.0, 4.5, 7.0]
fractions = [-0.0, 0.1, 0.7, 1.3, 2.9, 5.3]
prop = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def nets(draw, min_degree=2, max_degree=12):
    values = draw(st.sampled_from([lattice, fractions]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    coord = st.sampled_from(values).map(lambda c: c + offset if offset else c)
    n = draw(st.integers(min_degree, max_degree))
    pins = draw(
        st.lists(st.tuples(coord, coord), min_size=n, max_size=n, unique=True)
    )
    return Net.from_points(pins[0], pins[1:])


@st.composite
def trees(draw, min_degree=2, max_degree=12, extra=6):
    """A random tree on a random net; Steiner nodes may repeat points."""
    net = draw(nets(min_degree, max_degree))
    xs = sorted({p.x for p in net.pins})
    ys = sorted({p.y for p in net.pins})
    steiner = draw(
        st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), max_size=extra)
    )
    points = list(net.pins) + [Point(*p) for p in steiner]
    order = [0] + draw(st.permutations(list(range(1, len(points)))))
    parent = [-1] * len(points)
    for k in range(1, len(order)):
        parent[order[k]] = order[draw(st.integers(0, k - 1))]
    return RoutingTree(net, points, parent)


def check_live(live, net):
    """Arrivals and preorder intervals of ``live`` against a fresh tree."""
    fresh = RoutingTree(net, list(live.points), list(live.parent))
    assert live.dist == fresh.path_lengths()
    n = len(live)
    for v in range(n):
        lo, hi = live.subtree(v)
        assert set(live.pre[lo:hi]) == subtree_nodes(fresh, v)
    assert sorted(live.pre) == list(range(n))


def check_indexed(live):
    """``live`` holds what a tree indexed from scratch on its lists holds."""
    fresh = ArrayTree(list(live.points), list(live.parent))
    n = len(live)
    assert live.size == fresh.size
    assert live.dist == fresh.dist
    assert [live.tin[u] for u in live.pre] == list(range(n))
    for v in range(n):
        lo, hi = live.subtree(v)
        flo, fhi = fresh.subtree(v)
        assert set(live.pre[lo:hi]) == set(fresh.pre[flo:fhi])
    for column in ("x", "y", "par"):
        got, want = getattr(live, column)[:n], getattr(fresh, column)[:n]
        assert got.tobytes() == want.tobytes()


def grown(grow, *args, **kwargs):
    """The ``ArrayTree`` objects ``grow(*args, **kwargs)`` finishes."""
    seen = []
    finish = ArrayTree.finish

    def spy(tree, net):
        seen.append(tree)
        return finish(tree, net)

    with mock.patch.object(ArrayTree, "finish", spy):
        grow(*args, **kwargs)
    assert seen
    return seen


# ---------------------------------------------------------------- tests


class TestGrowthState:
    """Growth keeps the preorder, sizes, arrivals and columns exact."""

    @prop
    @given(trees(), st.data())
    def test_attach_cheapest_first(self, tree, data):
        xs = sorted({p.x for p in tree.points})
        ys = sorted({p.y for p in tree.points})
        pending = data.draw(
            st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), max_size=10)
        )
        live = ArrayTree(list(tree.points), list(tree.parent))
        attach_cheapest_first(live, pending)
        check_indexed(live)
        for live in grown(grow_from_source, tree.net):
            check_indexed(live)

    @prop
    @given(nets(min_degree=2, max_degree=14), st.data())
    def test_attach_in_order(self, net, data):
        order = data.draw(st.permutations(range(len(net.sinks))))
        for live in grown(grow_from_source, net, order):
            check_indexed(live)

    @prop
    @given(nets(min_degree=4, max_degree=14), st.data())
    def test_reassembly(self, net, data):
        k = data.draw(st.integers(1, min(5, len(net.sinks) - 1)))
        chosen = sorted(data.draw(st.permutations(range(len(net.sinks))))[:k])
        sub = Net.from_points(net.source, [net.sinks[i] for i in chosen])
        rest = [s for i, s in enumerate(net.sinks) if i not in chosen]
        for sub_tree in (steiner_min_tree(sub), RoutingTree.star(sub)):
            for mode in ("arrival", "wire"):
                for live in grown(reassemble, net, sub_tree, rest, mode=mode):
                    check_indexed(live)


class TestMaintainedArrivals:
    @prop
    @given(trees(), st.data())
    def test_moves_and_undos(self, tree, data):
        live = ArrayTree(list(tree.points), list(tree.parent))
        check_live(live, tree.net)
        for _ in range(data.draw(st.integers(1, 8))):
            n = len(live)
            v = data.draw(st.integers(1, n - 1))
            lo, hi = live.subtree(v)
            inside = set(live.pre[lo:hi])
            outside = [u for u in range(n) if u not in inside]
            before = (
                list(live.points), list(live.parent), list(live.dist),
                live.par[:n].tolist(), list(live.pre), list(live.tin), list(live.size),
            )
            target = data.draw(st.sampled_from(outside))
            children = [c for c in outside if c and live.parent[c] in outside]
            if children and data.draw(st.booleans()):
                child = data.draw(st.sampled_from(children))
                a, b = live.points[child], live.points[live.parent[child]]
                at = Point((a.x + b.x) / 2, b.y)
                move = live.reattach(v, -1, child, at)
            else:
                move = live.reattach(v, target, None, live.points[target])
            check_live(live, tree.net)
            if data.draw(st.booleans()):
                live.undo(move)
                n = len(live)
                after = (
                    list(live.points), list(live.parent), list(live.dist),
                    live.par[:n].tolist(), list(live.pre), list(live.tin), list(live.size),
                )
                assert after == before
                check_live(live, tree.net)

    @prop
    @given(trees(), st.randoms(use_true_random=False))
    def test_refine_sees_fresh_arrivals(self, tree, rng):
        seen = []

        def accept(work):
            fresh = RoutingTree(work.net, list(work.points), list(work.parent))
            assert work.path_lengths() == fresh.path_lengths()
            assert work.sink_delays() == fresh.sink_delays()
            assert work.delay() == fresh.delay()
            seen.append(work)
            return rng.random() < 0.5

        refine_passes(tree, 3, accept, require_cheaper=bool(rng.getrandbits(1)))
        if seen:
            # The view still shows the state the last accept or undo left.
            work = seen[-1]
            fresh = RoutingTree(work.net, list(work.points), list(work.parent))
            assert work.path_lengths() == fresh.path_lengths()

    def test_split_child_subtree_is_recomputed(self):
        # Through the new Steiner node (0.7, 0.7), the split child's
        # arrival sums to 7.200000000000001, not 7.2: a split that keeps
        # the child's old arrival shows.
        net = Net.from_points((2.9, 2.9), [(2.9, 0.7), (0.1, 2.9)])
        live = ArrayTree(list(net.pins), [-1, 0, 1])
        live.split(2, Point(0.7, 0.7))
        check_live(live, net)
        assert live.dist[2] == 7.200000000000001


class TestReassembly:
    @prop
    @given(nets(min_degree=4, max_degree=14), st.data())
    def test_arrival_mode(self, net, data):
        k = data.draw(st.integers(1, min(5, len(net.sinks) - 1)))
        chosen = sorted(data.draw(st.permutations(range(len(net.sinks))))[:k])
        sub = Net.from_points(net.source, [net.sinks[i] for i in chosen])
        rest = [s for i, s in enumerate(net.sinks) if i not in chosen]
        for sub_tree in (steiner_min_tree(sub), RoutingTree.star(sub)):
            assert shape(reassemble(net, sub_tree, rest, mode="arrival")) == shape(
                oracle_reassemble_arrival(net, sub_tree, rest)
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_arrival_mode_large(self, seed):
        net = random_net(40, rng=random.Random(seed))
        sub = Net.from_points(net.source, net.sinks[:8])
        rest = list(net.sinks[8:])
        sub_tree = steiner_min_tree(sub)
        assert shape(reassemble(net, sub_tree, rest, mode="arrival")) == shape(
            oracle_reassemble_arrival(net, sub_tree, rest)
        )


class TestSeed:
    @prop
    @given(trees(min_degree=3))
    def test_reattach_leaf(self, tree):
        for leaf in range(1, tree.net.degree):
            if leaf in tree.parent:
                continue
            assert maybe_shape(reattach_leaf(tree, leaf)) == maybe_shape(
                oracle_reattach_leaf(tree, leaf)
            )

    @prop
    @given(nets(min_degree=3, max_degree=16))
    def test_refine_wirelength_on_split_trees(self, net):
        tree = RoutingTree.from_edges(net, _dc_edges(list(net.pins), 0, 4))
        improved, got = refine_wirelength(tree)
        want_improved, want = oracle_refine_wirelength(tree)
        assert improved == want_improved and shape(got) == shape(want)

    @prop
    @given(nets(min_degree=2, max_degree=14), st.data())
    def test_grow_in_order(self, net, data):
        order = data.draw(st.permutations(range(len(net.sinks))))
        assert shape(grow_from_source(net, order=order)) == shape(
            oracle_grow_in_order(net, order)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_rsmt_large(self, seed):
        net = random_net(30, rng=random.Random(seed))
        tree = RoutingTree.from_edges(net, _dc_edges(list(net.pins), 0, 8))
        for _ in range(2):
            improved, got = refine_wirelength(tree)
            want_improved, want = oracle_refine_wirelength(tree)
            assert improved == want_improved and shape(got) == shape(want)
            tree = got
        assert rsmt(net).objective() == tree.objective()

    @prop
    @given(nets(min_degree=5, max_degree=16), st.integers(1, 3))
    def test_rsmt_regrows_once(self, net, passes):
        got = rsmt(net, exact_limit=4, refine_passes=passes)
        assert shape(got) == shape(rsmt_probing_every_pass(net, 4, passes))

    @pytest.mark.parametrize("passes", [1, 2, 3])
    def test_rsmt_regrows_once_on_random_nets(self, passes):
        for seed in range(4):
            net = random_net(30, rng=random.Random(seed))
            got = rsmt(net, refine_passes=passes)
            assert shape(got) == shape(rsmt_probing_every_pass(net, 8, passes))


class TestWeightedConstruct:
    @prop
    @given(nets(min_degree=2, max_degree=10), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_matches_scan(self, net, alpha):
        scales = _scales(net)
        assert shape(weighted_construct(net, alpha, scales)) == shape(
            oracle_weighted_construct(net, alpha, scales)
        )


class TestRefineCallbacks:
    @prop
    @given(trees(), st.sampled_from([None, 1.0, 0.9]))
    def test_within_cap(self, tree, cap):
        delay_cap = None if cap is None else cap * tree.delay()
        assert shape(wirelength_refine(tree, delay_cap=delay_cap)) == shape(
            oracle_wirelength_refine(tree, delay_cap=delay_cap)
        )

    @prop
    @given(trees(), st.sampled_from([0.0, 0.1, 0.5]))
    def test_within_budget(self, tree, eps):
        assert shape(per_sink_shallow_refine(tree, eps)) == shape(
            oracle_per_sink_shallow_refine(tree, eps)
        )

    @prop
    @given(trees(), st.sampled_from([0.0, 0.3, 1.0]))
    def test_improves(self, tree, alpha):
        scales = _scales(tree.net)
        got = weighted_refine(tree, alpha, scales)
        want = oracle_weighted_refine(tree, alpha, scales)
        assert shape(got) == shape(want)
        assert got.objective() == want.objective()


class TestSelect:
    @prop
    @given(nets(min_degree=4, max_degree=20), st.integers(1, 8))
    def test_matches_pin_features(self, net, k):
        tree = grow_from_source(net)
        policy = SelectionPolicy()
        assert policy.select(net, tree, k) == oracle_select(policy, net, tree, k)
