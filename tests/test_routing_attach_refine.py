"""Unit tests for incremental attachment and the refinement passes."""

import random

import pytest

from repro.geometry.net import Net, random_net
from repro.geometry.point import Point, l1
from repro.routing.arraytree import ArrayTree
from repro.routing.attach import attach_cheapest, best_connection, grow_from_source
from repro.routing.refine import (
    best_reattachment,
    per_sink_shallow_refine,
    subtree_nodes,
    wirelength_refine,
)
from repro.routing.tree import RoutingTree


def root_tree():
    return ArrayTree([Point(0.0, 0.0)], [-1])


class TestTreeBuilder:
    """Growing an ``ArrayTree`` with the attach rules."""

    def test_attach_direct(self):
        b = root_tree()
        idx = attach_cheapest(b, (5, 0))
        assert b.points[idx] == Point(5, 0)
        assert b.parent[idx] == 0

    def test_attach_via_edge_projection(self):
        b = root_tree()
        attach_cheapest(b, (10, 0))
        # (5, 3) projects onto the edge at (5, 0): cheaper than either end.
        idx = attach_cheapest(b, (5, 3))
        assert b.points[idx] == Point(5, 3)
        steiner = b.parent[idx]
        assert b.points[steiner] == Point(5, 0)

    def test_edge_split_preserves_connectivity(self):
        b = root_tree()
        attach_cheapest(b, (10, 0))
        attach_cheapest(b, (5, 3))
        net = Net.from_points((0, 0), [(10, 0), (5, 3)])
        tree = b.finish(net)
        assert tree.wirelength() == 13  # 10 + 3

    def test_attach_coincident_point_fuses(self):
        b = root_tree()
        i1 = attach_cheapest(b, (5, 5))
        i2 = attach_cheapest(b, (5, 5))
        assert i1 == i2

    def test_attach_to_node_explicit(self):
        b = root_tree()
        a = attach_cheapest(b, (10, 0))
        p = Point(10.0, 10.0)
        i = b.attach(p, a, None, p)
        assert b.parent[i] == a

    def test_best_connection_prefers_projection(self):
        b = root_tree()
        attach_cheapest(b, (10, 0))
        cost, node, split_child, at = best_connection(b, (5, 2))
        assert cost == 2
        assert split_child is not None
        assert at == Point(5, 0)


class TestGrowFromSource:
    def test_spans_all_pins(self):
        net = random_net(12, rng=random.Random(1))
        tree = grow_from_source(net)
        tree.validate()

    def test_respects_explicit_order(self):
        net = Net.from_points((0, 0), [(10, 0), (20, 0)])
        tree = grow_from_source(net, order=[1, 0])
        tree.validate()
        assert tree.wirelength() == 20

    def test_greedy_no_worse_than_star(self):
        for seed in range(5):
            net = random_net(9, rng=random.Random(seed))
            tree = grow_from_source(net)
            assert tree.wirelength() <= net.star_wirelength() + 1e-9


class TestSubtreeNodes:
    def test_includes_descendants(self, square_net):
        t = RoutingTree.star(square_net)
        assert subtree_nodes(t, 0) == {0, 1, 2, 3}
        assert subtree_nodes(t, 2) == {2}


class TestBestReattachment:
    def test_finds_cheaper_edge(self):
        # Sink wired to the source the long way; a parallel edge offers a
        # cheap projection.
        net = Net.from_points((0, 0), [(10, 0), (10, 4)])
        t = RoutingTree.from_edges(
            net, [((0, 0), (10, 0)), ((0, 0), (10, 4))]
        )
        pls = t.path_lengths()
        cand = best_reattachment(t, 2, pls)
        assert cand is not None
        cost, _, _, split_child, at = cand
        assert cost == 4
        assert at == Point(10, 0)

    def test_respects_max_arrival(self):
        net = Net.from_points((0, 0), [(10, 0), (10, 4)])
        t = RoutingTree.from_edges(
            net, [((0, 0), (10, 0)), ((0, 0), (10, 4))]
        )
        pls = t.path_lengths()
        # Arrival via the projection is 14; a budget of 14 allows it, 13
        # does not.
        assert best_reattachment(t, 2, pls, max_arrival=14.0) is not None
        assert best_reattachment(t, 2, pls, max_arrival=13.0) is None

    def test_never_attaches_into_own_subtree(self):
        net = Net.from_points((0, 0), [(5, 0), (10, 0)])
        t = RoutingTree.from_edges(net, [((0, 0), (5, 0)), ((5, 0), (10, 0))])
        pls = t.path_lengths()
        cand = best_reattachment(t, 1, pls, require_cheaper=False)
        if cand is not None:
            _, _, node, split_child, _ = cand
            assert node not in subtree_nodes(t, 1)


class TestWirelengthRefine:
    def test_reduces_bad_tree(self):
        net = Net.from_points((0, 0), [(10, 0), (10, 4)])
        t = RoutingTree.from_edges(
            net, [((0, 0), (10, 0)), ((0, 0), (10, 4))]
        )
        out = wirelength_refine(t)
        assert out.wirelength() < t.wirelength()
        out.validate()

    def test_honours_delay_cap(self):
        net = Net.from_points((0, 0), [(10, 0), (10, 4)])
        t = RoutingTree.from_edges(
            net, [((0, 0), (10, 0)), ((0, 0), (10, 4))]
        )
        d0 = t.delay()
        out = wirelength_refine(t, delay_cap=d0)
        assert out.delay() <= d0 + 1e-9

    def test_input_not_mutated(self):
        net = Net.from_points((0, 0), [(10, 0), (10, 4)])
        t = RoutingTree.from_edges(
            net, [((0, 0), (10, 0)), ((0, 0), (10, 4))]
        )
        w0 = t.wirelength()
        wirelength_refine(t)
        assert t.wirelength() == w0

    def test_random_nets_never_worse(self):
        rng = random.Random(4)
        for _ in range(5):
            net = random_net(10, rng=rng)
            t = RoutingTree.star(net)
            out = wirelength_refine(t, delay_cap=t.delay())
            assert out.wirelength() <= t.wirelength() + 1e-9
            out.validate()


class TestShallowRefine:
    def test_keeps_every_sink_within_budget(self):
        rng = random.Random(9)
        for _ in range(5):
            net = random_net(9, rng=rng)
            t = RoutingTree.star(net)
            eps = 0.25
            out = per_sink_shallow_refine(t, eps)
            src = net.source
            for sink, pl in zip(net.sinks, out.sink_delays()):
                assert pl <= (1 + eps) * l1(src, sink) + 1e-6
