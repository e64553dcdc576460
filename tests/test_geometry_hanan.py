"""Unit tests for the Hanan grid."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.hanan import HananGrid
from repro.geometry.net import Net, random_net
from repro.geometry.point import Point, l1


def grid_of(pins):
    return HananGrid(pins)


class TestConstruction:
    def test_distinct_coordinates(self, square_net):
        g = HananGrid.of_net(square_net)
        assert g.nx == 2 and g.ny == 2
        assert g.num_nodes == 4

    def test_shared_coordinates_collapse(self):
        g = grid_of([(0, 0), (0, 5), (5, 0)])
        assert g.nx == 2 and g.ny == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            grid_of([])

    def test_pin_nodes_in_order(self, square_net):
        g = HananGrid.of_net(square_net)
        nodes = g.pin_nodes()
        assert [g.point(n) for n in nodes] == list(square_net.pins)


class TestDistances:
    def test_dist_matches_l1(self):
        net = random_net(6, rng=random.Random(2))
        g = HananGrid.of_net(net)
        for a in g.nodes():
            for b in g.nodes():
                assert abs(g.dist(a, b) - l1(g.point(a), g.point(b))) < 1e-9

    def test_distance_array_is_dist_bit_for_bit(self):
        net = random_net(7, rng=random.Random(5))
        g = HananGrid.of_net(net)
        arr = g.distance_array()
        assert arr.shape == (g.num_nodes, g.num_nodes)
        assert arr.dtype.name == "float64"
        for a in g.nodes():
            for b in g.nodes():
                assert arr[g.flat_index(a), g.flat_index(b)] == g.dist(a, b)

    def test_gap_vector_sums_to_span(self):
        net = random_net(5, rng=random.Random(3))
        g = HananGrid.of_net(net)
        gaps = g.gap_vector()
        assert abs(sum(gaps[: g.nx - 1]) - (g.xs[-1] - g.xs[0])) < 1e-9
        assert abs(sum(gaps[g.nx - 1 :]) - (g.ys[-1] - g.ys[0])) < 1e-9

    def test_symbolic_dist_evaluates_to_dist(self):
        net = random_net(6, rng=random.Random(4))
        g = HananGrid.of_net(net)
        gaps = g.gap_vector()
        for a in g.nodes():
            for b in g.nodes():
                sym = g.symbolic_dist(a, b)
                val = sum(c * l for c, l in zip(sym, gaps))
                assert abs(val - g.dist(a, b)) < 1e-9

    def test_symbolic_dist_entries_binary(self):
        g = grid_of([(0, 0), (3, 7), (9, 2)])
        for a in g.nodes():
            for b in g.nodes():
                assert set(g.symbolic_dist(a, b)) <= {0, 1}


class TestNodes:
    def test_node_of_roundtrip(self):
        g = grid_of([(0, 0), (3, 7), (9, 2)])
        for node in g.nodes():
            assert g.node_of(g.point(node)) == node

    def test_node_of_off_grid_raises(self):
        g = grid_of([(0, 0), (3, 7)])
        with pytest.raises(KeyError):
            g.node_of((1.5, 1.5))

    def test_neighbors_count(self):
        g = grid_of([(0, 0), (5, 5), (10, 10)])  # 3x3 grid
        corner = (0, 0)
        center = (1, 1)
        assert len(list(g.neighbors(corner))) == 2
        assert len(list(g.neighbors(center))) == 4


class TestCornerPruning:
    """Lemma 2: empty-quadrant corner nodes."""

    def test_pins_never_pruned(self):
        for seed in range(5):
            net = random_net(7, rng=random.Random(seed))
            g = HananGrid.of_net(net)
            active = set(g.active_nodes())
            for node in g.pin_nodes():
                assert node in active

    def test_diagonal_pins_prune_off_diagonal_corners(self):
        # Two diagonal pins: the anti-diagonal corners have an empty
        # quadrant each and must be pruned.
        g = grid_of([(0, 0), (10, 10)])
        pruned = set(g.corner_nodes())
        assert (0, 1) in pruned  # upper-left node: empty lower-left quadrant? no:
        # (0,1) is upper-left: its upper-left quadrant contains no pin.
        assert (1, 0) in pruned
        assert (0, 0) not in pruned and (1, 1) not in pruned

    def test_full_square_nothing_pruned(self, square_net):
        g = HananGrid.of_net(square_net)
        assert g.corner_nodes() == []

    def test_active_plus_pruned_covers_grid(self):
        net = random_net(8, rng=random.Random(11))
        g = HananGrid.of_net(net)
        assert len(g.active_nodes()) + len(g.corner_nodes()) == g.num_nodes

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pruning_preserves_pins_property(self, seed):
        net = random_net(6, rng=random.Random(seed))
        g = HananGrid.of_net(net)
        active = set(g.active_nodes())
        assert set(g.pin_nodes()) <= active
