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


def quadrant_scan_corners(g):
    """Lemma 2 by its definition: scan every pin for each node's four
    closed quadrants, in real coordinates (the reference for
    ``HananGrid.corner_nodes``'s index extrema)."""
    pins = [g.point(n) for n in g.pin_nodes()]
    out = []
    for node in g.nodes():
        x, y = g.point(node)
        ll = lr = ul = ur = True
        for px, py in pins:
            if px <= x and py <= y:
                ll = False
            if px >= x and py <= y:
                lr = False
            if px <= x and py >= y:
                ul = False
            if px >= x and py >= y:
                ur = False
        if ll or lr or ul or ur:
            out.append(node)
    return out


class TestCornerNodesAgainstDefinition:
    """``corner_nodes`` returns the quadrant scan's nodes, in its order."""

    def test_random_pins(self):
        rng = random.Random(31)
        for _ in range(300):
            net = random_net(rng.randint(2, 12), rng=rng)
            g = HananGrid.of_net(net)
            assert g.corner_nodes() == quadrant_scan_corners(g)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12
        )
    )
    def test_lattice_pins_with_shared_coordinates(self, pins):
        g = grid_of(pins)
        assert g.corner_nodes() == quadrant_scan_corners(g)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_single_row_and_column_grids(self, k):
        rng = random.Random(k)
        for _ in range(20):
            ts = [rng.randint(0, k - 1) for _ in range(rng.randint(1, 6))]
            row = grid_of([(t, 0) for t in ts])  # 1 row, up to k columns
            col = grid_of([(0, t) for t in ts])  # up to k rows, 1 column
            for g in (row, col):
                assert g.corner_nodes() == quadrant_scan_corners(g) == []
