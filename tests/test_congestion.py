"""Tests for the congestion extension (tri-objective routing)."""

import random

import pytest

from repro.congestion.model import CapacityGrid, np, scan_cells
from repro.congestion.pareto3 import (
    dominates3,
    is_pareto_front3,
    pareto_filter3,
    project_wd,
)
from repro.congestion.router import (
    congestion_annotated_front,
    embed_min_congestion,
    pareto_dw3,
)
from repro.core.pareto_dw import pareto_frontier
from repro.exceptions import DegreeTooLargeError
from repro.geometry.net import Net, random_net
from repro.baselines.rsmt import rsmt
from repro.routing.embedding import Segment, embed_edge
from repro.geometry.point import Point


def flat_map(weight=1.0, span=100.0, cells=10):
    return CapacityGrid.uniform(0, 0, span, span, cells, cells, weight=weight)


def hotspot_map(span=100.0, cells=10, where=(4, 4), radius=2, hot=10.0):
    # The base weights are final before the grid is built: the price
    # cache does not watch in-place edits of ``base``.
    base = [[1.0] * cells for _ in range(cells)]
    cx, cy = where
    for ix in range(max(0, cx - radius), min(cells, cx + radius + 1)):
        for iy in range(max(0, cy - radius), min(cells, cy + radius + 1)):
            base[ix][iy] = hot
    return CapacityGrid(0, 0, span / cells, base)


def hot_cells(grid):
    return sorted(
        (ix, iy)
        for ix in range(grid.nx)
        for iy in range(grid.ny)
        if grid.base[ix, iy] != 1.0
    )


class TestCongestionMap:
    """A fresh grid as a static congestion map: costs integrate its
    base weights."""

    def test_uniform_cost_equals_length(self):
        cmap = flat_map()
        seg = Segment(Point(10, 20), Point(60, 20))
        assert abs(cmap.segment_cost(seg) - 50) < 1e-9

    def test_weighted_cell_scales_cost(self):
        cmap = hotspot_map(where=(2, 2), radius=0, hot=5.0)
        # Horizontal run through cell (2, 2) = x in [20,30), y in [20,30).
        seg = Segment(Point(20, 25), Point(30, 25))
        assert abs(cmap.segment_cost(seg) - 50) < 1e-9

    def test_partial_cell_crossing(self):
        cmap = hotspot_map(where=(2, 2), radius=0, hot=5.0)
        seg = Segment(Point(25, 25), Point(35, 25))  # half hot, half cool
        assert abs(cmap.segment_cost(seg) - (5 * 5.0 + 5 * 1.0)) < 1e-9

    def test_outside_region_uses_outside_weight(self):
        cmap = flat_map(span=100.0)
        cmap.outside_weight = 3.0
        seg = Segment(Point(-10, 5), Point(0, 5))
        assert abs(cmap.segment_cost(seg) - 30) < 1e-9

    def test_vertical_cost(self):
        cmap = hotspot_map(where=(0, 0), radius=0, hot=2.0)
        seg = Segment(Point(5, 0), Point(5, 10))
        assert abs(cmap.segment_cost(seg) - 20) < 1e-9

    def test_best_edge_cost_picks_cheaper_l(self):
        # Hot square in the lower-right: the lower-L crosses it, the
        # upper-L avoids it.
        cmap = hotspot_map(where=(8, 0), radius=1, hot=10.0)
        cost, lower = cmap.best_edge_cost((70, 5), (99, 30))
        alt = cmap.edge_cost((70, 5), (99, 30), lower_l=True)
        assert cost <= alt
        assert not lower  # upper-L avoids the hot corner

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityGrid(0, 0, 0.0, [[1.0]])
        with pytest.raises(ValueError):
            CapacityGrid(0, 0, 1.0, [])
        with pytest.raises(ValueError):
            CapacityGrid.uniform(0, 0, 100, 50, 10, 10)

    def test_random_hotspots_deterministic(self):
        a = CapacityGrid.random_hotspots(0, 0, 100, 10, rng=random.Random(1))
        b = CapacityGrid.random_hotspots(0, 0, 100, 10, rng=random.Random(1))
        assert np.array_equal(a.base, b.base)

    # Hot cells (and the next draw of the rng) recorded from the weight
    # map class CapacityGrid replaced: same draws, same cells.
    HOTSPOTS = {
        (1, 8.0): (
            [(2, 9), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (5, 0),
             (5, 1), (5, 2), (6, 6), (6, 7), (6, 8), (7, 6), (7, 7), (7, 8),
             (8, 6), (8, 7), (8, 8)],
            807,
        ),
        (100, 10.0): (
            [(1, 5), (1, 6), (1, 7), (1, 8), (2, 5), (2, 6), (2, 7), (2, 8),
             (3, 5), (3, 6), (3, 7), (3, 8), (6, 8)],
            545,
        ),
    }

    @pytest.mark.parametrize("seed, hot", list(HOTSPOTS))
    def test_random_hotspots_pinned_cells(self, seed, hot):
        cells, next_draw = self.HOTSPOTS[(seed, hot)]
        rng = random.Random(seed)
        grid = CapacityGrid.random_hotspots(
            0, 0, 100, 10, hotspots=3, hot_weight=hot, rng=rng
        )
        assert (grid.nx, grid.ny, grid.cell) == (10, 10, 10.0)
        assert hot_cells(grid) == cells
        assert set(grid.base.ravel().tolist()) == {1.0, hot}
        assert rng.randrange(1000) == next_draw
        assert np.isinf(grid.capacity).all()


class TestPareto3:
    def test_dominance(self):
        assert dominates3((1, 1, 1), (2, 2, 2))
        assert dominates3((1, 1, 1), (1, 1, 2))
        assert not dominates3((1, 1, 1), (1, 1, 1))
        assert not dominates3((1, 3, 1), (2, 2, 2))

    def test_filter_keeps_tradeoffs(self):
        sols = [
            (1, 3, 3, "a"),
            (3, 1, 3, "b"),
            (3, 3, 1, "c"),
            (4, 4, 4, "dominated"),
        ]
        out = pareto_filter3(sols)
        assert {s[3] for s in out} == {"a", "b", "c"}
        assert is_pareto_front3(out)

    def test_filter_dedupes(self):
        out = pareto_filter3([(1, 1, 1, "x"), (1, 1, 1, "y")])
        assert len(out) == 1

    def test_project_wd(self):
        sols = [(1, 3, 9, "a"), (2, 2, 1, "b"), (1.5, 2.8, 0.5, "c")]
        wd = project_wd(sols)
        assert [(s[0], s[1]) for s in wd] == [(1, 3), (1.5, 2.8), (2, 2)]


class TestParetoDw3:
    def test_uniform_map_reduces_to_2d(self):
        """With weight-1 congestion everywhere, c is determined by the
        embedding of the tree, and the (w, d) projection of the 3-D front
        equals the 2-D frontier."""
        rng = random.Random(1)
        for _ in range(3):
            net = random_net(5, rng=rng, span=100.0)
            front3 = pareto_dw3(net, flat_map())
            wd = [(round(w, 6), round(d, 6)) for w, d, _t in project_wd(front3)]
            exact = [
                (round(w, 6), round(d, 6)) for w, d in pareto_frontier(net)
            ]
            assert wd == exact

    def test_front_is_3d_antichain_of_valid_trees(self):
        net = random_net(5, rng=random.Random(2), span=100.0)
        cmap = CapacityGrid.random_hotspots(
            0, 0, 100, 10, rng=random.Random(3)
        )
        front = pareto_dw3(net, cmap)
        assert front and is_pareto_front3(front)
        for w, d, c, tree in front:
            tree.validate()
            assert c >= 0

    def test_hotspot_creates_congestion_tradeoff(self):
        """A hot region between source and sink forces a wire/congestion
        trade-off: the direct route is short but hot, the detour longer
        but cool."""
        net = Net.from_points((5, 50), [(95, 50), (50, 95)])
        cmap = hotspot_map(where=(5, 5), radius=1, hot=50.0)
        front = pareto_dw3(net, cmap, max_degree=6)
        costs = [c for _w, _d, c, _t in front]
        # The frontier must offer at least one escape from the hot path.
        assert len(front) >= 1
        assert min(costs) < cmap.edge_cost((5, 50), (95, 50))

    def test_degree_guard(self):
        with pytest.raises(DegreeTooLargeError):
            pareto_dw3(random_net(8, rng=random.Random(0)), flat_map())


class TestEmbedding:
    def test_embedding_choice_never_hurts(self):
        rng = random.Random(4)
        for _ in range(3):
            net = random_net(8, rng=rng, span=100.0)
            tree = rsmt(net)
            cmap = CapacityGrid.random_hotspots(
                0, 0, 100, 10, rng=random.Random(5)
            )
            _, best = embed_min_congestion(tree, cmap)
            fixed = sum(
                cmap.edge_cost(tree.points[p], tree.points[c])
                for c, p in tree.edges()
            )
            assert best <= fixed + 1e-9

    def test_segments_cover_wirelength(self):
        net = random_net(6, rng=random.Random(6), span=100.0)
        tree = rsmt(net)
        segs, _ = embed_min_congestion(tree, flat_map())
        assert abs(sum(s.length for s in segs) - tree.wirelength()) < 1e-9


class TestAnnotatedFront:
    def test_any_degree(self):
        net = random_net(14, rng=random.Random(7), span=100.0)
        cmap = CapacityGrid.random_hotspots(0, 0, 100, 10, rng=random.Random(8))
        front = congestion_annotated_front(net, cmap)
        assert front and is_pareto_front3(front)

    def test_exact_wd_projection_small(self):
        net = random_net(6, rng=random.Random(9), span=100.0)
        front = congestion_annotated_front(net, flat_map())
        wd = [(round(w, 6), round(d, 6)) for w, d, _t in project_wd(front)]
        exact = [(round(w, 6), round(d, 6)) for w, d in pareto_frontier(net)]
        assert wd == exact


# --------------------------------------------------------------- scan_cells


class TestScanCells:
    """Cell rasterization, including the cell-boundary regression cases."""

    def _scan(self, *args):
        from repro.congestion.model import scan_cells

        return scan_cells(*args)

    def test_interior_crossing(self):
        assert self._scan(0.0, 10.0, 5.0, 25.0) == [
            (0, 5.0),
            (1, 10.0),
            (2, 5.0),
        ]

    def test_start_on_cell_boundary_charges_only_right_cell(self):
        # Regression: a span starting exactly on a cell edge used to
        # produce a zero-length sliver in the left cell.
        assert self._scan(0.0, 10.0, 10.0, 20.0) == [(1, 10.0)]

    def test_end_on_cell_boundary_charges_only_left_cell(self):
        assert self._scan(0.0, 10.0, 5.0, 10.0) == [(0, 5.0)]

    def test_aligned_multicell_span(self):
        assert self._scan(0.0, 10.0, 10.0, 40.0) == [
            (1, 10.0),
            (2, 10.0),
            (3, 10.0),
        ]

    def test_zero_length_span_is_empty(self):
        assert self._scan(0.0, 10.0, 15.0, 15.0) == []
        assert self._scan(0.0, 10.0, 20.0, 20.0) == []  # on a boundary

    def test_negative_origin(self):
        assert self._scan(-10.0, 10.0, -5.0, 5.0) == [(0, 5.0), (1, 5.0)]

    def test_lengths_cover_span(self):
        cells = self._scan(0.0, 7.0, 3.3, 29.1)
        assert sum(length for _i, length in cells) == pytest.approx(25.8)
        assert [i for i, _l in cells] == sorted({i for i, _l in cells})

    def test_boundary_start_segment_cost_skips_left_cell(self):
        # The observable bug: a hot cell left of the boundary must not
        # leak into the cost of a segment starting on that boundary.
        cmap = hotspot_map(where=(0, 0), radius=0, hot=100.0)
        seg = Segment(Point(10, 5), Point(20, 5))  # starts at cell edge
        assert abs(cmap.segment_cost(seg) - 10.0) < 1e-9

    def test_zero_length_segment_costs_nothing(self):
        cmap = hotspot_map(where=(1, 0), radius=0, hot=100.0)
        seg = Segment(Point(10, 5), Point(10, 5))
        assert cmap.segment_cost(seg) == 0.0
        assert cmap.segment_cells(seg) == []


# ------------------------------------------------------- CapacityGrid state


class TestCapacityGrid:
    def test_prices_equal_base_when_idle(self):
        grid = CapacityGrid.uniform(0, 0, 100, 100, 10, 10, capacity=50.0)
        assert np.array_equal(grid.prices(), grid.base)
        assert grid.weight_at(3, 4) == 1.0

    def test_pathfinder_price_formula(self):
        grid = CapacityGrid.uniform(
            0, 0, 100, 100, 10, 10, capacity=10.0, pres_fac=0.5, hist_fac=0.3
        )
        seg = Segment(Point(0, 5), Point(25, 5))
        grid.commit(*grid.rasterize_segment(seg)[:2])
        grid.commit(*grid.rasterize_segment(seg)[:2])
        # Cells 0 and 1 hold 20 demand (overuse 10), cell 2 holds 10.
        assert grid.weight_at(0, 0) == pytest.approx(1.0 * (1 + 0.5 * 10.0))
        assert grid.weight_at(2, 0) == pytest.approx(1.0)
        grid.update_history(gain=1.0)
        assert grid.weight_at(0, 0) == pytest.approx(
            (1.0 + 0.3 * 10.0) * (1 + 0.5 * 10.0)
        )

    def test_commit_ripup_round_trip_restores_zero_demand(self):
        grid = CapacityGrid.uniform(0, 0, 100, 100, 10, 10, capacity=5.0)
        segs = [
            Segment(Point(3, 7), Point(88, 7)),
            Segment(Point(40, 0), Point(40, 99)),
        ]
        arrays = [grid.rasterize_segment(s)[:2] for s in segs]
        for idx, lengths in arrays:
            grid.commit(idx, lengths)
        assert grid.demand.sum() > 0
        for idx, lengths in arrays:
            grid.ripup(idx, lengths)
        assert np.allclose(grid.demand, 0.0)
        assert grid.total_overuse() == 0.0

    def test_overuse_accounting(self):
        grid = CapacityGrid.uniform(0, 0, 100, 100, 10, 10, capacity=4.0)
        seg = Segment(Point(0, 5), Point(10, 5))  # 10 units in cell (0,0)
        grid.commit(*grid.rasterize_segment(seg)[:2])
        assert grid.total_overuse() == pytest.approx(6.0)
        assert grid.overused_cells() == 1
        assert grid.max_utilization() == pytest.approx(2.5)

    def test_fresh_resets_state_but_keeps_frame(self):
        grid = CapacityGrid.uniform(
            0, 0, 100, 100, 10, 10, capacity=5.0, pres_fac=2.0, hist_fac=1.0
        )
        grid.commit(
            *grid.rasterize_segment(Segment(Point(0, 5), Point(50, 5)))[:2]
        )
        grid.update_history()
        fresh = grid.fresh()
        assert fresh.demand.sum() == 0.0 and fresh.history.sum() == 0.0
        assert fresh.pres_fac == 0.0 and fresh.hist_fac == 0.0
        assert np.array_equal(fresh.base, grid.base)
        assert np.array_equal(fresh.capacity, grid.capacity)
        assert (fresh.nx, fresh.ny, fresh.cell) == (
            grid.nx,
            grid.ny,
            grid.cell,
        )

    def test_scalar_costs_follow_the_current_prices(self):
        grid = CapacityGrid.uniform(0, 0, 100, 100, 10, 10, capacity=5.0)
        probe = Segment(Point(0, 5), Point(30, 5))
        assert grid.segment_cost(probe) == 30.0
        arrays = grid.rasterize_segment(Segment(Point(0, 5), Point(10, 5)))
        grid.commit(*arrays[:2])
        grid.pres_fac = 0.5
        # Cell (0, 0) is 5 over capacity: price 1 + 0.5 * 5.
        assert grid.segment_cost(probe) == 10.0 * 3.5 + 20.0
        grid.escalate(2.0)
        assert grid.edge_cost((0, 5), (30, 5)) == 10.0 * 6.0 + 20.0
        grid.ripup(*arrays[:2])
        assert grid.tree_cost(rsmt(Net.from_points((0, 5), [(30, 5)]))) == 30.0


class ListMap:
    """Test oracle: a plain list-of-lists weight map whose costs are
    integrated straight from :func:`scan_cells`, one cell at a time."""

    def __init__(self, weights, cell, outside_weight):
        self.weights = weights
        self.cell = cell
        self.outside_weight = outside_weight

    def _w(self, ix, iy):
        if 0 <= ix < len(self.weights) and 0 <= iy < len(self.weights[0]):
            return self.weights[ix][iy]
        return self.outside_weight

    def segment_cost(self, seg):
        cost = 0.0
        if seg.is_horizontal:
            iy = int(seg.a.y // self.cell)
            lo, hi = sorted((seg.a.x, seg.b.x))
            for ix, length in scan_cells(0.0, self.cell, lo, hi):
                cost += length * self._w(ix, iy)
        else:
            ix = int(seg.a.x // self.cell)
            lo, hi = sorted((seg.a.y, seg.b.y))
            for iy, length in scan_cells(0.0, self.cell, lo, hi):
                cost += length * self._w(ix, iy)
        return cost

    def edge_cost(self, a, b, lower_l=True):
        return sum(self.segment_cost(s) for s in embed_edge(a, b, lower_l))

    def best_edge_cost(self, a, b):
        lo = self.edge_cost(a, b, True)
        hi = self.edge_cost(a, b, False)
        return (lo, True) if lo <= hi else (hi, False)

    def tree_cost(self, tree):
        total = 0.0
        for child, parent in tree.edges():
            total += self.best_edge_cost(
                tree.points[parent], tree.points[child]
            )[0]
        return total


class TestCapacityGridBitIdentity:
    """A grid's costs are bit-identical to the cell-by-cell oracle on its
    weights, in and outside the covered region, for every single-net
    API."""

    def _pair(self, seed):
        grid = CapacityGrid.random_hotspots(
            0, 0, 100, 10, rng=random.Random(seed)
        )
        grid.outside_weight = 2.5
        return ListMap(grid.base.tolist(), grid.cell, 2.5), grid

    def test_segment_costs_bit_identical(self):
        cmap, grid = self._pair(20)
        rng = random.Random(21)
        for _ in range(50):
            x0, y0 = rng.uniform(-10, 110), rng.uniform(-10, 110)
            if rng.random() < 0.5:
                seg = Segment(Point(x0, y0), Point(rng.uniform(-10, 110), y0))
            else:
                seg = Segment(Point(x0, y0), Point(x0, rng.uniform(-10, 110)))
            assert grid.segment_cost(seg) == cmap.segment_cost(seg)

    def test_tree_and_edge_costs_bit_identical(self):
        cmap, grid = self._pair(22)
        rng = random.Random(23)
        for _ in range(5):
            net = random_net(7, rng=rng, span=100.0)
            tree = rsmt(net)
            assert grid.tree_cost(tree) == cmap.tree_cost(tree)
            for child, parent in tree.edges():
                a, b = tree.points[parent], tree.points[child]
                assert grid.best_edge_cost(a, b) == cmap.best_edge_cost(a, b)

    def test_embed_min_congestion_bit_identical(self):
        cmap, grid = self._pair(24)
        rng = random.Random(25)
        for _ in range(5):
            tree = rsmt(random_net(6, rng=rng, span=100.0))
            segs_map, cost_map = embed_min_congestion(tree, cmap)
            segs_grid, cost_grid = embed_min_congestion(tree, grid)
            assert cost_grid == cost_map
            assert segs_grid == segs_map

    def test_pareto_dw3_bit_identical(self):
        cmap, grid = self._pair(26)
        net = random_net(5, rng=random.Random(27), span=100.0)
        front_map = pareto_dw3(net, cmap)
        front_grid = pareto_dw3(net, grid)
        assert [(w, d, c) for w, d, c, _t in front_map] == [
            (w, d, c) for w, d, c, _t in front_grid
        ]

    def test_annotated_front_bit_identical(self):
        cmap, grid = self._pair(28)
        net = random_net(12, rng=random.Random(29), span=100.0)
        front_map = congestion_annotated_front(net, cmap)
        front_grid = congestion_annotated_front(net, grid)
        assert [(w, d, c) for w, d, c, _t in front_map] == [
            (w, d, c) for w, d, c, _t in front_grid
        ]


# ------------------------------------------------------ property tests


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.congestion.pareto3 import set_free, weakly_dominates3  # noqa: E402

# The tie-heavy pool of the frontier-kernel property tests: small
# integers for frequent exact ties, non-dyadic floats for rounding.
coord3 = st.one_of(
    st.integers(0, 6).map(float),
    st.sampled_from([0.1, 0.3, 1.7, 2.5, 3.3]),
)

few = settings(max_examples=150, deadline=None)


@st.composite
def solution3_lists(draw, max_size=10):
    """Unsorted, duplicate-laden 3-objective solution lists with
    distinct payload indices so tie-breaking is observable."""
    n = draw(st.integers(0, max_size))
    return [
        (draw(coord3), draw(coord3), draw(coord3), idx) for idx in range(n)
    ]


class TestPareto3Properties:
    @few
    @given(solution3_lists())
    def test_filter_output_is_an_antichain(self, sols):
        assert is_pareto_front3(pareto_filter3(sols))

    @few
    @given(solution3_lists())
    def test_ties_collapse_to_first_seen_payload(self, sols):
        # Exact objective duplicates keep the earliest payload; no
        # objective triple survives twice.
        out = pareto_filter3(sols)
        first = {}
        for s in sols:
            first.setdefault((s[0], s[1], s[2]), s[3])
        seen_objs = [(s[0], s[1], s[2]) for s in out]
        assert len(seen_objs) == len(set(seen_objs))
        for s in out:
            assert s[3] == first[(s[0], s[1], s[2])]

    @few
    @given(solution3_lists())
    def test_filter_is_idempotent_and_sorted(self, sols):
        out = pareto_filter3(sols)
        assert pareto_filter3(out) == out
        assert out == sorted(out, key=lambda s: (s[0], s[1], s[2]))

    @few
    @given(solution3_lists())
    def test_survivors_dominate_everything_dropped(self, sols):
        out = pareto_filter3(sols)
        kept_objs = {(s[0], s[1], s[2]) for s in out}
        for s in set_free(sols):
            obj = (s[0], s[1], s[2])
            if obj not in kept_objs:
                assert any(
                    weakly_dominates3(k, obj) for k in kept_objs
                ), obj


class TestEmbedDeterminismProperties:
    @few
    @given(st.integers(0, 500), st.integers(0, 500))
    def test_embed_min_congestion_is_deterministic(self, net_seed, map_seed):
        # Same tree + same map => identical segments and identical cost,
        # bit for bit — the property the negotiator's replay (and the
        # cache tiers above it) depend on.
        net = random_net(5, rng=random.Random(net_seed), span=100.0)
        tree = rsmt(net)
        cmap = CapacityGrid.random_hotspots(
            0, 0, 100, 10, rng=random.Random(map_seed)
        )
        segs_a, cost_a = embed_min_congestion(tree, cmap)
        segs_b, cost_b = embed_min_congestion(tree, cmap)
        assert cost_a == cost_b
        assert segs_a == segs_b

    @few
    @given(st.integers(0, 500))
    def test_embedding_cost_matches_segment_prices(self, seed):
        # The reported min cost is exactly the sum of the chosen
        # segments' costs under the same map.
        rng = random.Random(seed)
        net = random_net(5, rng=rng, span=100.0)
        tree = rsmt(net)
        cmap = CapacityGrid.random_hotspots(
            0, 0, 100, 10, rng=random.Random(seed + 1)
        )
        segs, cost = embed_min_congestion(tree, cmap)
        assert cost == pytest.approx(
            sum(cmap.segment_cost(s) for s in segs), rel=1e-12
        )
