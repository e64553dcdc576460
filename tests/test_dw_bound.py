"""The incumbent bound of the array Pareto-DW engine changes no frontier.

:func:`repro.core.pareto_dw.pareto_dw` runs the array engine bounded by
two heuristic trees; the unbounded engine (``bound=False``, what the
engine-equivalence matrix runs) is the oracle. Fronts must agree
exactly: objectives by ``==`` and every tree's points and edges. The
bound tables are checked against a direct per-``(mask, node)``
computation, and the matrix's entry points must stay unbounded.
"""

import importlib
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.pareto import objectives
from repro.core.pareto_dw import (
    DWStats,
    _grid_objective,
    _incumbent_bound,
    _incumbent_trees,
    _pareto_dw_on,
    pareto_dw,
)
from repro.geometry.hanan import HananGrid
from repro.geometry.net import Net, random_net

pareto_dw_module = importlib.import_module("repro.core.pareto_dw")

LEMMA_COMBOS = list(product([False, True], repeat=3))


def solve(net, bound, stats=None, **flags):
    """One array-engine solve with trees, bounded or not."""
    return _pareto_dw_on(net, "array", stats=stats, bound=bound, **flags)


def tree_signature(front):
    return [
        (w, d, [repr(p) for p in t.points], t.edges()) for w, d, t in front
    ]


def assert_bound_exact(net, **flags):
    """Bounded == unbounded: objectives, points and edges; returns stats."""
    st_b, st_u = DWStats(), DWStats()
    bounded = solve(net, True, st_b, **flags)
    unbounded = solve(net, False, st_u, **flags)
    assert objectives(bounded) == objectives(unbounded)
    assert tree_signature(bounded) == tree_signature(unbounded)
    assert st_b.subsets == st_u.subsets
    assert st_u.bound_pruned == 0
    return st_b, st_u


def ring_net(seed, per_side=2):
    """Every sink on the Hanan-grid boundary, so Lemma 4 fires."""
    rng = random.Random(seed)
    pts = set()
    for _ in range(per_side):
        pts.add((rng.uniform(10, 90), 0.0))
        pts.add((rng.uniform(10, 90), 100.0))
        pts.add((0.0, rng.uniform(10, 90)))
        pts.add((100.0, rng.uniform(10, 90)))
    pts = sorted(pts)
    return Net.from_points(pts[0], pts[1:], name=f"ring{seed}")


#: Coordinates that collide, repeat and include a signed zero (pins
#: stay distinct: a net rejects duplicate pins).
COORDS = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 2.5, 4.0, 7.0, 7.25, 10.0])


@st.composite
def tie_heavy_nets(draw, min_degree=6, max_degree=9):
    degree = draw(st.integers(min_degree, max_degree))
    pins = draw(
        st.lists(
            st.tuples(COORDS, COORDS),
            min_size=degree,
            max_size=degree,
            unique=True,
        )
    )
    return Net.from_points(pins[0], pins[1:])


@st.composite
def spread_nets(draw, min_degree=6, max_degree=9):
    degree = draw(st.integers(min_degree, max_degree))
    seed = draw(st.integers(0, 10**6))
    grid = draw(st.sampled_from([None, 4, 9]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    net = random_net(degree, rng=random.Random(seed), grid=grid, span=90.0)
    return Net.from_points(
        (net.source.x + offset, net.source.y),
        [(s.x + offset, s.y) for s in net.sinks],
    )


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBoundedEqualsUnbounded:
    @SETTINGS
    @given(tie_heavy_nets())
    def test_collinear_duplicate_and_signed_zero_pins(self, net):
        assert_bound_exact(net)

    @SETTINGS
    @given(spread_nets())
    def test_random_nets(self, net):
        assert_bound_exact(net)

    @pytest.mark.parametrize("degree", [10, 11, 12])
    def test_high_degrees(self, degree):
        net = random_net(degree, rng=random.Random(90 + degree), grid=9, span=90.0)
        st_b, st_u = assert_bound_exact(net)
        assert st_b.bound_pruned > 0

    @pytest.mark.parametrize("lemma2,lemma3,lemma4", LEMMA_COMBOS)
    def test_every_lemma_combination(self, lemma2, lemma3, lemma4):
        flags = dict(lemma2=lemma2, lemma3=lemma3, lemma4=lemma4)
        for net in (
            random_net(8, rng=random.Random(41), grid=9, span=90.0),
            ring_net(3),
        ):
            assert_bound_exact(net, **flags)

    @pytest.mark.parametrize("seed", range(4))
    def test_ring_nets(self, seed):
        net = ring_net(seed)
        st_b, _ = assert_bound_exact(net)
        assert st_b.splits_saved_lemma4 > 0

    @pytest.mark.parametrize(
        "source,sinks",
        [
            # Collinear: the straight run is min-wire and min-delay.
            ((0.0, 0.0), [(float(i), 0.0) for i in range(1, 8)]),
            # A monotone staircase: one arborescence is optimal in both.
            ((0.0, 0.0), [(float(i), float(i)) for i in range(1, 8)]),
            # A staircase whose steps share coordinates, from a -0.0 source.
            ((-0.0, 0.0), [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 3.0),
                           (4.0, 3.0), (4.0, 4.0), (5.0, 6.0)]),
        ],
    )
    def test_single_point_front_equal_to_an_incumbent(self, source, sinks):
        # The incumbent sits exactly on the front here, so every label
        # on the optimum's path has a bound equal to it: only a strict,
        # margin-guarded comparison keeps them.
        net = Net.from_points(source, sinks)
        front = pareto_dw(net)
        assert len(front) == 1
        incumbent = [t.objective() for t in _incumbent_trees(net)]
        assert (front[0][0], front[0][1]) in incumbent
        st_b, _ = assert_bound_exact(net)
        assert st_b.bound_pruned > 0


class TestWorkCounters:
    def test_bound_cuts_work_not_subsets(self):
        # Off-lattice pins: few exact ties, so the pruned fronts are
        # rich. (On degenerate nets a candidate the pre-pass skips can
        # outlive the label that dominated it unbounded, so allocations
        # are only lower in aggregate, not per net.)
        net = random_net(9, rng=random.Random(8), span=90.0)
        st_b, st_u = assert_bound_exact(net)
        assert st_b.bound_pruned > 0
        assert st_b.merge_candidates < st_u.merge_candidates
        assert st_b.closure_allocations < st_u.closure_allocations

    @pytest.mark.parametrize(
        "degree,seed,counts",
        [
            # (bound_pruned, merge_candidates, closure_allocations,
            # closure_extensions) as literals: restructuring the engine
            # or reordering its bound tests must leave every count as is.
            (7, 21, (1084, 1755, 520, 6244)),
            (8, 22, (2081, 19348, 1635, 59760)),
            (9, 23, (16885, 114658, 7566, 349399)),
        ],
    )
    def test_bounded_work_counts_are_pinned(self, degree, seed, counts):
        net = random_net(degree, rng=random.Random(seed), span=90.0)
        stats = DWStats()
        pareto_dw(net, stats=stats)
        assert (
            stats.bound_pruned,
            stats.merge_candidates,
            stats.closure_allocations,
            stats.closure_extensions,
        ) == counts

    def test_flushed_only_by_bounded_solves(self):
        net = random_net(8, rng=random.Random(8), grid=9, span=90.0)
        obs.reset()
        obs.enable()
        try:
            pareto_dw(net, kernels=False)
            solve(net, False)
            unbounded = dict(obs.snapshot()["counters"])
            pareto_dw(net)
            bounded = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert "dw.bound_pruned" not in unbounded
        assert bounded["dw.bound_pruned"] > 0


class TestBoundTables:
    @pytest.mark.parametrize("seed", range(3))
    def test_tables_match_a_direct_computation(self, seed):
        net = random_net(7, rng=random.Random(300 + seed), grid=6, span=50.0)
        grid = HananGrid.of_net(net)
        corner = set(grid.corner_nodes())
        nodes = [v for v in grid.nodes() if v not in corner]
        node_flat = np.array([grid.flat_index(v) for v in nodes])
        beyond, lb_w, lb_d = _incumbent_bound(
            grid, grid.distance_array(), node_flat, _incumbent_trees(net)
        )
        assert beyond is not None
        pins = grid.pin_nodes()
        source, sinks = pins[0], pins[1:]
        origin = (0, 0)
        for mask in range(1 << len(sinks)):
            outside = [s for i, s in enumerate(sinks) if not mask >> i & 1]
            for vi, v in enumerate(nodes):
                box = outside + [source, v]
                xs = [grid.dist(origin, (ix, 0)) for ix, _ in box]
                ys = [grid.dist(origin, (0, iy)) for _, iy in box]
                hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
                assert lb_w[mask, vi] == hpwl
        for vi, v in enumerate(nodes):
            assert lb_d[vi] == grid.dist(source, v)

    def test_incumbents_measured_in_the_grid_metric(self):
        net = random_net(9, rng=random.Random(5), span=1000.0)
        grid = HananGrid.of_net(net)
        for tree in _incumbent_trees(net):
            w, d = _grid_objective(tree, grid, grid.distance_array())
            tw, td = tree.objective()
            assert w == pytest.approx(tw, rel=1e-12)
            assert d == pytest.approx(td, rel=1e-12)


class TestEcoPathStaysUnbounded:
    """Only :func:`pareto_dw`'s dispatch bounds a solve; the private
    entry points the engine-equivalence matrix runs stay unbounded."""

    def test_engine_matrix_entry_point_is_unbounded(self, monkeypatch):
        # The engine-equivalence tests call the impl without incumbents;
        # only pareto_dw's dispatch passes them.
        seen = []
        real = pareto_dw_module._pareto_dw_array_impl

        def spy(net, **kw):
            seen.append(kw.get("incumbents"))
            return real(net, **kw)

        monkeypatch.setattr(pareto_dw_module, "_pareto_dw_array_impl", spy)
        net = random_net(7, rng=random.Random(13), grid=9, span=90.0)
        pareto_dw(net)
        _pareto_dw_on(net, "array")
        assert seen[0] is not None and seen[1] is None
