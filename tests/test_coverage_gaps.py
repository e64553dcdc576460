"""Gap-filling tests: module hygiene, cross-checks, and edge cases not
covered by the per-module suites."""

import importlib
import pkgutil
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.congestion.model import CapacityGrid
from repro.core.batch import BatchResult
from repro.core.pareto_dw import pareto_frontier
from repro.exceptions import (
    DegreeTooLargeError,
    LookupTableError,
    ReproError,
)
from repro.geometry.net import Net, random_net
from repro.geometry.transforms import ALL_TRANSFORMS
from repro.lut.generator import solve_pattern
from repro.routing.embedding import Segment
from repro.routing.topology import GridTopology
from repro.geometry.point import Point


class TestPackageHygiene:
    def test_every_module_imports(self):
        failures = []
        for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            try:
                importlib.import_module(mod.name)
            except Exception as exc:  # pragma: no cover - report aid
                failures.append((mod.name, exc))
        assert not failures

    def test_every_module_has_docstring(self):
        for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            m = importlib.import_module(mod.name)
            assert m.__doc__, f"{mod.name} lacks a module docstring"

    def test_public_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_exception_hierarchy(self):
        assert issubclass(DegreeTooLargeError, LookupTableError)
        assert issubclass(LookupTableError, ReproError)
        err = DegreeTooLargeError(15, 9)
        assert err.degree == 15 and err.limit == 9
        assert "15" in str(err)


class TestSymbolicTopologyCrossCheck:
    """The generator's (W, D) must agree with an independent recomputation
    from the stored topology's edge set."""

    @pytest.mark.parametrize("perm,src", [((0, 1, 2), 0), ((1, 0, 2), 2), ((2, 0, 1), 1)])
    def test_w_vectors_match_topology(self, perm, src):
        ps = solve_pattern(perm, src)
        n = len(perm)
        pins = [(i, perm[i]) for i in range(n)]
        source = pins[src]
        sinks = tuple(p for i, p in enumerate(pins) if i != src)
        for sol in ps.solutions:
            topo = GridTopology(
                nx=n, ny=n, source=source, sinks=sinks,
                edges=tuple(sol.payload),
            )
            w_topo, rows_topo = topo.symbolic_solution()
            # The DP's W may double-count shared gaps (multiset union);
            # the topology recomputation is the canonical value and never
            # exceeds it componentwise.
            assert all(a <= b for a, b in zip(w_topo, sol.w))
            # Delay rows must agree as multisets when no multiset overlap
            # occurred (the common case: equality of the wirelengths).
            if w_topo == sol.w:
                assert sorted(rows_topo) == sorted(sol.rows)

    def test_random_gap_evaluation_consistency(self):
        rng = random.Random(3)
        ps = solve_pattern((2, 0, 3, 1), 1)
        n = 4
        pins = [(i, (2, 0, 3, 1)[i]) for i in range(n)]
        sinks = tuple(p for i, p in enumerate(pins) if i != 1)
        for sol in ps.solutions:
            topo = GridTopology(
                nx=n, ny=n, source=pins[1], sinks=sinks,
                edges=tuple(sol.payload),
            )
            for _ in range(5):
                gaps = [rng.uniform(0.5, 4.0) for _ in range(2 * (n - 1))]
                wt, dt = topo.evaluate(gaps)
                ws, ds = sol.evaluate(gaps)
                assert wt <= ws + 1e-9
                assert abs(dt - ds) < 1e-9 or dt <= ds + 1e-9


class TestTransformGroupClosure:
    def test_composition_stays_in_group(self):
        n = 4
        nodes = [(i, j) for i in range(n) for j in range(n)]
        table = {}
        for t in ALL_TRANSFORMS:
            key = tuple(t.apply_node(v, n, n) for v in nodes)
            table[key] = t
        for a in ALL_TRANSFORMS:
            for b in ALL_TRANSFORMS:
                composed = tuple(
                    b.apply_node(a.apply_node(v, n, n), n, n) for v in nodes
                )
                assert composed in table, "D4 not closed under composition"


class TestCongestionCells:
    def test_segment_cells_partition_length(self):
        grid = CapacityGrid.uniform(0, 0, 100, 100, 10, 10)
        seg = Segment(Point(7, 33), Point(81, 33))
        cells = grid.segment_cells(seg)
        assert abs(sum(length for _c, length in cells) - seg.length) < 1e-9
        assert all(length > 0 for _c, length in cells)

    def test_deposit_accumulates_in_range_only(self):
        grid = CapacityGrid.uniform(0, 0, 100, 100, 10, 10)
        idx, lengths, outside = grid.rasterize_segment(
            Segment(Point(-20, 5), Point(20, 5))
        )
        grid.commit(idx, lengths)
        assert abs(grid.demand.sum() - 20) < 1e-9  # only the in-range half lands
        assert abs(outside - 20) < 1e-9

    def test_deposit_scale(self):
        grid = CapacityGrid.uniform(0, 0, 100, 100, 10, 10)
        idx, lengths, _ = grid.rasterize_segment(Segment(Point(0, 5), Point(10, 5)))
        grid.commit(idx, 2.0 * lengths)
        assert abs(grid.demand[0, 0] - 20) < 1e-9


class TestBatchResult:
    def test_properties(self):
        r = BatchResult(
            fronts={"a": [(1.0, 1.0, None)], "b": [(2.0, 2.0, None), (3.0, 1.0, None)]},
            seconds=2.0,
        )
        assert r.nets_per_second == 1.0
        assert r.total_solutions == 3

    def test_zero_seconds(self):
        r = BatchResult(fronts={}, seconds=0.0)
        assert r.nets_per_second == 0.0


grid_coords = st.integers(0, 12)


@st.composite
def tiny_nets(draw):
    pts = set()
    while len(pts) < 4:
        pts.add((draw(grid_coords), draw(grid_coords)))
    pts = sorted(pts)
    return Net.from_points(pts[0], pts[1:])


class TestLutHypothesis:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.large_base_example,
        ],
    )
    @given(tiny_nets())
    def test_shipped_table_exact_on_random_degree4(self, net):
        from repro.lut.default import default_table

        table = default_table()
        got = [(round(w, 9), round(d, 9)) for w, d, _ in table.lookup(net)]
        want = [(round(w, 9), round(d, 9)) for w, d in pareto_frontier(net)]
        assert got == want


class TestMetricsEdgeCases:
    def test_average_curves_method_subset(self):
        from repro.eval.metrics import NetComparison, average_curves

        row = NetComparison(
            net_name="x", degree=4,
            frontier=[(1.0, 1.0, None)],
            methods={"A": [(1.0, 1.0, None)], "B": [(2.0, 2.0, None)]},
        )
        curves = average_curves(
            [row], w_refs={"x": 1.0}, d_refs={"x": 1.0},
            budgets=[1.0], methods=["A"],
        )
        assert len(curves) == 1 and curves[0].method == "A"

    def test_curve_dominates_slack(self):
        from repro.eval.metrics import AveragedCurve, curve_dominates

        a = AveragedCurve("a", [1], [1.05])
        b = AveragedCurve("b", [1], [1.0])
        assert not curve_dominates(a, b)
        assert curve_dominates(a, b, slack=0.1)
