"""Tests for the congestion heatmap and flow reporting."""

import random

import pytest

from repro.baselines.rsmt import rsmt
from repro.congestion.model import CapacityGrid
from repro.eval.design_flow import DesignFlowConfig, route_design
from repro.eval.flow_report import render_flow_detail, render_flow_summary
from repro.geometry.net import random_net
from repro.viz.heatmap import _heat_color, congestion_heatmap_svg


class TestHeatColor:
    def test_extremes(self):
        assert _heat_color(0.0) == "rgb(255,255,255)"
        assert _heat_color(1.0) == "rgb(214,39,40)"

    def test_clamping(self):
        assert _heat_color(-1.0) == _heat_color(0.0)
        assert _heat_color(5.0) == _heat_color(1.0)

    def test_midpoint_is_yellowish(self):
        assert _heat_color(0.5) == "rgb(255,220,80)"


class TestHeatmapSvg:
    def _map(self):
        base = [[1.0] * 4 for _ in range(4)]
        base[1][1] = 9.0
        return CapacityGrid(0, 0, 25.0, base)

    def test_well_formed(self):
        svg = congestion_heatmap_svg(self._map(), title="demand")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") >= 16 + 1  # cells + background
        assert "demand" in svg

    def test_tree_overlay(self):
        net = random_net(5, rng=random.Random(1), span=100.0)
        tree = rsmt(net)
        svg = congestion_heatmap_svg(self._map(), trees=[tree])
        assert "<line" in svg

    def test_vmax_override(self):
        svg = congestion_heatmap_svg(self._map(), vmax=100.0)
        assert "max 100.0" in svg

    def test_default_vmax_is_the_peak_price(self):
        svg = congestion_heatmap_svg(self._map())
        assert "max 9.0" in svg
        assert svg.count('fill="rgb(214,39,40)"') == 1  # the one hot cell


class TestFlowReport:
    def _results(self):
        rng = random.Random(5)
        nets = [
            random_net(rng.choice((4, 5)), rng=rng, span=500.0, name=f"r{i}")
            for i in range(4)
        ]
        config = DesignFlowConfig(span=500.0, cells=8)
        return {
            s: route_design(nets, strategy=s, config=config)
            for s in ("pareto", "rsmt")
        }

    def test_summary_renders_all_strategies(self):
        out = render_flow_summary(self._results())
        assert "pareto" in out and "rsmt" in out
        assert "overflow" in out

    def test_detail_limits_rows(self):
        results = self._results()
        out = render_flow_detail(results["pareto"], limit=2)
        assert "2 of 4 nets" in out


class TestOveruseHeatmapSvg:
    def _grid(self):
        pytest.importorskip("numpy")
        from repro.congestion.model import CapacityGrid
        from repro.geometry.point import Point
        from repro.routing.embedding import Segment

        grid = CapacityGrid.uniform(0, 0, 100, 100, 4, 4, capacity=10.0)
        # Push one cell over capacity.
        seg = Segment(Point(0, 5), Point(25, 5))
        grid.commit(*grid.rasterize_segment(seg)[:2])
        return grid

    def test_well_formed_and_marks_overuse(self):
        from repro.viz.heatmap import overuse_heatmap_svg

        svg = overuse_heatmap_svg(self._grid(), title="after pass 3")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") >= 16 + 1
        assert "after pass 3" in svg and "1 overused" in svg
        # Overused cells are outlined in black, the rest in grey.
        assert 'stroke="#000"' in svg and 'stroke="#ddd"' in svg

    def test_tree_overlay_and_vmax(self):
        from repro.viz.heatmap import overuse_heatmap_svg

        net = random_net(4, rng=random.Random(9), span=100.0)
        svg = overuse_heatmap_svg(
            self._grid(), trees=[rsmt(net)], vmax=4.0
        )
        assert "<line" in svg
        assert "peak util 4.00" in svg

    def test_infinite_capacity_renders_cold(self):
        pytest.importorskip("numpy")
        from repro.congestion.model import CapacityGrid
        from repro.viz.heatmap import overuse_heatmap_svg

        grid = CapacityGrid.uniform(0, 0, 100, 100, 4, 4)
        svg = overuse_heatmap_svg(grid)
        assert "0 overused" in svg
