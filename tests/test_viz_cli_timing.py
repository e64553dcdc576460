"""Tests for visualisation, CLI, and the delay models."""

import random

import pytest

from repro.baselines.rsmt import rsmt
from repro.baselines.salt import salt
from repro.cli import main
from repro.core.pareto_dw import pareto_dw
from repro.geometry.net import Net, random_net
from repro.io.nets_format import save_nets
from repro.routing.tree import RoutingTree
from repro.timing.elmore import ElmoreDelay, RCParameters
from repro.timing.pathlength import PathLengthDelay
from repro.viz.ascii_art import front_summary, pareto_ascii, tree_ascii
from repro.viz.svg import pareto_curve_svg, save_svg, tree_svg


class TestSvg:
    def test_tree_svg_well_formed(self):
        net = random_net(6, rng=random.Random(1))
        svg = tree_svg(rsmt(net), title="t")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "<line" in svg
        assert "t</text>" in svg

    def test_source_is_filled_square(self):
        net = random_net(5, rng=random.Random(2))
        svg = tree_svg(rsmt(net))
        assert 'fill="black"' in svg

    def test_pareto_curve_svg(self):
        net = random_net(6, rng=random.Random(3))
        front = pareto_dw(net)
        svg = pareto_curve_svg([("exact", front)])
        assert "wirelength" in svg and "delay" in svg
        assert svg.count("<circle") >= len(front)

    def test_pareto_curve_empty(self):
        svg = pareto_curve_svg([])
        assert svg.startswith("<svg")

    def test_save_svg(self, tmp_path):
        path = tmp_path / "x.svg"
        save_svg("<svg></svg>", str(path))
        assert path.read_text() == "<svg></svg>"


class TestAscii:
    def test_tree_ascii_markers(self):
        net = Net.from_points((0, 0), [(10, 0), (10, 10)])
        art = tree_ascii(rsmt(net))
        assert "S" in art
        assert art.count("#") == 2

    def test_pareto_ascii(self):
        net = random_net(6, rng=random.Random(4))
        art = pareto_ascii(pareto_dw(net))
        assert "*" in art
        assert "solutions" in art

    def test_pareto_ascii_empty(self):
        assert pareto_ascii([]) == "(empty front)"

    def test_front_summary_lines(self):
        out = front_summary([(1.0, 2.0, None), (3.0, 4.0, None)])
        assert out.count("\n") == 1
        assert "w =" in out


class TestDelayModels:
    def test_pathlength_matches_tree(self):
        net = random_net(8, rng=random.Random(5))
        t = rsmt(net)
        model = PathLengthDelay()
        assert model.max_delay(t) == t.delay()
        assert model.sink_delays(t) == t.sink_delays()

    def test_critical_sink(self):
        net = Net.from_points((0, 0), [(1, 0), (100, 0)])
        t = RoutingTree.star(net)
        assert PathLengthDelay().critical_sink(t) == 1

    def test_elmore_positive_and_ordered(self):
        net = random_net(8, rng=random.Random(6))
        t = rsmt(net)
        delays = ElmoreDelay().sink_delays(t)
        assert len(delays) == 7
        assert all(d > 0 for d in delays)

    def test_elmore_prefers_shorter_paths(self):
        """A shallow tree must have lower worst Elmore delay than a very
        deep chain over the same pins."""
        net = Net.from_points((0, 0), [(10, 0), (20, 0), (30, 0)])
        chain = RoutingTree.from_edges(
            net, [((0, 0), (10, 0)), ((10, 0), (20, 0)), ((20, 0), (30, 0))]
        )
        star = RoutingTree.star(net)
        e = ElmoreDelay()
        # The chain loads the first segment with everything downstream.
        assert e.sink_delays(chain)[2] >= e.sink_delays(star)[2] * 0.99

    def test_elmore_scales_with_rc(self):
        net = random_net(6, rng=random.Random(7))
        t = rsmt(net)
        slow = ElmoreDelay(RCParameters(unit_resistance=1.0))
        fast = ElmoreDelay(RCParameters(unit_resistance=1e-6))
        assert slow.max_delay(t) > fast.max_delay(t)

    def test_shallow_light_tradeoff_visible_in_elmore(self):
        """SALT's eps=0 tree should not be worse in Elmore delay than the
        RSMT on delay-stressed nets (sanity of the extension)."""
        rng = random.Random(8)
        e = ElmoreDelay()
        wins = 0
        for _ in range(5):
            net = random_net(12, rng=rng)
            if e.max_delay(salt(net, 0.0)) <= e.max_delay(rsmt(net)):
                wins += 1
        assert wins >= 3


class TestCli:
    def test_route_random(self, capsys):
        assert main(["route", "--degree", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Pareto solution" in out

    def test_route_from_file(self, tmp_path, capsys):
        nets = [random_net(5, rng=random.Random(2), name="file_net")]
        path = tmp_path / "in.nets"
        save_nets(nets, path)
        assert main(["route", "--nets", str(path)]) == 0
        assert "file_net" in capsys.readouterr().out

    def test_gen_lut_and_route_with_it(self, tmp_path, capsys):
        lut_path = tmp_path / "lut.npz"
        assert main(
            ["gen-lut", "--degrees", "4", "--limit", "4", "-o", str(lut_path)]
        ) == 0
        assert lut_path.exists()
        assert main(
            ["route", "--degree", "4", "--lut", str(lut_path)]
        ) == 0

    def test_gen_nets_and_compare(self, tmp_path, capsys):
        nets_path = tmp_path / "w.nets"
        assert main(
            ["gen-nets", "--count", "8", "--seed", "3", "-o", str(nets_path)]
        ) == 0
        assert main([str(x) for x in ["compare", nets_path]]) == 0
        out = capsys.readouterr().out
        assert "PatLabor" in out

    def test_draw(self, tmp_path, capsys):
        nets = [random_net(5, rng=random.Random(4), name="draw_net")]
        path = tmp_path / "in.nets"
        save_nets(nets, path)
        prefix = str(tmp_path / "fig")
        assert main(["draw", str(path), "--prefix", prefix]) == 0
        assert (tmp_path / "fig_curve.svg").exists()

    def test_negotiate_random_scenario(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        svg_path = tmp_path / "overuse.svg"
        assert main([
            "negotiate", "--count", "30", "--cells", "6", "--seed", "7",
            "--baseline", "--heatmap-svg", str(svg_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "converged" in out and "baseline" in out
        assert svg_path.exists()
        assert svg_path.read_text().startswith("<svg")

    def test_negotiate_json_report(self, capsys):
        pytest.importorskip("numpy")
        assert main([
            "negotiate", "--count", "20", "--cells", "5", "--seed", "7",
            "--json",
        ]) == 0
        import json as _json

        report = _json.loads(capsys.readouterr().out)
        assert report["nets"] == 20
        assert report["negotiate.converged"] == 1.0
        assert report["negotiate.final_overuse"] == 0.0
