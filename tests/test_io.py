"""Tests for on-disk formats: net files, LUT JSON, result JSONL."""

import json
import random

import pytest

from repro.core.pareto import Solution
from repro.eval.metrics import NetComparison
from repro.exceptions import SerializationError
from repro.geometry.net import Net, random_net
from repro.io.lut_io import load_lut, lut_file_size, save_lut
from repro.io.nets_format import load_nets, save_nets
from repro.io.results_io import append_results, load_results


class TestNetsFormat:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(1)
        nets = [random_net(d, rng=rng, name=f"n{d}") for d in (2, 5, 9)]
        path = tmp_path / "w.nets"
        assert save_nets(nets, path) == 3
        loaded = load_nets(path)
        assert [n.key() for n in loaded] == [n.key() for n in nets]
        assert [n.name for n in loaded] == ["n2", "n5", "n9"]

    def test_float_precision_preserved(self, tmp_path):
        net = Net.from_points((0.1234567890123, 0.3), [(1e-9, 2e9)])
        path = tmp_path / "p.nets"
        save_nets([net], path)
        loaded = load_nets(path)[0]
        assert loaded.key() == net.key()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.nets"
        path.write_text(
            "# a comment\nnet x 2\nsource 0 0\nsink 1 1\n\n# tail comment\n"
        )
        nets = load_nets(path)
        assert len(nets) == 1
        assert nets[0].name == "x"

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.nets"
        path.write_text("net x 2\nsource 0\n")
        with pytest.raises(SerializationError):
            load_nets(path)

    def test_unknown_directive_raises(self, tmp_path):
        path = tmp_path / "bad2.nets"
        path.write_text("wire 0 0 1 1\n")
        with pytest.raises(SerializationError):
            load_nets(path)

    def test_sinks_without_source_raises(self, tmp_path):
        path = tmp_path / "bad3.nets"
        path.write_text("net x 2\nsink 1 1\n")
        with pytest.raises(SerializationError):
            load_nets(path)


class TestLutIo:
    def test_roundtrip_preserves_lookups(self, lut45, tmp_path, assert_fronts_equal):
        path = tmp_path / "lut.json"
        save_lut(lut45, path)
        assert lut_file_size(path) > 0
        loaded = load_lut(path)
        assert loaded.degrees == lut45.degrees
        rng = random.Random(2)
        for _ in range(5):
            net = random_net(5, rng=rng)
            assert_fronts_equal(loaded.frontier(net), lut45.frontier(net))

    def test_stats_roundtrip(self, lut45, tmp_path):
        path = tmp_path / "lut.json"
        save_lut(lut45, path)
        loaded = load_lut(path)
        assert loaded.stats[4].num_index == lut45.stats[4].num_index

    def test_bad_file_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(SerializationError):
            load_lut(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 99}')
        with pytest.raises(SerializationError):
            load_lut(path)

    @pytest.mark.parametrize(
        "pool, degrees",
        [
            ([[[0, 0, 1, 1, 2]]], {}),  # an edge with 5 coordinates
            ([[[0, 0, 1, 300]]], {}),  # a coordinate outside int8
            ([[[0, 0, 1, -1]]], {}),  # a negative coordinate
            (  # a degree-4 row with too few coefficients
                [[[0, 0, 1, 1]]],
                {"4": {"0,1,2,3/0": [{"w": [1, 2], "d": [[1]], "t": 0}]}},
            ),
        ],
    )
    def test_malformed_table_raises(self, tmp_path, pool, degrees):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "pool": pool, "degrees": degrees}))
        with pytest.raises(SerializationError):
            load_lut(path)


class TestResultsIo:
    def _row(self) -> NetComparison:
        return NetComparison(
            net_name="n1",
            degree=5,
            frontier=[(1.0, 2.0, None)],
            methods={"m": [(1.0, 2.0, None)]},
            runtimes={"m": 0.25},
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        assert append_results([self._row()], path) == 1
        rows = load_results(path)
        assert len(rows) == 1
        assert rows[0].net_name == "n1"
        assert rows[0].frontier == [(1.0, 2.0, None)]
        assert rows[0].runtimes == {"m": 0.25}

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "r.jsonl"
        append_results([self._row()], path)
        append_results([self._row()], path)
        assert len(load_results(path)) == 2

    def test_payloads_dropped(self, tmp_path):
        row = self._row()
        row.methods["m"] = [(1.0, 2.0, object())]
        path = tmp_path / "r.jsonl"
        append_results([row], path)
        assert load_results(path)[0].methods["m"][0][2] is None

    def test_roundtrip_from_real_comparison(self, tmp_path):
        """Persist actual ``compare_on_net`` output and get back every
        objective pair, method name, and runtime — bit-exact floats."""
        from repro.core.patlabor import PatLabor
        from repro.eval.runner import compare_on_net

        rng = random.Random(42)
        nets = [random_net(d, rng=rng, name=f"rt{d}") for d in (4, 6)]
        methods = {
            "patlabor": lambda n: PatLabor().route(n),
        }
        rows = [
            compare_on_net(net, methods, compute_exact=True) for net in nets
        ]
        path = tmp_path / "real.jsonl"
        assert append_results(rows, path) == len(rows)
        loaded = load_results(path)
        assert [r.net_name for r in loaded] == [r.net_name for r in rows]
        for before, after in zip(rows, loaded):
            assert after.degree == before.degree
            assert set(after.methods) == set(before.methods)
            # JSON round-trips IEEE doubles exactly: objectives bit-equal.
            assert [(w, d) for w, d, _ in after.frontier] == [
                (w, d) for w, d, _ in before.frontier
            ]
            for m in before.methods:
                assert [(w, d) for w, d, _ in after.methods[m]] == [
                    (w, d) for w, d, _ in before.methods[m]
                ]
            assert after.runtimes == before.runtimes

    def test_roundtrip_empty_collections(self, tmp_path):
        row = NetComparison(
            net_name="empty", degree=2, frontier=[], methods={}, runtimes={}
        )
        path = tmp_path / "e.jsonl"
        append_results([row], path)
        (loaded,) = load_results(path)
        assert loaded.frontier == [] and loaded.methods == {}
        assert loaded.runtimes == {}

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        append_results([self._row()], path)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write("\n\n")
        append_results([self._row()], path)
        assert len(load_results(path)) == 2
