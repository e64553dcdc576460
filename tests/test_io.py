"""Tests for on-disk formats: net files, LUT archives, result JSONL."""

import json
import random
import zipfile
from pathlib import Path

import numpy as np
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


def _members(pool, degrees):
    """``.npz`` members for a table described as the JSON format did.

    ``pool`` lists each topology's edges; ``degrees`` maps ``"n"`` to
    ``"perm/src" -> [{"w", "d", "t"}]``. Values that fit int8 are stored
    as int8, others keep NumPy's default integer dtype.
    """

    def ints(values, dtype=np.int8):
        arr = np.array(values)
        fits = arr.size == 0 or (-128 <= arr.min() and arr.max() <= 127)
        if dtype is np.int8 and not fits:
            return arr
        return arr.astype(dtype)

    edges = [e for topology in pool for e in topology]
    meta = {
        "format": "patlabor-lut",
        "version": 2,
        "prune_mode": "componentwise",
        "degrees": [int(n) for n in degrees],
        "stats": {},
    }
    members = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "pool_rows": ints(edges),
        "pool_ptr": np.cumsum([0] + [len(t) for t in pool]).astype(np.int64),
    }
    for n, patterns in degrees.items():
        rows = [r for pattern_rows in patterns.values() for r in pattern_rows]
        keys = [key.rsplit("/", 1) for key in patterns]
        sizes = np.cumsum([0] + [len(r) for r in patterns.values()])
        perms = [[int(x) for x in perm.split(",")] for perm, _ in keys]
        members[f"d{n}_perm"] = ints(perms)
        members[f"d{n}_src"] = ints([int(src) for _, src in keys])
        members[f"d{n}_range"] = ints(list(zip(sizes, sizes[1:])), np.int32)
        members[f"d{n}_w"] = ints([r["w"] for r in rows])
        members[f"d{n}_d"] = ints([r["d"] for r in rows])
        members[f"d{n}_topo"] = ints([r["t"] for r in rows], np.int32)
    return members


def _write(path, members):
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    return path


def _unpickled(path):
    """Leaves a trace if anything ever unpickles an object built by it."""
    Path(path).write_text("unpickled")
    return 0


class _Trap:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (_unpickled, (self.path,))


class TestLutIo:
    def test_roundtrip_preserves_lookups(self, lut45, tmp_path, assert_fronts_equal):
        path = tmp_path / "lut.npz"
        save_lut(lut45, path)
        assert lut_file_size(path) > 0
        loaded = load_lut(path)
        assert loaded.degrees == lut45.degrees
        rng = random.Random(2)
        for _ in range(5):
            net = random_net(5, rng=rng)
            assert_fronts_equal(loaded.frontier(net), lut45.frontier(net))

    def test_stats_roundtrip(self, lut45, tmp_path):
        path = tmp_path / "lut.npz"
        save_lut(lut45, path)
        loaded = load_lut(path)
        assert loaded.stats == lut45.stats
        assert loaded.prune_mode == lut45.prune_mode

    def test_bad_file_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("not a table at all {")
        with pytest.raises(SerializationError):
            load_lut(path)

    def test_version_check(self, tmp_path):
        members = _members([[[0, 0, 1, 1]]], {})
        meta = {"format": "patlabor-lut", "version": 99}
        members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with pytest.raises(SerializationError, match="version 99"):
            load_lut(_write(tmp_path / "old.npz", members))

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
        with pytest.raises(SerializationError):
            load_lut(_write(tmp_path / "bad.npz", _members(pool, degrees)))

    def test_description_of_a_good_table_loads(self, tmp_path):
        # The helper above describes loadable tables; only the defects fail.
        rows = [{"w": [1] * 6, "d": [[1] * 6] * 3, "t": 0}]
        table = load_lut(
            _write(
                tmp_path / "good.npz",
                _members([[[0, 0, 1, 1]]], {"4": {"0,1,2,3/0": rows}}),
            )
        )
        assert table.degrees == [4]
        assert table.entries[4].rows(((0, 1, 2, 3), 0)) == [
            ((1,) * 6, ((1,) * 6,) * 3, 0)
        ]


class TestLutFileChecks:
    """Every defect in a table file raises SerializationError; none unpickles."""

    @pytest.fixture(scope="class")
    def good(self, lut45, tmp_path_factory):
        path = tmp_path_factory.mktemp("lut") / "good.npz"
        save_lut(lut45, path)
        with np.load(path) as archive:
            return path, {name: archive[name] for name in archive.files}

    def test_truncated_archive(self, good, tmp_path):
        data = good[0].read_bytes()
        for size in (len(data) // 2, len(data) - 1, 10):
            path = tmp_path / f"cut{size}.npz"
            path.write_bytes(data[:size])
            with pytest.raises(SerializationError):
                load_lut(path)

    @pytest.mark.parametrize("member", ["meta", "pool_ptr", "d5_topo", "d4_range"])
    def test_missing_member(self, good, tmp_path, member):
        members = dict(good[1])
        del members[member]
        with pytest.raises(SerializationError):
            load_lut(_write(tmp_path / "missing.npz", members))

    def test_unexpected_member(self, good, tmp_path):
        members = dict(good[1], d7_w=good[1]["d5_w"])
        with pytest.raises(SerializationError, match="d7_w"):
            load_lut(_write(tmp_path / "extra.npz", members))

    @pytest.mark.parametrize(
        "member, change",
        [
            ("d4_topo", lambda a: a.astype(np.int64)),
            ("d5_w", lambda a: a.astype(np.uint8)),
            ("pool_rows", lambda a: a.astype(np.int16)),
            ("meta", lambda a: a.astype(np.int8)),
        ],
    )
    def test_wrong_dtype(self, good, tmp_path, member, change):
        members = dict(good[1], **{member: change(good[1][member])})
        with pytest.raises(SerializationError, match="dtype"):
            load_lut(_write(tmp_path / "dtype.npz", members))

    @pytest.mark.parametrize(
        "member, change",
        [
            ("d4_w", lambda a: a.reshape(-1)),
            ("d5_d", lambda a: a[:, :, :-1]),
            ("d5_topo", lambda a: a[:-1]),
            ("d4_perm", lambda a: a[:, :3]),
            ("pool_rows", lambda a: a.reshape(-1, 2)),
            ("pool_ptr", lambda a: a[:-1]),
            ("d4_range", lambda a: a + 10_000),
            ("d5_topo", lambda a: a + 10_000),
        ],
    )
    def test_wrong_shape_or_reference(self, good, tmp_path, member, change):
        members = dict(good[1], **{member: change(good[1][member])})
        with pytest.raises(SerializationError):
            load_lut(_write(tmp_path / "shape.npz", members))

    @pytest.mark.parametrize("member", ["d4_w", "d5_d", "pool_rows", "d4_perm"])
    def test_coefficient_outside_0_to_127(self, good, tmp_path, member):
        bad = good[1][member].copy()
        bad.reshape(-1)[0] = -1  # the int8 image of 255, which the old decoder rejected
        with pytest.raises(SerializationError, match="0..127"):
            load_lut(_write(tmp_path / "range.npz", dict(good[1], **{member: bad})))

    def test_object_member_is_never_unpickled(self, good, tmp_path):
        trace = tmp_path / "trace.txt"
        trap = np.empty((1,), dtype=object)
        trap[0] = _Trap(str(trace))
        path = _write(tmp_path / "pickle.npz", dict(good[1], d4_topo=trap))
        with pytest.raises(SerializationError):
            load_lut(path)
        assert not trace.exists()

    def test_member_that_is_not_npy(self, good, tmp_path):
        path = _write(tmp_path / "raw.npz", dict(good[1]))
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("notes.txt", b"not an array")
        with pytest.raises(SerializationError, match="notes.txt"):
            load_lut(path)
        with zipfile.ZipFile(tmp_path / "raw_meta.npz", "w") as archive:
            archive.writestr("meta.npy", b"not an array either")
        with pytest.raises(SerializationError, match="meta"):
            load_lut(tmp_path / "raw_meta.npz")

    def test_json_v1_table_names_gen_lut(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 1, "pool": [], "degrees": {}}))
        with pytest.raises(SerializationError, match="repro gen-lut"):
            load_lut(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_lut(tmp_path / "absent.npz")


class TestSaveLut:
    @pytest.mark.parametrize("name", ["t.npz", "t", "t.bin", "t.json"])
    def test_writes_exactly_the_given_path(self, lut45, tmp_path, name):
        path = tmp_path / name
        save_lut(lut45, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        assert load_lut(path).degrees == [4, 5]
        save_lut(lut45, str(path))  # a string path, and an overwrite
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_output_is_deterministic(self, lut45, tmp_path):
        save_lut(lut45, tmp_path / "a.npz")
        save_lut(load_lut(tmp_path / "a.npz"), tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_failed_write_leaves_no_file(self, lut45, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail)
        with pytest.raises(OSError, match="disk full"):
            save_lut(lut45, tmp_path / "t.npz")
        assert list(tmp_path.iterdir()) == []


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
