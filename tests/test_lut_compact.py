"""The column-form lookup table equals the tuple/frozenset oracle.

:class:`~repro.lut.table.LookupTable` holds its rows as int8/int32
columns and its topologies as an int8 edge matrix. Against the oracle in
``tests/lut_oracle.py`` (the tuple-per-row, frozenset-per-topology form
it replaced) this checks, for the shipped ``.npz`` against the JSON it
was converted from (``tests/data/patlabor_lut_456.json.gz``), a built
degree 4–5 table, their save/load round trips and on-demand pattern
solving:

* every pattern's rows, in order;
* every pool topology, and the order its frozenset iterates in (that
  order numbers the nodes of the trees a lookup builds);
* lookups at four gap vectors per pattern (integer, float, one zero-width
  column and row gap, all columns stacked), compared by objective
  ``repr``, tree points and parents.

It also guards the footprint: loading the shipped table adds fewer than
2,000 GC-tracked objects (the tuple form added 54,486).
"""

import gc
import random

import pytest

from repro.geometry.net import Net
from repro.geometry.transforms import canonical_pattern
from repro.io.lut_io import load_lut, save_lut
from repro.lut.default import DATA_FILE
from repro.lut.generator import (
    enumerate_canonical_patterns,
    generate_degree,
    solve_pattern,
)
from repro.lut.table import LookupTable, net_pattern
from tests.lut_oracle import (
    SHIPPED_JSON,
    OracleTable,
    oracle_ingest,
    oracle_load,
    oracle_lookup,
)


def pattern_net(perm, src, gx, gy) -> Net:
    """A net on pattern ``(perm, src)`` with column gaps ``gx``, row gaps ``gy``."""
    xs, ys = [0.0], [0.0]
    for g in gx:
        xs.append(xs[-1] + g)
    for g in gy:
        ys.append(ys[-1] + g)
    pins = [(xs[c], ys[perm[c]]) for c in range(len(perm))]
    return Net.from_points(pins[src], [p for c, p in enumerate(pins) if c != src])


def gap_vectors(perm, rng):
    """Four ``(gx, gy)`` pairs for ``perm``; no two pins coincide."""
    k = len(perm) - 1
    ints = ([rng.randint(1, 9) for _ in range(k)], [rng.randint(1, 9) for _ in range(k)])
    floats = (
        [rng.uniform(0.1, 10.0) for _ in range(k)],
        [rng.uniform(0.1, 10.0) for _ in range(k)],
    )
    # One zero-width column gap and one zero-width row gap, placed so the
    # two pins they merge in x are not also merged in y.
    i = rng.randrange(k)
    rows = sorted((perm[i], perm[i + 1]))
    j = next(j for j in range(k) if rows != [j, j + 1])
    zero_x, zero_y = list(floats[0]), list(floats[1])
    zero_x[i] = 0.0
    zero_y[j] = 0.0
    stacked = ([0.0] * k, list(ints[1]))
    return [ints, floats, (zero_x, zero_y), stacked]


def front_key(front):
    """What must match exactly: objective reprs, tree points and parents."""
    return [(repr(w), repr(d), tree.points, tree.parent) for w, d, tree in front]


def assert_rows_equal(table: LookupTable, oracle: OracleTable) -> None:
    assert sorted(table.entries) == sorted(oracle.entries)
    for n, per_pattern in oracle.entries.items():
        block = table.entries[n]
        assert list(block) == list(per_pattern)
        for pattern, rows in per_pattern.items():
            assert block.rows(pattern) == rows, (n, pattern)


def assert_pool_equal(table: LookupTable, oracle: OracleTable) -> None:
    assert len(table.pool) == len(oracle.pool)
    for i, edges in enumerate(oracle.pool):
        got = table.pool.get(i)
        assert got == edges, i
        assert list(got) == list(edges), f"topology {i} iterates in another order"


def assert_lookups_equal(table: LookupTable, oracle: OracleTable, seed: int) -> int:
    rng = random.Random(seed)
    checked = 0
    for n, per_pattern in oracle.entries.items():
        for perm, src in per_pattern:
            for gx, gy in gap_vectors(perm, rng):
                net = pattern_net(perm, src, gx, gy)
                assert front_key(table.lookup(net)) == front_key(
                    oracle_lookup(oracle, net)
                ), (n, perm, src, gx, gy)
                checked += 1
    return checked


@pytest.fixture(scope="module")
def shipped():
    return load_lut(DATA_FILE), oracle_load(SHIPPED_JSON)


@pytest.fixture(scope="module")
def built_oracle():
    oracle = OracleTable()
    for n in (4, 5):
        oracle_ingest(oracle, n, generate_degree(n))
    return oracle


class TestShippedTable:
    def test_rows_equal_oracle(self, shipped):
        assert_rows_equal(*shipped)

    def test_pool_equals_oracle_in_iteration_order(self, shipped):
        assert_pool_equal(*shipped)

    def test_lookups_equal_oracle(self, shipped):
        # 684 patterns x 4 gap vectors.
        assert assert_lookups_equal(*shipped, seed=1) == 4 * 684

    def test_loading_adds_few_gc_tracked_objects(self):
        load_lut(DATA_FILE)  # any first-use imports and caches happen here
        gc.collect()
        before = len(gc.get_objects())
        table = load_lut(DATA_FILE)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert table.degrees == [4, 5, 6]
        assert added < 2000, f"loading the shipped table added {added} objects"


class TestBuiltTable:
    def test_rows_equal_oracle(self, lut45, built_oracle):
        assert_rows_equal(lut45, built_oracle)

    def test_pool_equals_oracle_in_iteration_order(self, lut45, built_oracle):
        assert_pool_equal(lut45, built_oracle)

    def test_lookups_equal_oracle(self, lut45, built_oracle):
        assert assert_lookups_equal(lut45, built_oracle, seed=2) == 4 * (16 + 89)

    def test_save_load_round_trip(self, lut45, tmp_path):
        path = tmp_path / "lut45.npz"
        save_lut(lut45, path)
        loaded = load_lut(path)
        oracle = oracle_load(path)
        assert_rows_equal(loaded, oracle)
        assert_pool_equal(loaded, oracle)
        assert_lookups_equal(loaded, oracle, seed=3)
        for n in (4, 5):
            for pattern in lut45.entries[n]:
                assert loaded.entries[n].rows(pattern) == lut45.entries[n].rows(pattern)
        for i in range(len(lut45.pool)):
            assert loaded.pool.get(i) == lut45.pool.get(i)


def replay_on_demand(table: LookupTable, oracle: OracleTable, n: int, seed: int) -> int:
    """Look up a net of every degree-``n`` pattern, solving missing ones.

    The oracle solves each missing pattern as the table does, in the same
    order, so both intern the same frozensets first.
    """
    rng = random.Random(seed)
    solved = 0
    for perm, src in enumerate_canonical_patterns(n):
        gx, gy = gap_vectors(perm, rng)[1]
        net = pattern_net(perm, src, gx, gy)
        key = canonical_pattern(*net_pattern(net)[:2])[:2]
        if key not in oracle.entries[n]:
            oracle.entries[n][key] = [
                (sol.w, sol.rows, oracle.intern(sol.payload))
                for sol in solve_pattern(*key).solutions
            ]
            solved += 1
        assert front_key(table.lookup(net)) == front_key(oracle_lookup(oracle, net))
    return solved


class TestOnDemandPatterns:
    def test_built_table_solves_missing_patterns(self):
        table = LookupTable.build((4,), limit_per_degree=2)
        oracle = OracleTable()
        oracle_ingest(oracle, 4, generate_degree(4, limit=2))
        assert replay_on_demand(table, oracle, 4, seed=4) == 14
        assert_rows_equal(table, oracle)
        assert_pool_equal(table, oracle)

    def test_loaded_table_solves_missing_patterns(self, tmp_path):
        path = tmp_path / "lut4.npz"
        save_lut(LookupTable.build((4,), limit_per_degree=3), path)
        table, oracle = load_lut(path), oracle_load(path)
        assert replay_on_demand(table, oracle, 4, seed=5) == 13
        assert_rows_equal(table, oracle)
        assert_pool_equal(table, oracle)


class TestTakeDegree:
    def test_taken_degree_looks_up_as_its_source(self, shipped, tmp_path):
        source, oracle = shipped
        table = LookupTable.build((4,))
        table.take_degree(source, 6)
        assert table.stats[6] == source.stats[6]
        assert table.stats[6] is not source.stats[6]
        path = tmp_path / "merged.npz"
        save_lut(table, path)
        loaded = load_lut(path)
        rng = random.Random(6)
        for perm, src in oracle.entries[6]:
            gx, gy = gap_vectors(perm, rng)[1]
            net = pattern_net(perm, src, gx, gy)
            expected = front_key(source.lookup(net))
            assert front_key(table.lookup(net)) == expected
            assert front_key(loaded.lookup(net)) == expected
