"""Tests for pattern enumeration, symbolic DW, and the lookup table."""

import random

import pytest

from repro.core.pareto_dw import pareto_frontier
from repro.exceptions import LookupTableError
from repro.geometry.net import Net, random_net
from repro.lut.cluster import TopologyPool
from repro.lut.generator import (
    count_canonical_patterns,
    enumerate_canonical_patterns,
    solve_pattern,
)
from repro.lut.table import LookupTable, net_pattern
from repro.routing.validate import check_tree


class TestPatternEnumeration:
    def test_counts_small_degrees(self):
        # Orbit counting: n! * n total (perm, source) pairs, ~/8 orbits.
        assert count_canonical_patterns(3) == 4
        assert count_canonical_patterns(4) == 16
        assert count_canonical_patterns(5) == 89

    def test_all_enumerated_are_canonical(self):
        from repro.geometry.transforms import canonical_pattern

        for perm, src in enumerate_canonical_patterns(4):
            cperm, csrc, _ = canonical_pattern(perm, src)
            assert (cperm, csrc) == (perm, src)

    def test_orbits_cover_everything(self):
        """Every (perm, source) pair canonicalises into the enumerated set."""
        import itertools

        from repro.geometry.transforms import canonical_pattern

        canon = set(enumerate_canonical_patterns(4))
        for perm in itertools.permutations(range(4)):
            for src in range(4):
                cperm, csrc, _ = canonical_pattern(perm, src)
                assert (cperm, csrc) in canon


class TestSolvePattern:
    def test_solutions_nonempty(self):
        ps = solve_pattern((0, 1, 2), 0)
        assert ps.solutions

    def test_payloads_are_edge_sets(self):
        ps = solve_pattern((1, 0, 2), 1)
        for s in ps.solutions:
            assert isinstance(s.payload, frozenset)
            for a, b in s.payload:
                assert isinstance(a, tuple) and isinstance(b, tuple)

    def test_lemma_flags_do_not_change_coverage(self):
        """With and without Lemmas 3/4, evaluating the solution sets at
        random gaps yields the same Pareto values."""
        rng = random.Random(1)
        full = solve_pattern((2, 0, 3, 1), 2, lemma3=False, lemma4=False)
        fast = solve_pattern((2, 0, 3, 1), 2)
        for _ in range(20):
            gaps = [rng.uniform(0.1, 10) for _ in range(6)]
            def front(ps):
                vals = sorted(s.evaluate(gaps) for s in ps.solutions)
                best, bd = [], float("inf")
                for w, d in vals:
                    if d < bd - 1e-9:
                        best.append((round(w, 6), round(d, 6)))
                        bd = d
                return best
            assert front(full) == front(fast)

    def test_lp_prune_is_subset(self):
        cw = solve_pattern((1, 3, 0, 2), 0, prune_mode="componentwise")
        lp = solve_pattern((1, 3, 0, 2), 0, prune_mode="lp")
        assert len(lp.solutions) <= len(cw.solutions)


class TestNetPattern:
    def test_identity_grid(self):
        net = Net.from_points((0, 0), [(1, 1), (2, 2)])
        perm, src, xs, ys = net_pattern(net)
        assert perm == (0, 1, 2)
        assert src == 0
        assert xs == [0, 1, 2] and ys == [0, 1, 2]

    def test_tie_breaking_stable(self):
        net = Net.from_points((0, 0), [(0, 5), (5, 0)])
        perm, src, xs, ys = net_pattern(net)
        assert sorted(perm) == [0, 1, 2]
        assert xs == [0, 0, 5]

    def test_source_column_tracked(self):
        net = Net.from_points((9, 9), [(1, 1), (5, 5)])
        perm, src, _, _ = net_pattern(net)
        assert src == 2  # source has the largest x


class TestLookupTable:
    def test_stats_shape(self, lut45):
        assert lut45.stats[4].num_index == 16
        assert lut45.stats[5].num_index == 89
        assert lut45.stats[5].avg_topologies > 1

    def test_covers(self, lut45):
        assert lut45.covers(2) and lut45.covers(3)
        assert lut45.covers(4) and lut45.covers(5)
        assert not lut45.covers(6)

    def test_lookup_missing_degree_raises(self, lut45):
        net = random_net(7, rng=random.Random(1))
        with pytest.raises(LookupTableError):
            lut45.lookup(net)

    @pytest.mark.parametrize("degree", [4, 5])
    def test_lookup_matches_exact_dw(self, lut45, degree, assert_fronts_equal):
        rng = random.Random(degree * 31)
        for _ in range(10):
            net = random_net(degree, rng=rng)
            assert_fronts_equal(lut45.frontier(net), pareto_frontier(net))

    def test_lookup_degenerate_coordinates(self, lut45, assert_fronts_equal):
        net = Net.from_points((0, 0), [(0, 10), (10, 0), (10, 10)])
        assert_fronts_equal(lut45.frontier(net), pareto_frontier(net))

    def test_lookup_collinear(self, lut45, assert_fronts_equal):
        net = Net.from_points((0, 0), [(3, 0), (7, 0), (12, 0)])
        assert_fronts_equal(lut45.frontier(net), pareto_frontier(net))

    def test_trees_valid_and_on_hanan(self, lut45):
        rng = random.Random(5)
        for _ in range(5):
            net = random_net(5, rng=rng)
            for w, d, tree in lut45.lookup(net):
                check_tree(tree, hanan=True)

    def test_saved_and_loaded_table_numbers_trees_alike(self, lut45, tmp_path):
        """A table and its save_lut/load_lut copy return equal trees, node
        numbering included: lookup does not depend on the set order the
        topologies were built in."""
        from repro.eval.benchmarks import synth_net
        from repro.io.lut_io import load_lut, save_lut

        save_lut(lut45, tmp_path / "lut45.npz")
        loaded = load_lut(tmp_path / "lut45.npz")
        rng = random.Random(7)
        for degree in (4, 5) * 200:
            net = synth_net(degree, rng)
            built, copied = lut45.lookup(net), loaded.lookup(net)
            assert [(w, d) for w, d, _t in built] == [
                (w, d) for w, d, _t in copied
            ]
            for (_w, _d, a), (_w2, _d2, b) in zip(built, copied):
                assert a.points == b.points and a.parent == b.parent

    def test_symmetry_consistency(self, lut45, assert_fronts_equal):
        """Reflected/rotated nets get reflected frontiers (same values)."""
        rng = random.Random(6)
        net = random_net(5, rng=rng)
        mirrored = Net.from_points(
            (-net.source.x, net.source.y),
            [(-s.x, s.y) for s in net.sinks],
        )
        assert_fronts_equal(lut45.frontier(net), lut45.frontier(mirrored))

    def test_on_demand_pattern_solving(self):
        table = LookupTable.build(degrees=(4,), limit_per_degree=2)
        rng = random.Random(7)
        # Most patterns are missing; lookups must solve on demand.
        for _ in range(5):
            net = random_net(4, rng=rng)
            front = table.lookup(net)
            assert front
        # And raising mode must raise for a missing pattern.
        table2 = LookupTable.build(degrees=(4,), limit_per_degree=1)
        missing = None
        for _ in range(50):
            net = random_net(4, rng=rng)
            from repro.geometry.transforms import canonical_pattern
            from repro.lut.table import net_pattern as np_

            perm, src, _, _ = np_(net)
            cp = canonical_pattern(perm, src)[:2]
            if cp not in table2.entries[4]:
                missing = net
                break
        assert missing is not None
        with pytest.raises(LookupTableError):
            table2.lookup(missing, on_missing="raise")


class TestTopologyPool:
    def test_interning(self):
        pool = TopologyPool()
        e1 = frozenset({((0, 0), (1, 1))})
        e2 = frozenset({((0, 0), (1, 1))})
        e3 = frozenset({((0, 0), (2, 2))})
        assert pool.intern(e1) == pool.intern(e2)
        assert pool.intern(e3) != pool.intern(e1)
        assert len(pool) == 2
        assert pool.hits == 2  # e2 and the re-intern of e1

    def test_get_roundtrip(self):
        pool = TopologyPool()
        e = frozenset({((0, 0), (1, 1))})
        assert pool.get(pool.intern(e)) == e

    def test_dedup_ratio(self, lut45):
        # Clustering must actually share topologies across entries.
        assert lut45.pool.dedup_ratio > 1.5
