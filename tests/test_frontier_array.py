"""Array-native kernels agree bit-for-bit with the pure-Python oracle.

Mirrors ``test_frontier_kernels.py`` for :mod:`repro.core.frontier_array`:

* hypothesis round trips — ``front_to_arrays`` / ``arrays_to_front`` are
  bit-identical inverses;
* every array kernel twin returns exactly what its tuple kernel returns
  (objectives, survivor indices *and* tie choices) on random inputs drawn
  from a tie-heavy value pool, plus deterministic ``math.nextafter``
  rounding-collision cases;
* the segmented batch kernels (``segmented_pareto_filter``,
  ``segment_strict_prune``, ``ragged_product_indices`` and their packed
  variants) match straightforward per-segment references;
* a regression matrix that the array engine equals both the tuple
  kernels and the ``kernels=False`` reference on degree 2-9 nets across
  the Lemma flags, stats parity included — each engine called through
  its private entry point, since ``pareto_dw`` picks one by degree;
* the array engine's candidate budget: at a tiny budget every pass
  splits into many batches and fronts, trees and counters stay equal;
* ``pareto_dw``'s degree dispatch and its ``dw.engine.*`` counters.

Objective values reuse the integer/non-dyadic pool of the tuple-kernel
tests so exact ties and rounding collisions occur constantly.
"""

import importlib
import math
import random
from itertools import product

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.frontier import (
    cross_sorted,
    is_sorted_front,
    merge_shifted,
    merge_sorted_fronts,
    pareto_filter_sorted,
    shift_sorted,
)
from repro.core.frontier_array import (
    arrays_to_front,
    cross_sorted_arrays,
    front_to_arrays,
    merge_shifted_arrays,
    merge_sorted_fronts_arrays,
    pack_objectives,
    pareto_filter_sorted_array,
    pareto_filter_sorted_arrays,
    ragged_product_indices,
    segment_strict_prune,
    segmented_pareto_filter,
    segmented_pareto_filter_packed,
    segmented_pareto_keep,
    shift_sorted_arrays,
)
from repro.core.pareto import objectives, pareto_filter
from repro.core.patlabor import PatLabor, PatLaborConfig
from repro.core.pareto_dw import (
    DWStats,
    _pareto_dw_array_impl,
    _pareto_dw_impl,
    pareto_dw,
)
from repro.geometry.net import Net, random_net

# The package re-exports functions under these module names.
pareto_dw_module = importlib.import_module("repro.core.pareto_dw")
frontier_array = importlib.import_module("repro.core.frontier_array")

# Same pool as the tuple-kernel tests: frequent exact ties, non-dyadic
# floats so sums exercise rounding.
coord = st.one_of(
    st.integers(0, 8).map(float),
    st.sampled_from([0.1, 0.3, 1.7, 2.5, 3.3, 10.1]),
)

few = settings(max_examples=200, deadline=None)

# nextafter neighbours of the pool values collide under addition.
_POOL = [0.1, 0.3, 1.7, 2.5, 3.3, 10.1]
collision_value = st.sampled_from(
    [v for base in _POOL for v in (base, math.nextafter(base, math.inf),
                                   math.nextafter(base, -math.inf))]
)


@st.composite
def solution_lists(draw, max_size=12):
    """Arbitrary solution lists; payloads are distinct observable indices."""
    n = draw(st.integers(0, max_size))
    return [(draw(coord), draw(coord), idx) for idx in range(n)]


@st.composite
def fronts(draw, max_size=12):
    """Sorted fronts, as produced by ``pareto_filter``."""
    return pareto_filter(draw(solution_lists(max_size=max_size)))


@st.composite
def segmented_batches(draw, max_segments=5, max_size=40):
    """(seg, w, d) batches with non-decreasing segment ids and tie-heavy values."""
    n = draw(st.integers(0, max_size))
    nseg = draw(st.integers(1, max_segments))
    seg = np.sort(
        np.array([draw(st.integers(0, nseg - 1)) for _ in range(n)],
                 dtype=np.int64)
    )
    w = np.array([draw(collision_value) for _ in range(n)])
    d = np.array([draw(collision_value) for _ in range(n)])
    return seg, w, d


# ------------------------------------------------------------- round trip


class TestRoundTrip:
    @few
    @given(solution_lists())
    def test_tuple_array_tuple_is_bit_identical(self, sols):
        w, d, payloads = front_to_arrays(sols)
        assert arrays_to_front(w, d, payloads) == sols

    @few
    @given(solution_lists())
    def test_values_copied_verbatim(self, sols):
        w, d, _ = front_to_arrays(sols)
        for i, (sw, sd, _p) in enumerate(sols):
            # Bit-level equality, not approximate.
            assert w[i].item() == sw and d[i].item() == sd

    def test_empty_round_trip(self):
        w, d, payloads = front_to_arrays([])
        assert w.shape == (0,) and d.shape == (0,)
        assert arrays_to_front(w, d, payloads) == []


# -------------------------------------------------------------- filtering


class TestParetoFilterSortedArrays:
    @few
    @given(solution_lists())
    def test_matches_tuple_kernel_exactly(self, sols):
        w, d, payloads = front_to_arrays(sols)
        w2, d2, idx = pareto_filter_sorted_arrays(w, d)
        got = arrays_to_front(w2, d2, [payloads[i] for i in idx.tolist()])
        assert got == pareto_filter_sorted(sols) == pareto_filter(sols)

    @few
    @given(solution_lists())
    def test_tuple_api_drop_in(self, sols):
        assert pareto_filter_sorted_array(sols) == pareto_filter_sorted(sols)

    def test_empty_front(self):
        w2, d2, idx = pareto_filter_sorted_arrays(np.empty(0), np.empty(0))
        assert w2.shape == d2.shape == idx.shape == (0,)
        assert pareto_filter_sorted_array([]) == []

    def test_single_point_survives(self):
        w2, d2, idx = pareto_filter_sorted_arrays(
            np.array([1.0]), np.array([2.0])
        )
        assert idx.tolist() == [0]
        assert pareto_filter_sorted_array([(1.0, 2.0, "p")]) == [
            (1.0, 2.0, "p")
        ]

    def test_exact_duplicates_keep_first(self):
        _, _, idx = pareto_filter_sorted_arrays(
            np.array([1.0, 1.0]), np.array([2.0, 2.0])
        )
        assert idx.tolist() == [0]


# ------------------------------------------------------------------ shift


class TestShiftSortedArrays:
    @few
    @given(fronts(), coord)
    def test_matches_tuple_kernel(self, front, x):
        ref = shift_sorted(front, x)
        w, d, payloads = front_to_arrays(front)
        w2, d2, idx = shift_sorted_arrays(w, d, x)
        got = arrays_to_front(w2, d2, [payloads[i] for i in idx.tolist()])
        assert got == ref

    def test_w_collision_keeps_smaller_delay(self):
        w = 1293.2694644882506
        w2 = math.nextafter(w, math.inf)
        off = 96.61455694252402
        assert w != w2 and w + off == w2 + off
        aw, ad, _ = front_to_arrays([(w, 2.0, None), (w2, 1.0, None)])
        _, _, idx = shift_sorted_arrays(aw, ad, off)
        assert idx.tolist() == [1]  # replace-on-w-collision: keep last

    def test_d_collision_keeps_earlier_point(self):
        d_lo = 1293.2694644882506
        d_hi = math.nextafter(d_lo, math.inf)
        off = 96.61455694252402
        assert d_lo + off == d_hi + off
        aw, ad, _ = front_to_arrays([(1.0, d_hi, None), (2.0, d_lo, None)])
        _, _, idx = shift_sorted_arrays(aw, ad, off)
        assert idx.tolist() == [0]  # first point weakly dominates


# ------------------------------------------------------------------ cross


class TestCrossSortedArrays:
    @few
    @given(fronts(max_size=8), fronts(max_size=8))
    def test_matches_tuple_kernel(self, s1, s2):
        ref = cross_sorted(s1, s2, lambda a, b: (a, b))
        w1, d1, p1 = front_to_arrays(s1)
        w2, d2, p2 = front_to_arrays(s2)
        w, d, i_idx, j_idx = cross_sorted_arrays(w1, d1, w2, d2)
        got = arrays_to_front(
            w, d,
            [(p1[i], p2[j]) for i, j in zip(i_idx.tolist(), j_idx.tolist())],
        )
        assert objectives(got) == objectives(ref)
        assert is_sorted_front(got)
        # Index pairs must attain the output objectives exactly.
        for (ow, od, _), i, j in zip(got, i_idx.tolist(), j_idx.tolist()):
            assert ow == s1[i][0] + s2[j][0]
            assert od == max(s1[i][1], s2[j][1])

    @few
    @given(fronts(max_size=8))
    def test_empty_operand(self, s1):
        w1, d1, _ = front_to_arrays(s1)
        for args in (
            (w1, d1, np.empty(0), np.empty(0)),
            (np.empty(0), np.empty(0), w1, d1),
        ):
            w, d, i_idx, j_idx = cross_sorted_arrays(*args)
            assert w.shape == d.shape == i_idx.shape == j_idx.shape == (0,)

    def test_w_collision_emits_single_point(self):
        w = 1293.2694644882506
        w2 = math.nextafter(w, math.inf)
        x = 96.61455694252402
        assert w + x == w2 + x
        aw, ad, _ = front_to_arrays([(w, 2.0, None), (w2, 1.0, None)])
        bw, bd, _ = front_to_arrays([(x, 0.5, None)])
        ow, od, i_idx, _ = cross_sorted_arrays(aw, ad, bw, bd)
        assert ow.tolist() == [w + x] and od.tolist() == [1.0]
        assert i_idx.tolist() == [1]


# ------------------------------------------------------------------ union


class TestMergeArrays:
    @few
    @given(st.lists(fronts(max_size=8), max_size=4))
    def test_merge_sorted_fronts_matches(self, front_list):
        ref = merge_sorted_fronts(*front_list)
        ws, ds, ps = [], [], []
        for f in front_list:
            w, d, p = front_to_arrays(f)
            ws.append(w)
            ds.append(d)
            ps.append(p)
        w2, d2, f_idx, e_idx = merge_sorted_fronts_arrays(ws, ds)
        got = arrays_to_front(
            w2, d2,
            [ps[f][e] for f, e in zip(f_idx.tolist(), e_idx.tolist())],
        )
        assert got == ref

    @few
    @given(
        st.lists(
            st.tuples(coord, fronts(max_size=8)),
            max_size=4,
        )
    )
    def test_merge_shifted_matches(self, runs):
        ref, _ = merge_shifted([(off, f, None) for off, f in runs])
        offs = np.array([off for off, _ in runs], dtype=np.float64)
        ws, ds, ps = [], [], []
        for _, f in runs:
            w, d, p = front_to_arrays(f)
            ws.append(w)
            ds.append(d)
            ps.append(p)
        w2, d2, r_idx, e_idx = merge_shifted_arrays(offs, ws, ds)
        got = arrays_to_front(
            w2, d2,
            [ps[r][e] for r, e in zip(r_idx.tolist(), e_idx.tolist())],
        )
        assert got == ref

    def test_empty_inputs(self):
        w, d, f_idx, e_idx = merge_sorted_fronts_arrays([], [])
        assert w.shape == d.shape == f_idx.shape == e_idx.shape == (0,)
        w, d, r_idx, e_idx = merge_shifted_arrays(np.empty(0), [], [])
        assert w.shape == d.shape == r_idx.shape == e_idx.shape == (0,)


# ------------------------------------------------------- segmented kernels


def _ref_segmented_filter(seg, w, d):
    """Per-segment stable (w, d) sort + strict-d sweep, filter order."""
    idx = sorted(range(len(w)), key=lambda i: (seg[i], w[i], d[i]))
    keep, best, cur = [], None, None
    for i in idx:
        if seg[i] != cur:
            cur, best = seg[i], None
        if best is None or d[i] < best:
            keep.append(i)
            best = d[i]
    return keep


def _ref_strict_prune(starts, sizes, w, d):
    """Witness-dominance keep-mask, one segment at a time."""
    keep = np.ones(len(w), dtype=bool)
    for s, n in zip(starts.tolist(), sizes.tolist()):
        if n == 0:
            continue
        blkw, blkd = w[s : s + n], d[s : s + n]
        min_d, min_w = blkd.min(), blkw.min()
        wa = (min(bw for bw, bd in zip(blkw, blkd) if bd == min_d), min_d)
        wb = (min_w, min(bd for bw, bd in zip(blkw, blkd) if bw == min_w))
        for j in range(n):
            p = (blkw[j], blkd[j])
            for wit in (wa, wb):
                if wit[0] <= p[0] and wit[1] <= p[1] and wit != p:
                    keep[s + j] = False
    return keep


class TestSegmentedFilter:
    @few
    @given(segmented_batches())
    def test_matches_per_segment_reference(self, batch):
        seg, w, d = batch
        got = segmented_pareto_filter(seg, w, d)
        assert got.tolist() == _ref_segmented_filter(
            seg.tolist(), w.tolist(), d.tolist()
        )

    @few
    @given(segmented_batches())
    def test_packed_variant_agrees(self, batch):
        seg, w, d = batch
        wd = pack_objectives(w, d)
        assert (w.tolist(), d.tolist()) == (
            wd.real.tolist(), wd.imag.tolist()
        )
        assert segmented_pareto_filter_packed(seg, wd).tolist() == (
            segmented_pareto_filter(seg, w, d).tolist()
        )

    @few
    @given(segmented_batches())
    def test_keep_mask_on_presorted_input(self, batch):
        seg, w, d = batch
        order = np.lexsort((d, w, seg))
        keep = segmented_pareto_keep(seg[order], w[order], d[order])
        assert sorted(order[keep].tolist()) == sorted(
            _ref_segmented_filter(seg.tolist(), w.tolist(), d.tolist())
        )

    def test_empty(self):
        assert segmented_pareto_filter(
            np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        ).shape == (0,)


class TestSegmentStrictPrune:
    @few
    @given(segmented_batches())
    def test_matches_witness_reference(self, batch):
        seg, w, d = batch
        nseg = int(seg.max()) + 1 if seg.size else 1
        sizes = np.bincount(seg, minlength=nseg)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        got = segment_strict_prune(starts, sizes, w, d)
        assert got.tolist() == _ref_strict_prune(starts, sizes, w, d).tolist()

    @few
    @given(segmented_batches())
    def test_sound_for_exact_filter(self, batch):
        # Pruning first must not change the exact filter's survivors.
        seg, w, d = batch
        nseg = int(seg.max()) + 1 if seg.size else 1
        sizes = np.bincount(seg, minlength=nseg)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        keep = segment_strict_prune(starts, sizes, w, d)
        sel = np.flatnonzero(keep)
        pruned = segmented_pareto_filter(seg[sel], w[sel], d[sel])
        direct = segmented_pareto_filter(seg, w, d)
        assert sel[pruned].tolist() == direct.tolist()

    def test_empty(self):
        assert segment_strict_prune(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty(0),
        ).shape == (0,)


class TestRaggedProductIndices:
    @few
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5))
    def test_row_major_enumeration(self, shapes):
        cnt1 = np.array([a for a, _ in shapes], dtype=np.int64)
        cnt2 = np.array([b for _, b in shapes], dtype=np.int64)
        start1 = np.concatenate(([0], np.cumsum(cnt1)[:-1])) if shapes else (
            np.empty(0, dtype=np.int64)
        )
        start2 = 100 + (
            np.concatenate(([0], np.cumsum(cnt2)[:-1])) if shapes else
            np.empty(0, dtype=np.int64)
        )
        row, i_idx, j_idx = ragged_product_indices(cnt1, cnt2, start1, start2)
        ref = [
            (r, start1[r] + i, start2[r] + j)
            for r in range(len(shapes))
            for i in range(cnt1[r])
            for j in range(cnt2[r])
        ]
        assert list(zip(row.tolist(), i_idx.tolist(), j_idx.tolist())) == ref
        # rows=False: same pair streams, rows recoverable by searchsorted.
        none_row, i2, j2 = ragged_product_indices(
            cnt1, cnt2, start1, start2, rows=False
        )
        assert none_row is None
        assert i2.tolist() == i_idx.tolist()
        assert j2.tolist() == j_idx.tolist()
        if len(shapes):
            rec = np.searchsorted(
                np.cumsum(cnt1 * cnt2),
                np.arange(i2.shape[0]),
                side="right",
            )
            assert rec.tolist() == row.tolist()

    def test_all_empty(self):
        row, i_idx, j_idx = ragged_product_indices(
            np.array([0, 2], dtype=np.int64),
            np.array([3, 0], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
        )
        assert row.shape == i_idx.shape == j_idx.shape == (0,)


# ------------------------------------------- Pareto-DW engine matrix


LEMMA_COMBOS = list(product([False, True], repeat=3))

#: Work counters every engine must report identically; the allocation
#: counters (``merge_candidates``, ``closure_allocations``) measure what
#: each engine materializes and legitimately differ.
SHARED_COUNTERS = (
    "grid_nodes",
    "pruned_corner_nodes",
    "merge_transitions",
    "merge_skipped_lemma3",
    "splits_saved_lemma4",
    "closure_extensions",
    "max_front_size",
    "subsets",
)


def solve(engine, net, stats=None, **flags):
    """Run one Pareto-DW engine through its private entry point."""
    kw = dict(lemma2=True, lemma3=True, lemma4=True, with_trees=False)
    kw.update(flags)
    if engine == "array":
        return _pareto_dw_array_impl(net, stats=stats, **kw)
    return _pareto_dw_impl(
        net, stats=stats, kernels=(engine == "tuple"), **kw
    )


def shared(stats):
    return {name: getattr(stats, name) for name in SHARED_COUNTERS}


def assert_engines_agree(net, **flags):
    """Array == tuple == reference: objectives, trees, shared counters."""
    runs = {}
    for engine in ("array", "tuple", "reference"):
        st_ = DWStats()
        runs[engine] = (solve(engine, net, st_, with_trees=True, **flags), st_)
    arr, st_a = runs["array"]
    for engine in ("tuple", "reference"):
        ref, st_r = runs[engine]
        assert objectives(arr) == objectives(ref), engine
        assert [t.edges() for _, _, t in arr] == [
            t.edges() for _, _, t in ref
        ], engine
        assert shared(st_a) == shared(st_r), engine
    return st_a


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


class TestParetoDWArrayEquivalence:
    """The array engine equals both tuple paths, stats included."""

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_identical_frontier_across_lemma_flags(self, degree):
        net = random_net(
            degree, rng=random.Random(1000 + degree), grid=9, span=90.0
        )
        for lemma2, lemma3, lemma4 in LEMMA_COMBOS:
            kw = dict(lemma2=lemma2, lemma3=lemma3, lemma4=lemma4)
            arr = solve("array", net, **kw)
            for engine in ("reference", "tuple"):
                ref = solve(engine, net, **kw)
                assert objectives(arr) == objectives(ref), (
                    f"degree={degree} engine={engine} "
                    f"lemmas={(lemma2, lemma3, lemma4)}"
                )

    @pytest.mark.parametrize("degree", [4, 6, 8])
    def test_identical_payloads_with_trees(self, degree):
        net = random_net(
            degree, rng=random.Random(2000 + degree), grid=9, span=90.0
        )
        arr = solve("array", net, with_trees=True)
        ref = solve("tuple", net, with_trees=True)
        # Backpointer structure is materialized identically, so the full
        # solutions — trees included — compare equal.
        assert objectives(arr) == objectives(ref)
        for (w, d, tree), (_, _, rtree) in zip(arr, ref):
            assert tree.edges() == rtree.edges()

    @pytest.mark.parametrize("degree", [5, 7, 9])
    def test_stats_parity(self, degree):
        net = random_net(
            degree, rng=random.Random(3000 + degree), grid=9, span=90.0
        )
        st_t, st_a = DWStats(), DWStats()
        ref = solve("tuple", net, st_t)
        arr = solve("array", net, st_a)
        assert objectives(arr) == objectives(ref)
        # Workload counters are engine-independent; allocation counters
        # are engine-specific and only sanity-checked.
        assert shared(st_a) == shared(st_t)
        assert st_a.merge_candidates > 0
        assert st_a.closure_allocations > 0


class TestCandidateBudget:
    """A tiny budget splits every pass into many batches, exactly."""

    BUDGET = 64

    @pytest.fixture
    def tiny_budget(self, monkeypatch):
        monkeypatch.setattr(pareto_dw_module, "_CANDIDATE_BUDGET", self.BUDGET)

    @pytest.fixture
    def filter_calls(self, monkeypatch):
        """Segment ids of every segmented filter call the engine makes."""
        calls = []
        real = frontier_array.segmented_pareto_filter

        def spy(seg, w, d):
            calls.append(seg.copy())
            return real(seg, w, d)

        monkeypatch.setattr(frontier_array, "segmented_pareto_filter", spy)
        return calls

    @pytest.mark.parametrize("degree", range(4, 10))
    def test_exact_at_tiny_budget(self, degree, tiny_budget):
        net = random_net(
            degree, rng=random.Random(4000 + degree), grid=9, span=90.0
        )
        st_tiny = assert_engines_agree(net)
        # The budget changes how work is batched, never what is counted.
        st_full = DWStats()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pareto_dw_module, "_CANDIDATE_BUDGET", 1 << 40)
            solve("array", net, st_full)
        assert st_tiny == st_full

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma4_boundary_nets(self, seed, tiny_budget):
        net = ring_net(seed)
        assert net.degree >= 6
        st_a = assert_engines_agree(net)
        assert st_a.splits_saved_lemma4 > 0

    @pytest.mark.parametrize(
        "pins",
        [
            # Collinear: every pin on one horizontal line.
            [(float(3 * i), 0.0) for i in range(9)],
            # Two shared columns and rows: a 2x4 lattice.
            [(x, y) for x in (0.0, 7.0) for y in (0.0, 2.0, 5.0, 9.0)],
            # Shared coordinates with a repeated gap (exact distance ties).
            [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0),
             (2.0, 0.0), (4.0, 2.0), (0.0, 2.0), (2.0, 4.0)],
        ],
    )
    def test_coincident_coordinates(self, pins, tiny_budget):
        net = Net.from_points(pins[0], pins[1:])
        assert_engines_agree(net)
        assert_engines_agree(net, lemma2=False, lemma3=False, lemma4=False)

    def test_small_grid_nets(self, tiny_budget):
        # grid=3 snaps pins onto three coordinate lines per axis.
        for degree in range(4, 10):
            net = random_net(degree, rng=random.Random(degree), grid=3)
            assert_engines_agree(net)

    def test_batches_respect_the_budget(self, tiny_budget, filter_calls):
        net = random_net(9, rng=random.Random(4009), grid=9, span=90.0)
        solve("array", net)
        assert len(filter_calls) > 50
        for seg in filter_calls:
            # Over budget only when one (mask, node) segment alone is.
            assert len(seg) <= self.BUDGET or len(set(seg.tolist())) == 1

    def test_one_mask_splits_between_bbox_nodes(self, monkeypatch):
        # A 3-pin net merges one mask only (both sinks): at a budget of
        # one product its bbox nodes must land in separate merge batches.
        products = []
        real = frontier_array.ragged_product_indices

        def spy(c1, c2, s1, s2, rows=True):
            products.append(int((c1 * c2).sum()))
            return real(c1, c2, s1, s2, rows=rows)

        monkeypatch.setattr(frontier_array, "ragged_product_indices", spy)
        monkeypatch.setattr(pareto_dw_module, "_CANDIDATE_BUDGET", 1)
        net = Net.from_points((0.0, 0.0), [(10.0, 4.0), (3.0, 9.0)])
        assert_engines_agree(net)
        assert len(products) > 1
        assert max(products) == 1


class TestEngineDispatch:
    """``pareto_dw`` picks its engine by degree; ``kernels=False`` never."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []
        real_array = pareto_dw_module._pareto_dw_array_impl
        real_tuple = pareto_dw_module._pareto_dw_impl

        def array_spy(net, **kw):
            calls.append("array")
            return real_array(net, **kw)

        def tuple_spy(net, *, kernels=True, **kw):
            calls.append("tuple" if kernels else "reference")
            return real_tuple(net, kernels=kernels, **kw)

        monkeypatch.setattr(pareto_dw_module, "_pareto_dw_array_impl", array_spy)
        monkeypatch.setattr(pareto_dw_module, "_pareto_dw_impl", tuple_spy)
        return calls

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_degree_picks_engine(self, degree, engine_calls):
        net = random_net(degree, rng=random.Random(5000 + degree), grid=9)
        front = pareto_dw(net)
        expected = "array" if degree >= pareto_dw_module._ARRAY_MIN_DEGREE else "tuple"
        assert engine_calls == [expected]
        assert objectives(front) == objectives(pareto_dw(net, kernels=False))

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_kernels_false_runs_reference_at_every_degree(
        self, degree, engine_calls
    ):
        net = random_net(degree, rng=random.Random(6000 + degree), grid=9)
        pareto_dw(net, kernels=False)
        assert engine_calls == ["reference"]

    def test_local_search_sub_nets_run_tuple_kernels(self, engine_calls):
        # A degree-9 net routed directly runs the array engine; the 9-pin
        # sub-net of a local-search step stays on the tuple kernels.
        router = PatLabor(config=PatLaborConfig(iterations=1, post_refine=False))
        router.route(random_net(9, rng=random.Random(8000), grid=9))
        assert engine_calls == ["array"]
        engine_calls.clear()
        router.route(random_net(14, rng=random.Random(8001), grid=9))
        assert engine_calls == ["tuple"]

    def test_engine_counters_split_by_degree(self):
        # Fixed counts, not the constant: moving the crossover away from
        # degree 6 is a deliberate re-baseline of the profile ledger.
        degrees = [4, 5, 5, 6, 7, 9, 3]
        nets = [
            random_net(d, rng=random.Random(7000 + i), grid=9)
            for i, d in enumerate(degrees)
        ]
        obs.reset()
        obs.enable()
        try:
            for net in nets:
                pareto_dw(net, with_trees=False)
            pareto_dw(nets[0], with_trees=False, kernels=False)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["dw.engine.tuple"] == 4
        assert counters["dw.engine.array"] == 3
        assert counters["dw.engine.reference"] == 1
        assert counters["dw.solves"] == len(nets) + 1
