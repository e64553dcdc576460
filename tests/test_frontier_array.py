"""Array-native Pareto fronts agree bit-for-bit with the tuple oracle.

The oracle is the enumerate-and-sort algebra of :mod:`repro.core.pareto`
and the tuple Pareto-DW built on it:

* hypothesis round trips — ``front_to_arrays`` / ``arrays_to_front`` are
  bit-identical inverses;
* every single-front operation the array engine performs as one
  segmented filter call — filter, shift (closure extension), cross
  (merge product via ``ragged_product_indices``), union — returns exactly
  what ``pareto_filter``, ``shift`` + ``pareto_filter``, ``cross`` and
  ``pareto_filter`` of the concatenation return (objectives, survivors
  *and* tie choices) on random inputs drawn from a tie-heavy value
  pool, plus deterministic ``math.nextafter`` rounding-collision cases;
* the segmented batch kernels (``segmented_pareto_filter``,
  ``segment_strict_prune``, ``ragged_product_indices`` and their packed
  variants) match straightforward per-segment references;
* a regression matrix that the array engine equals the tuple DP on
  degree 2-9 nets across the Lemma flags, stats parity included — each
  engine called through its private entry point, since ``pareto_dw``
  picks one by degree;
* the array engine's candidate budget: at a tiny budget every pass
  splits into many batches and fronts, trees and counters stay equal;
* ``pareto_dw``'s degree dispatch and its ``dw.engine.*`` counters;
* an oracle below the dispatch degree: placement-like and tie-heavy
  nets of degree 2-5, which ``pareto_dw`` never sends to the array
  engine, solved on both engines.

Objective values reuse the integer/non-dyadic pool of
``test_frontier_kernels.py`` so exact ties and rounding collisions
occur constantly.
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
from repro.core.frontier import merge_sorted_fronts, pareto_filter_sorted
from repro.core.frontier_array import (
    arrays_to_front,
    front_to_arrays,
    pack_objectives,
    ragged_product_indices,
    segment_strict_prune,
    segmented_pareto_filter,
    segmented_pareto_filter_packed,
    segmented_pareto_keep,
)
from repro.core.pareto import cross, is_pareto_front, objectives, pareto_filter, shift
from repro.core.patlabor import PatLabor, PatLaborConfig
from repro.core.pareto_dw import (
    DWStats,
    _pareto_dw_array_impl,
    _pareto_dw_impl,
    pareto_dw,
)
from repro.eval.benchmarks import synth_net
from repro.geometry.net import Net, random_net

# The package re-exports functions under these module names.
pareto_dw_module = importlib.import_module("repro.core.pareto_dw")
frontier_array = importlib.import_module("repro.core.frontier_array")

# Same pool as test_frontier_kernels.py: frequent exact ties, non-dyadic
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


# ----------------------------------------------- single-front operations
#
# The array engine has no per-front kernels: a single front is one
# segment of the segmented filter, and the tuple operators' filter,
# shift, cross and union are each a gather plus one segmented call.
# These classes check exactly that composition against the
# enumerate-and-sort operators of repro.core.pareto.


def one_segment_filter(w, d):
    """The array engine's exact filter over a single front (one segment)."""
    return segmented_pareto_filter(np.zeros(w.shape[0], dtype=np.int64), w, d)


def filtered_front(w, d, payloads):
    """Survivors of :func:`one_segment_filter` as a tuple front."""
    idx = one_segment_filter(w, d)
    return arrays_to_front(
        w.take(idx), d.take(idx), [payloads[i] for i in idx.tolist()]
    )


class TestParetoFilterSortedArrays:
    @few
    @given(solution_lists())
    def test_matches_tuple_kernel_exactly(self, sols):
        w, d, payloads = front_to_arrays(sols)
        got = filtered_front(w, d, payloads)
        assert got == pareto_filter_sorted(sols) == pareto_filter(sols)

    def test_single_point_survives(self):
        idx = one_segment_filter(np.array([1.0]), np.array([2.0]))
        assert idx.tolist() == [0]

    def test_exact_duplicates_keep_first(self):
        idx = one_segment_filter(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert idx.tolist() == [0]


# ------------------------------------------------------------------ shift


class TestShiftSortedArrays:
    """A closure extension: both objectives shifted by one offset, filtered."""

    @few
    @given(fronts(), coord)
    def test_matches_tuple_kernel(self, front, x):
        w, d, payloads = front_to_arrays(front)
        assert filtered_front(w + x, d + x, payloads) == pareto_filter(
            shift(front, x)
        )

    def test_w_collision_keeps_smaller_delay(self):
        w = 1293.2694644882506
        w2 = math.nextafter(w, math.inf)
        off = 96.61455694252402
        assert w != w2 and w + off == w2 + off
        aw, ad, _ = front_to_arrays([(w, 2.0, None), (w2, 1.0, None)])
        idx = one_segment_filter(aw + off, ad + off)
        assert idx.tolist() == [1]  # replace-on-w-collision: keep last

    def test_d_collision_keeps_earlier_point(self):
        d_lo = 1293.2694644882506
        d_hi = math.nextafter(d_lo, math.inf)
        off = 96.61455694252402
        assert d_lo + off == d_hi + off
        aw, ad, _ = front_to_arrays([(1.0, d_hi, None), (2.0, d_lo, None)])
        idx = one_segment_filter(aw + off, ad + off)
        assert idx.tolist() == [0]  # first point weakly dominates


# ------------------------------------------------------------------ cross


def product_front(s1, s2):
    """A merge transition the array engine's way: ragged product, filter.

    Returns the surviving solutions (payloads are ``(p1, p2)`` pairs) and
    the full product bucket in enumeration order.
    """
    w1, d1, p1 = front_to_arrays(s1)
    w2, d2, p2 = front_to_arrays(s2)
    zero = np.zeros(1, dtype=np.int64)
    _, i_idx, j_idx = ragged_product_indices(
        np.array([len(s1)]), np.array([len(s2)]), zero, zero
    )
    w = w1.take(i_idx) + w2.take(j_idx)
    d = np.maximum(d1.take(i_idx), d2.take(j_idx))
    pairs = [(p1[i], p2[j]) for i, j in zip(i_idx.tolist(), j_idx.tolist())]
    bucket = arrays_to_front(w, d, pairs)
    return filtered_front(w, d, pairs), bucket


class TestCrossSortedArrays:
    @few
    @given(fronts(max_size=8), fronts(max_size=8))
    def test_matches_tuple_kernel(self, s1, s2):
        got, bucket = product_front(s1, s2)
        # Payload ties resolve like the tuple DP's merge bucket filter.
        assert got == cross(s1, s2) == pareto_filter(bucket)
        assert is_pareto_front(got)

    @few
    @given(fronts(max_size=8))
    def test_empty_operand(self, s1):
        for args in ((s1, []), ([], s1)):
            got, bucket = product_front(*args)
            assert got == bucket == []

    def test_w_collision_emits_single_point(self):
        w = 1293.2694644882506
        w2 = math.nextafter(w, math.inf)
        x = 96.61455694252402
        assert w + x == w2 + x
        got, _ = product_front([(w, 2.0, "a"), (w2, 1.0, "b")], [(x, 0.5, "c")])
        assert got == [(w + x, 1.0, ("b", "c"))]


# ------------------------------------------------------------------ union


class TestMergeArrays:
    """Unions of fronts: concatenated in argument order, one filter."""

    @few
    @given(st.lists(fronts(max_size=8), max_size=4))
    def test_merge_sorted_fronts_matches(self, front_list):
        ref = merge_sorted_fronts(*front_list)
        flat = [s for f in front_list for s in f]
        w, d, p = front_to_arrays(flat)
        assert filtered_front(w, d, p) == ref

    @few
    @given(
        st.lists(
            st.tuples(coord, fronts(max_size=8)),
            max_size=4,
        )
    )
    def test_merge_shifted_matches(self, runs):
        flat = [s for off, f in runs for s in shift(f, off)]
        w, d, p = front_to_arrays(flat)
        assert filtered_front(w, d, p) == pareto_filter(flat)


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

#: Work counters both engines must report identically; the allocation
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
    impl = _pareto_dw_array_impl if engine == "array" else _pareto_dw_impl
    return impl(net, stats=stats, **kw)


def shared(stats):
    return {name: getattr(stats, name) for name in SHARED_COUNTERS}


def assert_engines_agree(net, **flags):
    """Array == tuple DP: objectives, trees, shared counters."""
    st_a, st_t = DWStats(), DWStats()
    arr = solve("array", net, st_a, with_trees=True, **flags)
    ref = solve("tuple", net, st_t, with_trees=True, **flags)
    assert objectives(arr) == objectives(ref)
    assert [t.edges() for _, _, t in arr] == [t.edges() for _, _, t in ref]
    assert shared(st_a) == shared(st_t)
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
    """The array engine equals the tuple DP, stats included."""

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_identical_frontier_across_lemma_flags(self, degree):
        net = random_net(
            degree, rng=random.Random(1000 + degree), grid=9, span=90.0
        )
        for lemma2, lemma3, lemma4 in LEMMA_COMBOS:
            kw = dict(lemma2=lemma2, lemma3=lemma3, lemma4=lemma4)
            arr = solve("array", net, **kw)
            ref = solve("tuple", net, **kw)
            assert objectives(arr) == objectives(ref), (
                f"degree={degree} lemmas={(lemma2, lemma3, lemma4)}"
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

    def test_merge_rows_respect_the_budget(self, tiny_budget, monkeypatch):
        # The live-row cube is chunked too: a chunk materializes at most
        # the budget's worth of rows unless one (mask, node) alone has more.
        chunks = []
        real = pareto_dw_module._live_merge_rows

        def spy(CNT, PTR, masks, sub, box, budget):
            for rows in real(CNT, PTR, masks, sub, box, budget):
                chunks.append(rows)
                yield rows

        monkeypatch.setattr(pareto_dw_module, "_live_merge_rows", spy)
        net = random_net(9, rng=random.Random(4009), grid=9, span=90.0)
        assert_engines_agree(net)
        assert len(chunks) > 50
        assert sum(len(m) for m, *_ in chunks) > 10 * self.BUDGET
        for m, v, *_ in chunks:
            assert len(m) <= self.BUDGET or len(set(zip(m, v))) == 1

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
    """``pareto_dw`` picks its engine by degree; ``kernels=False`` runs
    the tuple DP at every degree."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []
        real_array = pareto_dw_module._pareto_dw_array_impl
        real_tuple = pareto_dw_module._pareto_dw_impl

        def array_spy(net, **kw):
            calls.append("array")
            return real_array(net, **kw)

        def tuple_spy(net, **kw):
            calls.append("tuple")
            return real_tuple(net, **kw)

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
        assert engine_calls == ["tuple"]

    def test_local_search_sub_nets_run_array_engine(self, engine_calls):
        # The 9-pin sub-net of a local-search step dispatches by degree
        # like a degree-9 net routed directly: both run the array engine.
        router = PatLabor(config=PatLaborConfig(iterations=1, post_refine=False))
        router.route(random_net(9, rng=random.Random(8000), grid=9))
        assert engine_calls == ["array"]
        engine_calls.clear()
        router.route(random_net(14, rng=random.Random(8001), grid=9))
        assert engine_calls == ["array"]

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
        # Four small-degree solves plus the kernels=False one.
        assert counters["dw.engine.tuple"] == 5
        assert counters["dw.engine.array"] == 3
        assert not [k for k in counters if k.startswith("dw.engine.")
                    and k not in ("dw.engine.tuple", "dw.engine.array")]
        assert counters["dw.solves"] == len(nets) + 1


def lattice_net(seed, degree, side=4):
    """Distinct pins on a ``side`` x ``side`` integer lattice: shared
    coordinates, repeated gaps and exact objective ties everywhere."""
    rng = random.Random(seed)
    cells = rng.sample([(float(x), float(y)) for x in range(side)
                        for y in range(side)], degree)
    return Net.from_points(cells[0], cells[1:])


#: Every on/off combination of the three pruning lemmas.
LEMMA_FLAGS = [
    dict(lemma2=l2, lemma3=l3, lemma4=l4)
    for l2, l3, l4 in product((True, False), repeat=3)
]


class TestArrayOracleBelowDispatch:
    """Degree 2-5 nets, which ``pareto_dw`` solves on the tuple DP, also
    solved on the array engine: an oracle independent of the tuple DP for
    the degrees ``batch_exact``'s ``kernels=False`` check cannot cover."""

    @staticmethod
    def assert_agree(net):
        assert_engines_agree(net)
        # Payload backpointers too, not just the trees built from them.
        assert solve("array", net) == solve("tuple", net)

    @pytest.mark.parametrize("degree", range(2, pareto_dw_module._ARRAY_MIN_DEGREE))
    @pytest.mark.parametrize("style", ["clustered2", "clustered3", "smoothed", "uniform"])
    def test_placement_like_nets(self, degree, style):
        rng = random.Random(9000 + degree)
        for _ in range(8):
            self.assert_agree(synth_net(degree, rng, style=style))

    @pytest.mark.parametrize("degree", range(3, pareto_dw_module._ARRAY_MIN_DEGREE))
    def test_tie_heavy_lattices(self, degree):
        for seed in range(40):
            net = lattice_net(100 * degree + seed, degree)
            self.assert_agree(net)
            assert_engines_agree(net, lemma2=False, lemma3=False, lemma4=False)

    @pytest.mark.parametrize(
        "flags", LEMMA_FLAGS, ids=lambda f: "".join(str(int(v)) for v in f.values())
    )
    @pytest.mark.parametrize("degree", range(2, pareto_dw_module._ARRAY_MIN_DEGREE))
    def test_payloads_under_every_lemma_flag(self, degree, flags):
        """The tuple DP's deferred payloads equal the array engine's, tie
        choices included, with any lemma off; shared counters too."""
        rng = random.Random(500 + degree)
        nets = [lattice_net(10 * degree + seed, degree) for seed in range(10)]
        nets += [synth_net(degree, rng, style="clustered2") for _ in range(4)]
        # Pins of a ring net: every sink on the boundary, so Lemma 4 fires.
        rings = [ring_net(seed) for seed in range(4)]
        nets += [Net.from_points(r.source, r.sinks[: degree - 1]) for r in rings]
        for net in nets:
            st_a, st_t = DWStats(), DWStats()
            assert solve("array", net, st_a, **flags) == solve(
                "tuple", net, st_t, **flags
            )
            assert shared(st_a) == shared(st_t)
