"""Array-native sorted-front Pareto kernels (NumPy twins of ``frontier``).

The pure-Python kernels of :mod:`repro.core.frontier` spend most of their
time in CPython tuple/loop overhead: profiling the Pareto-DW hot path at
degree 9 shows ~200k two-pointer kernel calls per net over fronts of at
most six points. This module re-expresses the same algebra over
contiguous NumPy arrays — each front is a pair ``(w[], d[])`` of float64
arrays plus a parallel payload sequence — so whole *batches* of fronts
are filtered with one stable ``lexsort`` and one cumulative-minimum
sweep instead of hundreds of thousands of interpreter iterations.

The pure-Python kernels stay the bit-identical oracle. Every function here is **exact**, not approximately
equal — see ``docs/numerics.md`` for the contract. The three properties
that make bit-identity possible:

* float64 elementwise adds, maxima and comparisons in NumPy are the same
  IEEE-754 operations CPython performs on ``float`` — no reassociation,
  no extended precision;
* ``np.lexsort`` is a sequence of stable sorts, so it reproduces
  ``list.sort(key=(w, d))`` including the order of exact duplicates —
  which is what decides payload survival under ``pareto_filter``'s
  first-encountered tie rule;
* reductions that *would* reassociate (``np.sum``/``np.dot`` use pairwise
  summation) are never used on objective values.

Two layers live here:

* **Kernel twins** — ``pareto_filter_sorted_arrays``,
  ``shift_sorted_arrays``, ``cross_sorted_arrays``,
  ``merge_sorted_fronts_arrays``, ``merge_shifted_arrays`` — one call per
  front, mirroring the :mod:`repro.core.frontier` API. They return index
  arrays into their inputs so callers gather payloads only for
  survivors.
* **Segmented batch machinery** — :func:`segmented_pareto_keep`,
  :func:`segment_strict_prune`, :func:`ragged_product_indices` — filters
  *many* fronts (one per segment) in a single vectorized pass. This is
  what the array engine of :func:`repro.core.pareto_dw.pareto_dw`
  (degree 6 and up) builds on: it filters the merge and closure buckets
  of one subset cardinality in budget-sized segmented passes.

Empty and single-point fronts follow the same conventions as the tuple
kernels: an empty front is a length-0 array pair (returned unchanged by
every filter), and a single-point front trivially satisfies the
sorted-front invariant and always survives filtering alone.

Doctests double as minimal usage examples:

>>> import numpy as np
>>> w = np.array([1.0, 3.0, 2.0]); d = np.array([5.0, 4.0, 1.0])
>>> w2, d2, idx = pareto_filter_sorted_arrays(w, d)
>>> w2.tolist(), d2.tolist(), idx.tolist()
([1.0, 2.0], [5.0, 1.0], [0, 2])
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from .frontier import Solution

import numpy as np

__all__ = [
    "arrays_to_front",
    "cross_sorted_arrays",
    "front_to_arrays",
    "merge_shifted_arrays",
    "merge_sorted_fronts_arrays",
    "pack_objectives",
    "pareto_filter_sorted_array",
    "pareto_filter_sorted_arrays",
    "ragged_product_indices",
    "segment_strict_prune",
    "segmented_pareto_filter",
    "segmented_pareto_filter_packed",
    "segmented_pareto_keep",
    "shift_sorted_arrays",
]

#: Type alias for the ubiquitous float64/int64 arrays; kept loose because
#: the project supports NumPy back to 1.21 where the generic aliases vary.
Array = Any


# --------------------------------------------------------------- conversion


def front_to_arrays(front: Sequence[Solution]) -> Tuple[Array, Array, List[Any]]:
    """Split a tuple front into ``(w, d, payloads)`` arrays.

    The conversion is bit-identical in both directions: values are copied
    verbatim into float64 arrays (every Python ``float`` *is* a float64),
    never re-parsed or rounded.

    >>> front_to_arrays([(1.0, 2.0, "a")])[0].tolist()
    [1.0]
    >>> front_to_arrays([])[0].shape
    (0,)
    """
    n = len(front)
    w = np.empty(n, dtype=np.float64)
    d = np.empty(n, dtype=np.float64)
    payloads: List[Any] = [None] * n
    for i, s in enumerate(front):
        w[i] = s[0]
        d[i] = s[1]
        payloads[i] = s[2]
    return w, d, payloads


def arrays_to_front(w: Array, d: Array, payloads: Sequence[Any]) -> List[Solution]:
    """Rebuild a tuple front from ``(w, d, payloads)`` arrays.

    Inverse of :func:`front_to_arrays`; the round trip
    ``arrays_to_front(*front_to_arrays(f)) == f`` holds bit-for-bit.

    >>> arrays_to_front(*front_to_arrays([(1.0, 2.0, "a")]))
    [(1.0, 2.0, 'a')]
    """
    return [
        (float(wi), float(di), p)
        for wi, di, p in zip(w.tolist(), d.tolist(), payloads)
    ]


# ------------------------------------------------------------ kernel twins


def pareto_filter_sorted_arrays(w: Array, d: Array) -> Tuple[Array, Array, Array]:
    """Array twin of :func:`repro.core.frontier.pareto_filter_sorted`.

    Returns ``(w', d', idx)`` where ``idx`` maps surviving positions back
    into the input (gather payloads with it). Implements exactly the
    reference semantics: a stable sort by ``(w, d)`` followed by the
    strict dominance sweep, so exact-duplicate ties keep the
    first-encountered input element. An empty input returns three empty
    arrays; a single point always survives.

    >>> import numpy as np
    >>> _, _, idx = pareto_filter_sorted_arrays(
    ...     np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    >>> idx.tolist()  # duplicate collapses to the first occurrence
    [0]
    """
    n = w.shape[0]
    if n <= 1:
        idx = np.arange(n, dtype=np.int64)
        return w[idx], d[idx], idx
    # Stable sort by (w, d): identical order to list.sort(key=(w, d)).
    order = np.lexsort((d, w))
    ds = d[order]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    # Sweep: keep when d is strictly below every previous d (the running
    # minimum over *all* previous equals the minimum over kept ones).
    np.less(ds[1:], np.minimum.accumulate(ds)[:-1], out=keep[1:])
    idx = order[keep]
    return w[idx], d[idx], idx


def pareto_filter_sorted_array(solutions: Sequence[Solution]) -> List[Solution]:
    """Tuple-API drop-in for ``pareto_filter_sorted`` running on arrays.

    Same inputs, same outputs (bit-identical, payload ties included),
    array math inside. Small inputs (< 2 points) short-circuit without
    touching NumPy.

    >>> pareto_filter_sorted_array([(2.0, 1.0, "b"), (1.0, 5.0, "a")])
    [(1.0, 5.0, 'a'), (2.0, 1.0, 'b')]
    """
    items = list(solutions)
    if len(items) <= 1:
        return items
    w, d, payloads = front_to_arrays(items)
    _, _, idx = pareto_filter_sorted_arrays(w, d)
    return [items[i] for i in idx.tolist()]


def shift_sorted_arrays(w: Array, d: Array, x: float) -> Tuple[Array, Array, Array]:
    """Array twin of :func:`repro.core.frontier.shift_sorted`.

    Shifts both objectives by ``x`` and collapses rounding collisions
    exactly like the reference single pass: a candidate whose shifted
    ``d`` did not strictly drop below the previous kept ``d`` is skipped
    (the earlier, smaller-``w`` point weakly dominates), and a candidate
    landing on the previous kept ``w`` replaces it (same ``w``, strictly
    smaller ``d``). Returns ``(w', d', idx)`` with ``idx`` into the input.

    >>> import numpy as np
    >>> w2, d2, idx = shift_sorted_arrays(
    ...     np.array([1.0, 2.0]), np.array([4.0, 3.0]), 1.0)
    >>> w2.tolist(), idx.tolist()
    ([2.0, 3.0], [0, 1])
    """
    n = w.shape[0]
    if n == 0:
        idx = np.arange(0, dtype=np.int64)
        return w + x, d + x, idx
    ws = w + x
    ds = d + x
    # Phase 1 (d collisions, keep first): the input d is strictly
    # descending, so the shifted ds is non-increasing and the reference's
    # "d >= last kept d" test reduces to comparing adjacent elements.
    keep1 = np.empty(n, dtype=bool)
    keep1[0] = True
    np.less(ds[1:], ds[:-1], out=keep1[1:])
    idx = np.nonzero(keep1)[0]
    # Phase 2 (w collisions, keep last): among survivors w is
    # non-decreasing with strictly decreasing d, so of each equal-w run
    # the reference keeps the last (each newcomer pops its predecessor).
    wk = ws[idx]
    m = idx.shape[0]
    keep2 = np.empty(m, dtype=bool)
    keep2[m - 1] = True
    np.not_equal(wk[:-1], wk[1:], out=keep2[:-1])
    idx = idx[keep2]
    return ws[idx], ds[idx], idx


def cross_sorted_arrays(
    w1: Array, d1: Array, w2: Array, d2: Array
) -> Tuple[Array, Array, Array, Array]:
    """Array twin of :func:`repro.core.frontier.cross_sorted`.

    Enumerates the non-dominated subset of the merge product
    ``(w1[i] + w2[j], max(d1[i], d2[j]))`` without materializing the
    ``a * b`` candidate grid. The two-pointer stream of the reference
    visits, for each distinct delay value ``v`` of ``d1`` and ``d2`` in
    descending order, the state ``i = |{d1 > v}|, j = |{d2 > v}|`` — both
    counts computed here with one ``searchsorted`` each — and collapses
    equal-``w`` rounding collisions by keeping the last (smallest-``d``)
    state, exactly the reference's replace-on-collision rule.

    Returns ``(w, d, i_idx, j_idx)``; build payloads by combining
    ``p1[i_idx[k]]`` with ``p2[j_idx[k]]``. Either input empty yields
    four empty arrays.

    >>> import numpy as np
    >>> w, d, i, j = cross_sorted_arrays(
    ...     np.array([1.0, 2.0]), np.array([4.0, 1.0]),
    ...     np.array([1.0]), np.array([0.0]))
    >>> list(zip(w.tolist(), d.tolist()))
    [(2.0, 4.0), (3.0, 1.0)]
    """
    a, b = w1.shape[0], w2.shape[0]
    if a == 0 or b == 0:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_f.copy(), empty_i, empty_i.copy()
    # Distinct delay values of both fronts, descending.
    vals = np.union1d(d1, d2)[::-1]
    # i(v) = |{d1 > v}|: with -d1 strictly ascending this is a left
    # searchsorted of -v; same for j(v).
    i_idx = np.searchsorted(-d1, -vals, side="left")
    j_idx = np.searchsorted(-d2, -vals, side="left")
    valid = (i_idx < a) & (j_idx < b)
    i_idx = i_idx[valid]
    j_idx = j_idx[valid]
    w = w1[i_idx] + w2[j_idx]
    d = vals[valid]
    # Equal-w rounding collisions: keep the last (d is strictly
    # descending along the stream, so the last has the smallest d).
    m = w.shape[0]
    keep = np.empty(m, dtype=bool)
    keep[m - 1] = True
    np.not_equal(w[:-1], w[1:], out=keep[:-1])
    return w[keep], d[keep], i_idx[keep], j_idx[keep]


def merge_sorted_fronts_arrays(
    ws: Sequence[Array], ds: Sequence[Array]
) -> Tuple[Array, Array, Array, Array]:
    """Array twin of :func:`repro.core.frontier.merge_sorted_fronts`.

    Pareto union of several sorted fronts: concatenate in argument order
    and run the exact stable filter, which resolves ties to the earlier
    front — the same first-encountered rule the reference fold
    implements. Returns ``(w, d, front_idx, elem_idx)`` identifying each
    survivor's source front and position.

    >>> import numpy as np
    >>> w, d, f, e = merge_sorted_fronts_arrays(
    ...     [np.array([1.0]), np.array([1.0])],
    ...     [np.array([2.0]), np.array([1.0])])
    >>> f.tolist(), e.tolist()
    ([1], [0])
    """
    if not ws:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_f.copy(), empty_i, empty_i.copy()
    w = np.concatenate(ws)
    d = np.concatenate(ds)
    sizes = np.array([x.shape[0] for x in ws], dtype=np.int64)
    front_of = np.repeat(np.arange(len(ws), dtype=np.int64), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    w2, d2, idx = pareto_filter_sorted_arrays(w, d)
    f_idx = front_of[idx]
    return w2, d2, f_idx, idx - starts[f_idx]


def merge_shifted_arrays(
    offsets: Array, ws: Sequence[Array], ds: Sequence[Array]
) -> Tuple[Array, Array, Array, Array]:
    """Array twin of :func:`repro.core.frontier.merge_shifted`.

    Union of several sorted fronts, each shifted by its run offset — the
    Pareto-DW closure bucket. Matches the reference's documented
    semantics: identical to ``pareto_filter`` over the concatenated
    shifted bucket in run order, ties to the earlier run. Returns
    ``(w, d, run_idx, elem_idx)``; the caller decides payload reuse vs
    rewrap per surviving run (the reference's allocation accounting is a
    kernel-strategy detail, not part of the numeric contract).

    >>> import numpy as np
    >>> w, d, r, e = merge_shifted_arrays(
    ...     np.array([0.0, 1.0]),
    ...     [np.array([2.0]), np.array([0.0])],
    ...     [np.array([0.0]), np.array([3.0])])
    >>> list(zip(w.tolist(), d.tolist()))
    [(1.0, 4.0), (2.0, 0.0)]
    """
    if not ws:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_f.copy(), empty_i, empty_i.copy()
    sizes = np.array([x.shape[0] for x in ws], dtype=np.int64)
    off = np.repeat(np.asarray(offsets, dtype=np.float64), sizes)
    w = np.concatenate(ws) + off
    d = np.concatenate(ds) + off
    run_of = np.repeat(np.arange(len(ws), dtype=np.int64), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    w2, d2, idx = pareto_filter_sorted_arrays(w, d)
    r_idx = run_of[idx]
    return w2, d2, r_idx, idx - starts[r_idx]


# ------------------------------------------------- segmented batch kernels


def segmented_pareto_keep(seg: Array, w: Array, d: Array) -> Array:
    """Keep-mask of the exact Pareto sweep run independently per segment.

    Input arrays must already be ordered by ``(seg, w, d)`` with a stable
    sort (``seg`` non-decreasing). Returns a boolean mask marking, within
    every segment, the elements ``pareto_filter`` would keep: those whose
    ``d`` is strictly below every earlier ``d`` of the same segment.

    The sweep is vectorized without a per-segment loop via an integer
    key trick: ``d`` values are replaced by dense ranks (equal values
    share a rank, preserving strict comparisons), each segment adds a
    *descending* band offset — later segments sit in strictly lower
    bands — and one global ``minimum.accumulate`` then computes every
    per-segment prefix minimum, because elements of earlier segments
    always carry larger keys than the whole current band and can never
    masquerade as its minimum.

    >>> import numpy as np
    >>> seg = np.array([0, 0, 1]); w = np.array([1.0, 2.0, 1.0])
    >>> segmented_pareto_keep(seg, w, np.array([5.0, 6.0, 9.0])).tolist()
    [True, False, True]
    """
    n = d.shape[0]
    if n == 0:
        return np.empty(0, dtype=bool)
    # Dense ascending ranks of d; exact duplicates share a rank so the
    # strict "<" on values is the strict "<" on ranks.
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    new_val = np.empty(n, dtype=bool)
    new_val[0] = False
    np.not_equal(d_sorted[1:], d_sorted[:-1], out=new_val[1:])
    ranks_sorted = np.cumsum(new_val)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = ranks_sorted
    # Descending segment bands (earlier segment -> larger band).
    seg_new = np.empty(n, dtype=bool)
    seg_new[0] = True
    np.not_equal(seg[1:], seg[:-1], out=seg_new[1:])
    seg_ord = np.cumsum(seg_new)
    band = (np.int64(seg_ord[-1]) - seg_ord) * np.int64(n + 1)
    key = ranks + band
    prev_min = np.minimum.accumulate(key)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.less(key[1:], prev_min[:-1], out=keep[1:])
    return keep


def segmented_pareto_filter(seg: Array, w: Array, d: Array) -> Array:
    """Indices of the exact per-segment Pareto sweep, in filter order.

    Equivalent to ``order = np.lexsort((d, w, seg))`` followed by
    :func:`segmented_pareto_keep` on the reordered arrays, returning
    ``order[keep]`` — but implemented with two stable sorts instead of
    three by packing ``(w, d)`` into one complex128 key (NumPy orders
    complex values lexicographically, real part first), and with the
    keep sweep as a single segment-resetting prefix minimum instead of
    a rank computation. ``seg`` may be in any order; the returned
    indices are grouped by segment, ``(w, d)``-sorted inside each,
    exact duplicates in original order.

    >>> import numpy as np
    >>> seg = np.array([0, 0, 1]); w = np.array([2.0, 1.0, 1.0])
    >>> segmented_pareto_filter(seg, w, np.array([6.0, 5.0, 9.0])).tolist()
    [1, 2]
    """
    return segmented_pareto_filter_packed(seg, pack_objectives(w, d))


def pack_objectives(w: Array, d: Array) -> Array:
    """Pack ``(w, d)`` into one complex128 array (real = w, imag = d).

    NumPy orders complex values lexicographically — real part first, then
    imaginary — in ``sort``/``argsort``, the comparison ufuncs and the
    ``minimum``/``maximum`` families. A packed objective pair therefore
    sorts and compares exactly like the tuple ``(w, d)``, which lets the
    segmented kernels replace pairs of float passes with single complex
    ones. Packing copies the float64 bits verbatim; nothing is rounded.

    >>> import numpy as np
    >>> z = pack_objectives(np.array([1.0]), np.array([2.0]))
    >>> (z.real.tolist(), z.imag.tolist())
    ([1.0], [2.0])
    """
    wd = np.empty(w.shape[0], dtype=np.complex128)
    wd.real = w
    wd.imag = d
    return wd


def segmented_pareto_filter_packed(seg: Array, wd: Array) -> Array:
    """:func:`segmented_pareto_filter` on a packed objective array.

    ``wd`` is the complex128 packing of :func:`pack_objectives`; callers
    that already carry packed objectives skip the repacking pass.

    >>> import numpy as np
    >>> seg = np.array([0, 0, 1])
    >>> wd = pack_objectives(np.array([2.0, 1.0, 1.0]),
    ...                      np.array([6.0, 5.0, 9.0]))
    >>> segmented_pareto_filter_packed(seg, wd).tolist()
    [1, 2]
    """
    n = wd.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # One stable argsort of w + i*d IS the stable (w, d) lexsort; a
    # second stable pass by segment completes lexsort((d, w, seg)).
    o1 = np.argsort(wd, kind="stable")
    order = o1.take(np.argsort(seg.take(o1), kind="stable"))
    seg_o = seg.take(order)
    d_o = wd.imag.take(order)
    # Strict per-segment prefix-min sweep in one accumulate over packed
    # (-seg, d): segment ids are non-decreasing in sorted order, so each
    # new segment's first element has the smallest real part seen so far
    # and instantly becomes the running lexicographic minimum — the
    # prefix min "resets" at every boundary. Inside a segment, the
    # running minimum's imaginary part is exactly the prefix min of d.
    # Segment ids stay far below 2**53, so the float64 real is exact.
    run = np.empty(n, dtype=np.complex128)
    run.real = -seg_o
    run.imag = d_o
    prev_min = np.minimum.accumulate(run)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = (prev_min.real[:-1] > run.real[1:]) | (
        d_o[1:] < prev_min.imag[:-1]
    )
    return order[keep]


def segment_strict_prune(
    starts: Array, sizes: Array, w: Array, d: Array
) -> Array:
    """Keep-mask dropping elements strictly dominated inside their segment.

    Segments must be contiguous slices of ``w``/``d`` (``starts[k]`` /
    ``sizes[k]``), in any internal order. For each segment two *real*
    witness points are computed — the minimum-``d`` element (smallest
    ``w`` among those achieving it) and the minimum-``w`` element
    (smallest ``d`` among those) — and every element strictly dominated
    by either witness is dropped. Strictly dominated elements can never
    appear in, nor influence the tie order of, the exact filter, so this
    is a sound pre-pass that typically removes the bulk of a bucket
    before the ``O(k log k)`` sort of :func:`segmented_pareto_keep`.

    >>> import numpy as np
    >>> keep = segment_strict_prune(
    ...     np.array([0]), np.array([3]),
    ...     np.array([1.0, 2.0, 3.0]), np.array([9.0, 1.0, 5.0]))
    >>> keep.tolist()
    [True, True, False]
    """
    n = w.shape[0]
    if n == 0:
        return np.empty(0, dtype=bool)
    nz = sizes > 0
    s = starts[nz]
    rep = sizes[nz]
    # All-float formulation: complex packing would find each witness in
    # one lexicographic reduce, but NumPy's complex minimum/compare
    # loops are scalar while the float64 ones vectorize — at the prune's
    # candidate volumes the extra float passes are the cheaper trade
    # (the sort-bound filter is where packing pays; see
    # segmented_pareto_filter_packed).
    min_d_e = np.repeat(np.minimum.reduceat(d, s), rep)
    min_w_e = np.repeat(np.minimum.reduceat(w, s), rep)
    inf = np.float64("inf")
    # Witness A: among elements attaining the segment's min d, the one
    # with the smallest w (a real element of the segment).
    w_at_min_d = np.repeat(
        np.minimum.reduceat(np.where(d == min_d_e, w, inf), s), rep
    )
    # Witness B: among elements attaining the segment's min w, the one
    # with the smallest d.
    d_at_min_w = np.repeat(
        np.minimum.reduceat(np.where(w == min_w_e, d, inf), s), rep
    )
    # The witnesses are segment minima, so ``min_d_e <= d`` and
    # ``min_w_e <= w`` hold everywhere; the general strict-dominance
    # test collapses to three comparisons per witness. The equality
    # clauses matter on real workloads — grid distances tie constantly,
    # and dropping tied-but-dominated elements here keeps the filter's
    # sort input small.
    dom_a = (w_at_min_d < w) | ((w_at_min_d == w) & (min_d_e < d))
    dom_b = (d_at_min_w < d) | ((d_at_min_w == d) & (min_w_e < w))
    return ~(dom_a | dom_b)


def ragged_product_indices(
    cnt1: Array, cnt2: Array, start1: Array, start2: Array, rows: bool = True
) -> Tuple[Optional[Array], Array, Array]:
    """Flat index arrays of row-major cross products of many front pairs.

    Row ``r`` pairs a front of ``cnt1[r]`` elements starting at
    ``start1[r]`` with one of ``cnt2[r]`` elements at ``start2[r]``; the
    output enumerates, row by row, every ``(i, j)`` product pair in
    row-major order (first front outer) — the enumeration order of the
    reference DP merge bucket. Returns ``(row, i_idx, j_idx)``.

    ``rows=False`` skips materializing the per-product row column and
    returns ``(None, i_idx, j_idx)``: callers that only need row ids for
    a few surviving products can recover them with
    ``np.searchsorted(np.cumsum(cnt1 * cnt2), survivors, side="right")``
    instead of paying a third full-length expansion.

    >>> import numpy as np
    >>> row, i, j = ragged_product_indices(
    ...     np.array([2]), np.array([2]), np.array([0]), np.array([5]))
    >>> i.tolist(), j.tolist()
    ([0, 0, 1, 1], [5, 6, 5, 6])
    """
    counts = cnt1 * cnt2
    total = int(counts.sum())
    n_rows = counts.shape[0]
    if total == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return (empty_i if rows else None), empty_i.copy(), empty_i.copy()
    # Two-level expansion — first one entry per (row, i) pair, then each
    # pair repeated over its j block — avoids any division over the full
    # product array.
    pair_row = np.repeat(np.arange(n_rows, dtype=np.int64), cnt1)
    cum1 = np.concatenate(([0], np.cumsum(cnt1)[:-1]))
    i_vals = (
        start1[pair_row]
        + np.arange(pair_row.shape[0], dtype=np.int64)
        - cum1[pair_row]
    )
    blk = cnt2[pair_row]
    blk_starts = np.concatenate(([0], np.cumsum(blk)[:-1]))
    if rows:
        per_pair = np.stack((pair_row, i_vals, start2[pair_row] - blk_starts))
        expanded = np.repeat(per_pair, blk, axis=1)
        j_idx = expanded[2] + np.arange(total, dtype=np.int64)
        return expanded[0], expanded[1], j_idx
    per_pair = np.stack((i_vals, start2[pair_row] - blk_starts))
    expanded = np.repeat(per_pair, blk, axis=1)
    j_idx = expanded[1] + np.arange(total, dtype=np.int64)
    return None, expanded[0], j_idx


def front_views(
    ptr: Array, cnt: Array, w: Array, d: Array
) -> List[Optional[Tuple[Array, Array]]]:
    """Per-segment ``(w, d)`` array views of a CSR-packed batch of fronts.

    Convenience for tests and debugging: ``ptr[k]``/``cnt[k]`` delimit
    front ``k`` inside the flat arrays. Empty fronts yield ``None``.

    >>> import numpy as np
    >>> front_views(np.array([0, 1]), np.array([1, 0]),
    ...             np.array([1.0]), np.array([2.0]))[1] is None
    True
    """
    out: List[Optional[Tuple[Array, Array]]] = []
    for k in range(ptr.shape[0]):
        c = int(cnt[k])
        if c == 0:
            out.append(None)
        else:
            p = int(ptr[k])
            out.append((w[p : p + c], d[p : p + c]))
    return out
