"""Array-native Pareto fronts (the array engine's batch layer).

The tuple operators of :mod:`repro.core.pareto` spend most of their
time in CPython tuple/loop overhead once a DP has many fronts to filter:
a degree-9 Pareto-DW solve filters one merge and one closure bucket per
(sink subset, grid node), tens of thousands of small buckets. This module re-expresses the
same algebra over contiguous NumPy arrays — each front is a pair
``(w[], d[])`` of float64 arrays plus a parallel payload sequence — so
whole *batches* of fronts are filtered with two stable sorts and one
cumulative-minimum sweep instead of hundreds of thousands of
interpreter iterations.

The enumerate-and-sort tuple operators stay the bit-identical oracle.
Every function here is **exact**, not approximately
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

The module holds the bit-exact tuple/array conversion and the
**segmented batch machinery** — :func:`segmented_pareto_filter`,
:func:`segment_strict_prune`, :func:`ragged_product_indices` — which
filters *many* fronts (one per segment) in a single vectorized pass.
This is what the array engine of :func:`repro.core.pareto_dw.pareto_dw`
(degree 6 and up) builds on: it filters the merge and closure buckets of
one subset cardinality in budget-sized segmented passes. A single front
is simply one segment, so the tuple operators' filter, shift, cross
and union are each one segmented call (``tests/test_frontier_array.py``
checks every one against ``pareto_filter``, ``shift`` and ``cross``).

Empty and single-point fronts follow the same conventions as the tuple
operators: an empty input yields no survivors, and a single-point front
trivially satisfies the sorted-front invariant and always survives
filtering alone.

Doctests double as minimal usage examples:

>>> import numpy as np
>>> w = np.array([1.0, 3.0, 2.0]); d = np.array([5.0, 4.0, 1.0])
>>> segmented_pareto_filter(np.zeros(3, dtype=np.int64), w, d).tolist()
[0, 2]
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from .frontier import Solution

import numpy as np

__all__ = [
    "arrays_to_front",
    "front_to_arrays",
    "pack_objectives",
    "ragged_product_indices",
    "segment_strict_prune",
    "segmented_pareto_filter",
    "segmented_pareto_filter_packed",
    "segmented_pareto_keep",
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
