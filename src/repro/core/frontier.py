"""Sorted-front Pareto algebra: union and filter in linear time.

A **sorted front** is a sequence of ``(w, d, payload)`` solutions with
``w`` strictly ascending and ``d`` strictly descending — exactly the
shape :func:`repro.core.pareto.pareto_filter` outputs. The generic
filter re-derives that order on every call (enumerate, sort, sweep);
the two operators here exploit it instead:

* :func:`merge_sorted_fronts` — Pareto union of several sorted fronts by
  a fold of two-pointer union merges;
* :func:`pareto_filter_sorted` — drop-in ``pareto_filter`` that detects
  already-sorted input with one linear scan and skips the sort.

Both are plain two-pointer loops over tuples — no ``heapq``, no
generators, no per-candidate key objects — and both are exact: they
return what ``pareto_filter`` returns over the concatenated input,
objectives *and* payloads, because ties resolve to the first-encountered
solution in both. PatLabor's local search, the KS combine, the
brute-force oracle, the lookup-table build and the generic operators of
:mod:`repro.core.pareto` use them.
Pareto-DW does not: below degree 6 its buckets are small enough for
enumerate-and-sort, and from degree 6 up it runs on
:mod:`repro.core.frontier_array` (``docs/performance.md``). See
``tests/test_frontier_kernels.py`` for the equivalence property tests.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

Objective = Tuple[float, float]
Solution = Tuple[float, float, Any]

__all__ = [
    "Objective",
    "Solution",
    "merge_sorted_fronts",
    "pareto_filter_sorted",
]

_INF = float("inf")


def _union2(a: Sequence[Solution], b: Sequence[Solution]) -> List[Solution]:
    """Pareto union of two non-empty sorted fronts, preferring ``a`` on ties."""
    la, lb = len(a), len(b)
    i = j = 0
    sa = a[0]
    sb = b[0]
    out: List[Solution] = []
    best_d = _INF
    while True:
        if sa[0] < sb[0] or (sa[0] == sb[0] and sa[1] <= sb[1]):
            if sa[1] < best_d:
                out.append(sa)
                best_d = sa[1]
            i += 1
            if i == la:
                while j < lb:
                    sb = b[j]
                    j += 1
                    if sb[1] < best_d:
                        out.append(sb)
                        out.extend(b[j:])
                        break
                return out
            sa = a[i]
        else:
            if sb[1] < best_d:
                out.append(sb)
                best_d = sb[1]
            j += 1
            if j == lb:
                while i < la:
                    sa = a[i]
                    i += 1
                    if sa[1] < best_d:
                        out.append(sa)
                        out.extend(a[i:])
                        break
                return out
            sb = b[j]


def merge_sorted_fronts(*fronts: Sequence[Solution]) -> List[Solution]:
    """Pareto union of several sorted fronts: fold of two-pointer merges.

    Each step unions the accumulated front with the next input in
    ``O(|acc| + |front|)``; ties resolve to the earlier front, matching
    ``pareto_filter``'s first-encountered rule over the concatenated
    input. Because a Pareto union never grows past the paper's
    ``a + b - 1`` bound, the fold stays linear in the total input size
    for the small fronts of the routing DPs — with none of the
    per-element generator or heap overhead of a k-way ``heapq.merge``.
    """
    acc: Optional[List[Solution]] = None
    for f in fronts:
        if not f:
            continue
        if acc is None:
            acc = list(f)
        else:
            acc = _union2(acc, f)
    return acc if acc is not None else []


def _wd_key(s: Solution) -> Objective:
    """Sort key of a solution: the bare objective pair."""
    return (s[0], s[1])


def pareto_filter_sorted(solutions: Iterable[Solution]) -> List[Solution]:
    """``Pareto(S)`` with a sorted-input fast path; always exact.

    One linear scan checks whether the input is already in ``(w, d)``
    lexicographic order — true for every sorted front, and for any
    subsequence of one. Sorted input goes straight to
    the dominance sweep (``O(k)``); anything else falls back to the
    stable sort + sweep of ``pareto_filter`` (``O(k log k)``). Output and
    tie handling are identical to ``pareto_filter`` in both cases.

    Edge cases: an empty input returns a new empty list, and a single
    solution is returned as-is in a singleton list (a lone point is
    always a valid sorted front) — neither touches the sweep.

    >>> pareto_filter_sorted([])
    []
    >>> pareto_filter_sorted([(1.0, 2.0, "only")])
    [(1.0, 2.0, 'only')]
    >>> pareto_filter_sorted([(2.0, 1.0, "b"), (1.0, 5.0, "a")])
    [(1.0, 5.0, 'a'), (2.0, 1.0, 'b')]
    >>> pareto_filter_sorted([(1.0, 5.0, "a"), (2.0, 5.0, "dominated")])
    [(1.0, 5.0, 'a')]
    """
    items = list(solutions)
    if len(items) <= 1:
        return items
    prev = items[0]
    for s in items[1:]:
        if s[0] < prev[0] or (s[0] == prev[0] and s[1] < prev[1]):
            items.sort(key=_wd_key)
            break
        prev = s
    out: List[Solution] = []
    best_d = _INF
    for s in items:
        if s[1] < best_d:
            out.append(s)
            best_d = s[1]
    return out
