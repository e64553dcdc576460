"""Pareto set algebra for bicriterion minimisation.

This module implements the primitives of the paper's Section IV:

* Pareto dominance ``s <= s'`` for objective pairs ``(w, d)``,
* ``Pareto(S)`` — filtering a set down to its non-dominated members in
  ``O(k log k)`` (sort + sweep, the planar maximal-points method),
* ``S + x``    — shifting both objectives (root extension by an edge),
* ``S ⊕ S'``   — the merge product ``(w1+w2, max(d1, d2))``.

Solutions are ``(w, d, payload)`` triples; payloads carry trees or DP
backpointers and never influence dominance. Quality metrics used by the
evaluation harness (hypervolume, multiplicative epsilon indicator,
frontier coverage) live here too.

The functions here are the *generic* operators: they accept arbitrary
solution sets and re-derive sortedness when needed. They are also the
tuple Pareto-DW's operators — enumerate a bucket, then one
:func:`pareto_filter` — and the oracles of the array engine's tests
(``docs/numerics.md``). Where the input may already be sorted they
route through :func:`~repro.core.frontier.pareto_filter_sorted`, which
skips the sort without changing results.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .frontier import pareto_filter_sorted

Objective = Tuple[float, float]
Solution = Tuple[float, float, Any]

#: Tolerance for floating-point objective comparisons in *metrics* (the
#: core filtering uses exact comparisons; ties are true ties).
DEFAULT_TOL = 1e-9


def dominates(a: Objective, b: Objective) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (``a <= b`` and ``a != b``)."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def weakly_dominates(a: Objective, b: Objective, tol: float = 0.0) -> bool:
    """True when ``a`` is at least as good as ``b`` in both objectives."""
    return a[0] <= b[0] + tol and a[1] <= b[1] + tol


def pareto_filter(solutions: Iterable[Solution]) -> List[Solution]:
    """Non-dominated subset, sorted by ascending ``w`` (descending ``d``).

    Among solutions with identical ``(w, d)`` the first encountered is
    kept. This is the paper's ``Pareto(S)`` operator.
    """
    items = list(solutions)
    if len(items) <= 1:
        return items
    # Stable sort: ascending w, then ascending d; the sweep keeps the first
    # strictly-improving d, which also dedupes equal objective pairs.
    items.sort(key=lambda s: (s[0], s[1]))
    out: List[Solution] = []
    best_d = float("inf")
    for s in items:
        if s[1] < best_d:
            out.append(s)
            best_d = s[1]
    return out


def clean_front(
    solutions: Iterable[Solution], rel_tol: float = 1e-9
) -> List[Solution]:
    """Tolerance-aware Pareto filter for *final* results.

    Floating-point summation order makes mathematically equal objectives
    differ by ~1e-13 relative, which would inflate frontier counts with
    phantom points. This sweep keeps a solution only when its delay
    improves on the previous kept one by more than ``rel_tol`` of the
    objective magnitude. Use only on end results — inside the DP the exact
    filter is the correct one.
    """
    front = pareto_filter_sorted(solutions)
    if len(front) <= 1:
        return front
    scale = max(max(abs(s[0]), abs(s[1])) for s in front)
    tol = scale * rel_tol
    out: List[Solution] = [front[0]]
    for s in front[1:]:
        if s[1] >= out[-1][1] - tol:
            continue  # no real delay improvement over the previous point
        # Drop earlier points whose wirelength is tolerance-equal to this
        # one: they are the same solution seen through summation noise,
        # and this one has the (strictly) better delay.
        while out and s[0] <= out[-1][0] + tol:
            out.pop()
        out.append(s)
    return out


def shift(solutions: Sequence[Solution], x: float,
          rewrap: Optional[Callable[[Solution], Any]] = None) -> List[Solution]:
    """The paper's ``S + x``: add ``x`` to both objectives of every solution.

    ``rewrap`` optionally rebuilds the payload (e.g. to record the extension
    edge in a DP backpointer); it receives the original solution.
    """
    if rewrap is None:
        return [(w + x, d + x, p) for (w, d, p) in solutions]
    return [(w + x, d + x, rewrap((w, d, p))) for (w, d, p) in solutions]


def cross(
    s1: Sequence[Solution],
    s2: Sequence[Solution],
    combine: Optional[Callable[[Any, Any], Any]] = None,
) -> List[Solution]:
    """The paper's ``S ⊕ S'``: all pairwise merges ``(w1+w2, max(d1,d2))``.

    The result is Pareto-filtered before being returned, since the product
    of two fronts of sizes ``a`` and ``b`` contains at most ``a + b - 1``
    non-dominated points.
    """
    merged: List[Solution] = []
    for w1, d1, p1 in s1:
        for w2, d2, p2 in s2:
            payload = combine(p1, p2) if combine is not None else (p1, p2)
            merged.append((w1 + w2, max(d1, d2), payload))
    return pareto_filter(merged)


def merge_fronts(*fronts: Sequence[Solution]) -> List[Solution]:
    """Pareto-filtered union of several solution sets.

    Inputs need not be sorted; when their concatenation happens to be
    (e.g. a single maintained-sorted front), the sort is skipped. Callers
    that *guarantee* sorted inputs should use
    :func:`repro.core.frontier.merge_sorted_fronts` directly.
    """
    combined: List[Solution] = []
    for f in fronts:
        combined.extend(f)
    return pareto_filter_sorted(combined)


def objectives(solutions: Iterable[Solution]) -> List[Objective]:
    """Strip payloads, returning bare ``(w, d)`` pairs."""
    return [(s[0], s[1]) for s in solutions]


def is_pareto_front(solutions: Sequence[Solution]) -> bool:
    """True when no member dominates another (a valid Pareto *curve*).

    Sort + single sweep, ``O(k log k)``: after sorting the objective
    pairs lexicographically, the set is mutually non-dominated exactly
    when ``w`` strictly ascends and ``d`` strictly descends between
    neighbours. (Equality in either coordinate — including duplicate
    points — is weak dominance between the sorted neighbours; and any
    dominating pair ``a <= b`` elsewhere in the set forces some adjacent
    pair to violate the strict ordering, since ``d`` would fail to
    descend somewhere between ``a``'s and ``b``'s sorted positions.)
    """
    objs = sorted(objectives(solutions))
    prev_w, prev_d = float("-inf"), float("inf")
    for w, d in objs:
        if w == prev_w or d >= prev_d:
            return False
        prev_w, prev_d = w, d
    return True


# --------------------------------------------------------------------------
# Quality metrics (used by the evaluation harness, Tables III/IV, Fig. 7)
# --------------------------------------------------------------------------


def hypervolume(
    solutions: Sequence[Solution], reference: Objective
) -> float:
    """2-D hypervolume dominated by the front, bounded by ``reference``.

    ``reference`` must be weakly worse than every solution; points beyond
    it contribute nothing.
    """
    front = pareto_filter(list(solutions))
    pts = [
        (w, d)
        for (w, d) in objectives(front)
        if w <= reference[0] and d <= reference[1]
    ]
    pts.sort()
    hv = 0.0
    prev_d = reference[1]
    for w, d in pts:
        if d < prev_d:
            hv += (reference[0] - w) * (prev_d - d)
            prev_d = d
    return hv


def epsilon_indicator(
    candidate: Sequence[Solution], reference: Sequence[Solution]
) -> float:
    """Multiplicative epsilon: smallest ``c`` with the candidate
    ``c``-approximating the reference front (paper, Definition 2).

    For every reference solution ``s`` there must be a candidate ``s'``
    with ``s' <= c * s``; returns the max over reference points of the min
    over candidates of the required factor. Zero-valued reference
    objectives are handled by treating 0/0 as factor 1 and x/0 as +inf.

    The inner minimisation runs over the candidate *front* only (the
    factor is monotone in both objectives, so a dominated candidate never
    wins) and, for positive reference points, by binary search: along the
    front sorted by ascending ``w``, the wirelength factor ascends while
    the delay factor descends, so their max is V-shaped and minimised
    where they cross. ``O((k + r) log k)`` overall instead of ``O(k · r)``.
    """
    if not reference:
        return 1.0
    if not candidate:
        return float("inf")
    cand = objectives(pareto_filter(list(candidate)))
    k = len(cand)
    worst = 1.0
    for rw, rd in objectives(reference):
        if rw <= 0 or rd <= 0:
            # Degenerate reference objectives: keep the exact linear-scan
            # semantics for the 0/0 -> 1 and x/0 -> inf conventions.
            best = float("inf")
            for cw, cd in cand:
                fw = (
                    1.0
                    if cw <= rw == 0
                    else (cw / rw if rw > 0 else float("inf"))
                )
                fd = (
                    1.0
                    if cd <= rd == 0
                    else (cd / rd if rd > 0 else float("inf"))
                )
                best = min(best, max(fw, fd, 1.0))
        else:
            # g(i) = cw_i/rw - cd_i/rd strictly ascends along the front;
            # the V-shaped max is minimised at the sign crossing. Find the
            # first index with g >= 0 and evaluate its two neighbours.
            lo, hi = 0, k
            while lo < hi:
                mid = (lo + hi) // 2
                cw, cd = cand[mid]
                if cw / rw >= cd / rd:
                    hi = mid
                else:
                    lo = mid + 1
            best = float("inf")
            for idx in (lo - 1, lo):
                if 0 <= idx < k:
                    cw, cd = cand[idx]
                    best = min(best, max(cw / rw, cd / rd, 1.0))
        worst = max(worst, best)
    return worst


def count_on_frontier(
    candidate: Sequence[Solution],
    frontier: Sequence[Solution],
    tol: float = DEFAULT_TOL,
) -> int:
    """How many frontier points the candidate set attains (Table IV).

    A frontier point counts as found when some candidate matches it within
    ``tol`` in both objectives (candidates cannot strictly beat a true
    frontier point, so matching is the only way to attain it).

    Candidates are sorted once and each frontier point only scans the
    ``bisect``-located window of candidates with ``|cw - fw| <= tol`` —
    ``O((k + r) log k)`` for the usual case of tolerance-sized windows,
    with identical tolerance semantics to the full nested scan.
    """
    cand = sorted(objectives(candidate))
    found = 0
    neg_inf, pos_inf = float("-inf"), float("inf")
    for fw, fd in objectives(frontier):
        lo = bisect_left(cand, (fw - tol, neg_inf))
        hi = bisect_right(cand, (fw + tol, pos_inf))
        for cw, cd in cand[lo:hi]:
            if abs(cd - fd) <= tol:
                found += 1
                break
    return found


def attains_frontier(
    candidate: Sequence[Solution],
    frontier: Sequence[Solution],
    tol: float = DEFAULT_TOL,
) -> bool:
    """True when the candidate finds at least one frontier point (Table III:
    an algorithm is *non-optimal* on a net when this is False)."""
    return count_on_frontier(candidate, frontier, tol=tol) > 0


def normalized_front(
    solutions: Sequence[Solution], w_ref: float, d_ref: float
) -> List[Objective]:
    """Objectives scaled by reference values (Fig. 7 normalisation:
    ``w / w(FLUTE)`` and ``d / d(CL)``)."""
    if w_ref <= 0 or d_ref <= 0:
        raise ValueError("normalisation references must be positive")
    return [(w / w_ref, d / d_ref) for (w, d) in objectives(solutions)]


def front_at_wirelength(
    solutions: Sequence[Solution], w_budget: float
) -> Optional[Objective]:
    """Best-delay solution within a wirelength budget (curve sampling)."""
    best: Optional[Objective] = None
    for w, d in objectives(solutions):
        if w <= w_budget and (best is None or d < best[1]):
            best = (w, d)
    return best
