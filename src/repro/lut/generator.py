"""Lookup-table generation: symbolic Pareto-DW over pin patterns.

A degree-``n`` *pattern* places ``n`` pins on an ``n x n`` grid, one per
column and row: pin in column ``i`` sits at row ``perm[i]``, and one
column holds the source. Every net reduces to a pattern by coordinate
ranking, and patterns equivalent under the eight plane symmetries share a
canonical representative (paper's symmetry reduction), so the table needs
one entry per canonical ``(perm, source_col)`` pair — the paper's
``#Index``.

For each pattern this module runs the *symbolic* Pareto-DW of Section V-A:
identical recurrence to :mod:`repro.core.pareto_dw`, but solutions are
``(W, D)`` gap-usage vectors pruned by Lemma 1 (see
:mod:`repro.lut.symbolic`). The surviving solutions are all topologies
that can be Pareto-optimal for *some* gap assignment — evaluating them
numerically at lookup time therefore yields the exact frontier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..geometry.transforms import canonical_pattern
from ..core.pareto_dw import _consecutive_splits
from ..obs import counter_add, enabled as _obs_enabled, span, timer_observe
from .symbolic import (
    SymbolicSolution,
    merge_solutions,
    prune_front,
    shift_solution,
)

GridNode = Tuple[int, int]
Pattern = Tuple[Tuple[int, ...], int]  # (perm, source_col)
EdgeSet = FrozenSet[Tuple[GridNode, GridNode]]


@dataclass
class PatternSolutions:
    """All potentially-Pareto-optimal topologies of one canonical pattern."""

    perm: Tuple[int, ...]
    source_col: int
    solutions: List[SymbolicSolution] = field(default_factory=list)
    # payload of each solution: frozenset of undirected grid-node edges.


def _symbolic_edge(a: GridNode, b: GridNode, n: int) -> Tuple[int, ...]:
    counts = [0] * (2 * (n - 1))
    x0, x1 = sorted((a[0], b[0]))
    for k in range(x0, x1):
        counts[k] = 1
    y0, y1 = sorted((a[1], b[1]))
    off = n - 1
    for k in range(y0, y1):
        counts[off + k] = 1
    return tuple(counts)


def _corner_pruned_nodes(n: int, pins: Sequence[GridNode]) -> List[GridNode]:
    """Active nodes after Lemma 2 on the pattern grid."""
    out: List[GridNode] = []
    for ix in range(n):
        for iy in range(n):
            ll = lr = ul = ur = True
            for px, py in pins:
                if px <= ix and py <= iy:
                    ll = False
                if px >= ix and py <= iy:
                    lr = False
                if px <= ix and py >= iy:
                    ul = False
                if px >= ix and py >= iy:
                    ur = False
                if not (ll or lr or ul or ur):
                    break
            if not (ll or lr or ul or ur):
                out.append((ix, iy))
    return out


def _collect_edges(payload) -> EdgeSet:
    edges = set()
    stack = [payload]
    while stack:
        p = stack.pop()
        if p[0] == "leaf":
            continue
        if p[0] == "ext":
            _, u, v, child = p
            if u != v:
                edges.add((u, v) if u <= v else (v, u))
            stack.append(child)
        else:
            stack.append(p[1])
            stack.append(p[2])
    return frozenset(edges)


def _boundary_order_pattern(n: int, nodes: Sequence[GridNode]) -> Optional[List[int]]:
    """Clockwise boundary rank per node on the n x n pattern grid."""
    ranks: List[int] = []
    for ix, iy in nodes:
        if iy == n - 1:
            r = ix
        elif ix == n - 1:
            r = (n - 1) + (n - 1 - iy)
        elif iy == 0:
            r = 2 * (n - 1) + (n - 1 - ix)
        elif ix == 0:
            r = 3 * (n - 1) + iy
        else:
            return None
        ranks.append(r)
    return ranks


def solve_pattern(
    perm: Sequence[int],
    source_col: int,
    *,
    prune_mode: str = "componentwise",
    lemma3: bool = True,
    lemma4: bool = True,
) -> PatternSolutions:
    """Run symbolic Pareto-DW on one pattern.

    Returns the set of potentially optimal topologies, each a
    :class:`SymbolicSolution` whose payload is its grid edge set.
    """
    profiling = _obs_enabled()
    #: Solutions discarded by Lemma-1 pruning across this pattern's DP
    #: (``len(bucket) - len(front)`` per prune call), counted only while
    #: profiling; a one-element list so the nested closures can mutate it.
    pruned = [0]

    def _count_prune(before: int, after: int) -> None:
        if profiling:
            pruned[0] += before - after

    with span("lut.solve_pattern"):
        result = _solve_pattern_impl(
            perm,
            source_col,
            prune_mode=prune_mode,
            lemma3=lemma3,
            lemma4=lemma4,
            count_prune=_count_prune,
        )
    if profiling:
        counter_add("lut.patterns_solved")
        counter_add("lut.symbolic_pruned", pruned[0])
        counter_add("lut.topologies_kept", len(result.solutions))
    return result


def _solve_pattern_impl(
    perm: Sequence[int],
    source_col: int,
    *,
    prune_mode: str,
    lemma3: bool,
    lemma4: bool,
    count_prune,
) -> PatternSolutions:
    """The symbolic DP body of :func:`solve_pattern`."""
    n = len(perm)
    m = 2 * (n - 1)
    pins: List[GridNode] = [(i, perm[i]) for i in range(n)]
    source = pins[source_col]
    sinks = [p for i, p in enumerate(pins) if i != source_col]
    num_sinks = len(sinks)
    full = (1 << num_sinks) - 1
    nodes = _corner_pruned_nodes(n, pins)
    zero = (0,) * m
    edge_vec: Dict[Tuple[GridNode, GridNode], Tuple[int, ...]] = {}

    def evec(a: GridNode, b: GridNode) -> Tuple[int, ...]:
        key = (a, b)
        v = edge_vec.get(key)
        if v is None:
            v = _symbolic_edge(a, b, n)
            edge_vec[key] = v
        return v

    boundary_rank = _boundary_order_pattern(n, sinks) if lemma4 else None

    S: List[Optional[Dict[GridNode, List[SymbolicSolution]]]] = [None] * (full + 1)

    def closure(
        merged: Dict[GridNode, List[SymbolicSolution]]
    ) -> Dict[GridNode, List[SymbolicSolution]]:
        out: Dict[GridNode, List[SymbolicSolution]] = {}
        sources = [(u, lst) for u, lst in merged.items() if lst]
        for v in nodes:
            bucket: List[SymbolicSolution] = []
            for u, lst in sources:
                if u == v:
                    bucket.extend(lst)
                else:
                    ev = evec(u, v)
                    for s in lst:
                        bucket.append(
                            shift_solution(s, ev, ("ext", u, v, s.payload))
                        )
            front = prune_front(bucket, mode=prune_mode)
            count_prune(len(bucket), len(front))
            out[v] = front
        return out

    for si, s_node in enumerate(sinks):
        base = {
            s_node: [SymbolicSolution(zero, (zero,), ("leaf", s_node))]
        }
        S[1 << si] = closure(base)

    masks_by_size: List[List[int]] = [[] for _ in range(num_sinks + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, num_sinks + 1):
        for mask in masks_by_size[size]:
            bits = [i for i in range(num_sinks) if mask >> i & 1]
            if lemma3:
                ixs = [sinks[i][0] for i in bits]
                iys = [sinks[i][1] for i in bits]
                bxlo, bxhi = min(ixs), max(ixs)
                bylo, byhi = min(iys), max(iys)
            if boundary_rank is not None:
                submasks = _consecutive_splits(bits, boundary_rank)
                low = 1 << bits[0]
                submasks = [sm for sm in submasks if sm & low]
            else:
                low = 1 << bits[0]
                rest = mask & ~low
                submasks = []
                sub = rest
                while True:
                    submasks.append(sub | low)
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest
                submasks = [sm for sm in submasks if sm != mask]

            merged: Dict[GridNode, List[SymbolicSolution]] = {}
            for v in nodes:
                if lemma3:
                    ix, iy = v
                    if not (bxlo <= ix <= bxhi and bylo <= iy <= byhi):
                        continue
                bucket: List[SymbolicSolution] = []
                for q1 in submasks:
                    q2 = mask ^ q1
                    s1 = S[q1].get(v) if S[q1] else None
                    s2 = S[q2].get(v) if S[q2] else None
                    if not s1 or not s2:
                        continue
                    for a in s1:
                        for b in s2:
                            bucket.append(
                                merge_solutions(
                                    a, b, ("merge", a.payload, b.payload)
                                )
                            )
                if bucket:
                    front = prune_front(bucket, mode=prune_mode)
                    count_prune(len(bucket), len(front))
                    merged[v] = front
            S[mask] = closure(merged)

    raw = S[full][source] if S[full] else []
    # Replace backpointers by concrete edge sets and re-prune: distinct DP
    # derivations can share an edge set.
    finals: List[SymbolicSolution] = [
        SymbolicSolution(s.w, s.rows, _collect_edges(s.payload)) for s in raw
    ]
    pruned_finals = prune_front(finals, mode=prune_mode)
    count_prune(len(finals), len(pruned_finals))
    return PatternSolutions(tuple(perm), source_col, pruned_finals)


def enumerate_canonical_patterns(n: int) -> Iterator[Pattern]:
    """All canonical ``(perm, source_col)`` pairs of degree ``n``.

    A pattern is canonical when it equals the lexicographic minimum of its
    symmetry orbit; one entry per orbit is exactly the paper's ``#Index``.
    """
    for perm in itertools.permutations(range(n)):
        for src in range(n):
            cperm, csrc, _ = canonical_pattern(perm, src)
            if (cperm, csrc) == (perm, src):
                yield perm, src


def count_canonical_patterns(n: int) -> int:
    """The ``#Index`` statistic of Table II for degree ``n``."""
    return sum(1 for _ in enumerate_canonical_patterns(n))


def generate_degree(
    n: int,
    *,
    prune_mode: str = "componentwise",
    limit: Optional[int] = None,
    stride: int = 1,
    progress=None,
) -> Dict[Pattern, PatternSolutions]:
    """Solve every canonical pattern of degree ``n``.

    With ``limit`` set only that many patterns are solved; ``stride``
    spaces the sample across the enumeration (taking the first ``limit``
    patterns would bias statistics towards near-sorted permutations,
    which have unusually simple Hanan structure).
    """
    import time as _time

    table: Dict[Pattern, PatternSolutions] = {}
    solved = 0
    t0 = _time.perf_counter()
    with span("lut.generate_degree"):
        for i, (perm, src) in enumerate(enumerate_canonical_patterns(n)):
            if stride > 1 and i % stride:
                continue
            if limit is not None and solved >= limit:
                break
            table[(perm, src)] = solve_pattern(perm, src, prune_mode=prune_mode)
            solved += 1
            if progress is not None:
                progress(i, (perm, src))
    if _obs_enabled():
        timer_observe(f"lut.gen_degree_{n}_seconds", _time.perf_counter() - t0)
    return table


def _solve_worker(job: Tuple[Tuple[int, ...], int, str]) -> Tuple[Pattern, PatternSolutions]:
    """Module-level worker for :func:`generate_degree_parallel` (picklable)."""
    perm, src, prune_mode = job
    return (perm, src), solve_pattern(perm, src, prune_mode=prune_mode)


def generate_degree_parallel(
    n: int,
    *,
    jobs: Optional[int] = None,
    prune_mode: str = "componentwise",
    limit: Optional[int] = None,
) -> Dict[Pattern, PatternSolutions]:
    """Multi-process :func:`generate_degree` (paper: 16-thread generation).

    Patterns are independent, so generation is embarrassingly parallel;
    results are deterministic and identical to the serial path. Falls back
    to serial execution when only one job is requested.

    Only the parent-side wall time is profiled (``lut.gen_degree_<n>_seconds``);
    worker-internal counters stay in the workers.
    """
    import os
    import time as _time
    from concurrent.futures import ProcessPoolExecutor

    if jobs == 1:
        return generate_degree(n, prune_mode=prune_mode, limit=limit)
    patterns: List[Pattern] = []
    for i, p in enumerate(enumerate_canonical_patterns(n)):
        if limit is not None and i >= limit:
            break
        patterns.append(p)
    workload = [(perm, src, prune_mode) for perm, src in patterns]
    t0 = _time.perf_counter()
    with span("lut.generate_degree_parallel"):
        workers = jobs or os.cpu_count() or 1
        # ~4 chunks per worker, as the standard library pool map chunks.
        chunksize = max(1, -(-len(workload) // (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_worker, workload, chunksize=chunksize))
    if _obs_enabled():
        counter_add("lut.patterns_solved", len(results))
        timer_observe(f"lut.gen_degree_{n}_seconds", _time.perf_counter() - t0)
    return dict(results)
