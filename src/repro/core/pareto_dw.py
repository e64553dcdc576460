"""Pareto-DW: the exact Pareto-frontier dynamic program (paper, Section IV-A).

Adapts Dreyfus–Wagner to bicriterion optimisation. The DP state
``S[Q][v]`` is the Pareto frontier of subtrees rooted at Hanan-grid node
``v`` spanning sink subset ``Q``, with delay measured *from v*. Transitions
follow the paper's Equation (1):

* **merge**     ``S[Q][v] ∋ S[Q1][v] ⊕ S[Q\\Q1][v]`` — join two subtrees at v,
* **extension** ``S[Q][v] ∋ S[Q][u] + ||u - v||_1`` — re-root along an edge.

Because L1 extension is a metric (two hops are dominated by the direct
hop), a single all-pairs closure round per subset suffices; no iterative
relaxation is needed.

Pruning (paper, Section V-A):

* **Lemma 2** — empty-quadrant corner nodes are excluded from the grid,
* **Lemma 3** — merge transitions are skipped at nodes outside the
  bounding box of the active sink subset (the closure from the projection
  dominates them),
* **Lemma 4** — when every sink of ``Q`` lies on the grid boundary, only
  circularly-consecutive splits are enumerated.

The frontier returned is exact regardless of which pruning flags are set;
the flags only change how much work is done (tests cross-check all
configurations).

Two exact engines share the DP; :func:`pareto_dw` picks one by degree
(:data:`_ARRAY_MIN_DEGREE`), no public caller chooses (PatLabor's
local-search sub-nets use the tuple kernels via :func:`_pareto_dw_on`).
From degree 6 up the array engine (:func:`_pareto_dw_array_impl`) batches each subset
cardinality into budget-sized NumPy passes over
:mod:`repro.core.frontier_array`. Below that the hot loops run on the
sorted-front tuple kernels of :mod:`repro.core.frontier`: every DP front is maintained sorted
(``w`` ascending, ``d`` strictly descending), merge transitions use the
O(a+b) two-pointer product of
:func:`~repro.core.frontier.cross_sorted` — fused with the split union
via :func:`~repro.core.frontier.cross_merge_sorted` so dominated product
points are never allocated — closure buckets are per-source shifted runs
merged lazily by :func:`~repro.core.frontier.merge_shifted`, and node
distances come from
one precomputed :meth:`~repro.geometry.hanan.HananGrid.distance_matrix`
per grid. ``kernels=False`` selects the original enumerate-and-sort
reference implementation — same frontiers, more work — kept for the
equivalence tests and the old-vs-new kernel benchmark
(``benchmarks/bench_pareto_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import DegreeTooLargeError
from ..geometry.hanan import GridNode, HananGrid
from ..geometry.net import Net
from ..obs import (
    counter_add,
    emit_event,
    enabled as _obs_enabled,
    events_enabled as _events_enabled,
    gauge_max,
    span,
)
from ..routing.tree import RoutingTree
from .frontier import ShiftedRun, cross_merge_sorted, cross_sorted, merge_shifted
from .pareto import Solution, clean_front, pareto_filter

#: Hard ceiling on exact enumeration; above this the caller should be using
#: PatLabor's local search. Overridable via ``max_degree=``.
DEFAULT_MAX_DEGREE = 12

#: :func:`pareto_dw` runs the array engine at this degree and above, the
#: tuple kernels below it: the array engine's fixed per-pass NumPy cost
#: only pays off once a cardinality holds enough candidates.
#: ``benchmarks/bench_pareto_kernels.py`` measures the crossover degree
#: (``kernels.crossover_degree``) on the ICCAD-15-like sweep.
_ARRAY_MIN_DEGREE = 6

#: Most merge or closure candidates one array-engine batch materializes.
#: Bounds the engine's transient working set (about 150 bytes per
#: candidate) independently of the degree; batches are cut between
#: ``(mask, node)`` segments, which are filtered independently, so the
#: budget changes no front, tie choice or shared work counter.
_CANDIDATE_BUDGET = 8192

#: Below this many candidates a batch skips the strict-dominance
#: pre-pass: its fixed per-call passes cost more than the sort it
#: shrinks. The exact filter alone produces identical fronts (the prune
#: only drops elements the filter would drop anyway).
_PRUNE_MIN = 1024


@dataclass
class DWStats:
    """Work counters for ablation and kernel benchmarks (Lemmas 2–4, kernels).

    ``closure_extensions`` counts extension candidates *considered* and is
    identical between the kernel and reference paths; the two allocation
    counters measure what each path actually materializes:
    ``merge_candidates`` is the number of merge-product solution tuples
    built (reference: ``a · b`` per transition; kernels: at most
    ``a + b - 1``) and ``closure_allocations`` the number of closure-bucket
    solutions built (reference: every shifted candidate; kernels: only
    dominance survivors). Their sum is the "candidate tuples allocated"
    headline that ``benchmarks/bench_pareto_kernels.py`` tracks.
    """

    grid_nodes: int = 0
    pruned_corner_nodes: int = 0
    merge_transitions: int = 0
    merge_skipped_lemma3: int = 0
    splits_saved_lemma4: int = 0
    closure_extensions: int = 0
    merge_candidates: int = 0
    closure_allocations: int = 0
    max_front_size: int = 0
    subsets: int = 0


# Backpointer payloads: small tagged tuples, shared structurally.
#   ("leaf", sink_node)
#   ("ext", u_node, v_node, child_payload)
#   ("merge", payload1, payload2)


def _collect_edges(payload: Any, out: Set[Tuple[GridNode, GridNode]]) -> None:
    stack = [payload]
    while stack:
        p = stack.pop()
        tag = p[0]
        if tag == "leaf":
            continue
        if tag == "ext":
            _, u, v, child = p
            if u != v:
                out.add((u, v))
            stack.append(child)
        else:  # merge
            stack.append(p[1])
            stack.append(p[2])


def _boundary_order(grid: HananGrid, nodes: Sequence[GridNode]) -> Optional[List[int]]:
    """Clockwise boundary rank of each node, or None if any is interior."""
    nx, ny = grid.nx, grid.ny
    ranks: List[int] = []
    for ix, iy in nodes:
        if iy == ny - 1:  # top edge, left -> right
            r = ix
        elif ix == nx - 1:  # right edge, top -> bottom
            r = (nx - 1) + (ny - 1 - iy)
        elif iy == 0:  # bottom edge, right -> left
            r = (nx - 1) + (ny - 1) + (nx - 1 - ix)
        elif ix == 0:  # left edge, bottom -> top
            r = 2 * (nx - 1) + (ny - 1) + iy
        else:
            return None
        ranks.append(r)
    return ranks


def _consecutive_splits(bits: List[int], order: List[int]) -> List[int]:
    """Submasks whose sinks form a circular run in boundary order.

    ``bits`` are the sink indices in ``Q``; ``order[i]`` is the boundary
    rank of sink ``i``. Returns proper, non-empty submasks (as bitmasks
    over the *global* sink indexing) that are consecutive runs; complements
    of runs are runs, so enumerating runs covers all Lemma-4 splits.
    """
    k = len(bits)
    ring = sorted(bits, key=lambda b: order[b])
    masks: Set[int] = set()
    for start in range(k):
        m = 0
        for length in range(1, k):  # proper subsets only
            m |= 1 << ring[(start + length - 1) % k]
            masks.add(m)
    return list(masks)


def _splits_for_mask(
    mask: int,
    bits: List[int],
    size: int,
    boundary_rank: Optional[List[int]],
    stats: Optional[DWStats],
) -> List[int]:
    """The split submasks every DP path enumerates for ``mask``.

    Shared by the tuple, kernel and array engines so the enumeration
    order — which decides payload survival on exact ties — is identical
    across engines. With Lemma 4 active (``boundary_rank`` given
    and covering the mask's sinks) only circularly-consecutive splits are
    kept; otherwise all proper submasks containing the lowest sink bit.
    """
    if boundary_rank is not None and all(
        boundary_rank[i] is not None for i in bits
    ):
        submasks = _consecutive_splits(bits, boundary_rank)
        # Keep only one of each complementary pair (lowest-bit rule).
        low = 1 << bits[0]
        submasks = [sm for sm in submasks if sm & low]
        if stats is not None:
            total = (1 << (size - 1)) - 1
            stats.splits_saved_lemma4 += max(0, total - len(submasks))
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
    return submasks


def pareto_dw(
    net: Net,
    *,
    lemma2: bool = True,
    lemma3: bool = True,
    lemma4: bool = True,
    with_trees: bool = True,
    max_degree: int = DEFAULT_MAX_DEGREE,
    stats: Optional[DWStats] = None,
    kernels: bool = True,
) -> List[Solution]:
    """Exact Pareto frontier of timing-driven routing trees for ``net``.

    Returns Pareto solutions ``(w, d, payload)`` sorted by ascending
    wirelength; with ``with_trees=True`` each payload is the
    :class:`RoutingTree` attaining (or weakly dominating) the objectives,
    otherwise payloads are opaque backpointers.

    The engine is picked by degree: nets of degree
    :data:`_ARRAY_MIN_DEGREE` and above run the NumPy array engine
    (every DP front in contiguous ``(w[], d[])`` arrays, one subset
    cardinality filtered in budget-sized segmented passes — see
    :mod:`repro.core.frontier_array` and ``docs/numerics.md``), smaller
    nets the sorted-front tuple kernels. Both are bit-identical —
    objectives, payload tie choices and the shared work counters; only
    the work done differs. The engine that ran is counted as
    ``dw.engine.array`` / ``dw.engine.tuple`` when observability is on.

    ``kernels=False`` runs the enumerate-and-sort reference at every
    degree instead (counted as ``dw.engine.reference``) — the returned
    frontier is identical; it exists as the oracle of the equivalence
    tests and benchmarks.

    Raises :class:`DegreeTooLargeError` when ``net.degree > max_degree``.
    """
    if not kernels:
        engine = "reference"
    elif net.degree >= _ARRAY_MIN_DEGREE:
        engine = "array"
    else:
        engine = "tuple"
    return _pareto_dw_on(
        net,
        engine,
        lemma2=lemma2,
        lemma3=lemma3,
        lemma4=lemma4,
        with_trees=with_trees,
        max_degree=max_degree,
        stats=stats,
    )


def _pareto_dw_on(
    net: Net,
    engine: str,
    *,
    lemma2: bool = True,
    lemma3: bool = True,
    lemma4: bool = True,
    with_trees: bool = True,
    max_degree: int = DEFAULT_MAX_DEGREE,
    stats: Optional[DWStats] = None,
) -> List[Solution]:
    """:func:`pareto_dw` on a given ``engine``: ``"tuple"``, ``"array"``
    or ``"reference"`` (same frontier on each), with its counters, span
    and ``dw_solve`` event."""
    n = net.degree
    if n > max_degree:
        raise DegreeTooLargeError(n, max_degree)
    # With observability on, always collect work counters so they can be
    # flushed into the global registry (callers passing their own DWStats
    # keep ownership and flush nothing).
    flush = stats is None and _obs_enabled()
    if flush:
        stats = DWStats()
    emitting = _events_enabled()
    if emitting:
        import time as _time

        t0 = _time.perf_counter()
    flags = dict(
        lemma2=lemma2,
        lemma3=lemma3,
        lemma4=lemma4,
        with_trees=with_trees,
        stats=stats,
    )
    with span("dw.solve"):
        if engine == "array":
            result = _pareto_dw_array_impl(net, **flags)
        else:
            result = _pareto_dw_impl(net, kernels=engine == "tuple", **flags)
    if flush:
        _flush_dw_stats(stats, engine)
    if emitting:
        event = {
            "net": net.name or f"net_{id(net):x}",
            "degree": n,
            "front_size": len(result),
            "wall_s": _time.perf_counter() - t0,
        }
        if stats is not None:
            event["subsets"] = stats.subsets
            event["merge_transitions"] = stats.merge_transitions
            event["max_front_size"] = stats.max_front_size
        emit_event("dw_solve", **event)
    return result


def _flush_dw_stats(stats: DWStats, engine: str) -> None:
    """Report one solve's :class:`DWStats` and engine into the registry."""
    counter_add("dw.solves")
    counter_add(f"dw.engine.{engine}")
    counter_add("dw.subsets", stats.subsets)
    counter_add("dw.merge_transitions", stats.merge_transitions)
    counter_add("dw.merge_skipped_lemma3", stats.merge_skipped_lemma3)
    counter_add("dw.splits_saved_lemma4", stats.splits_saved_lemma4)
    counter_add("dw.closure_extensions", stats.closure_extensions)
    counter_add("dw.merge_candidates", stats.merge_candidates)
    counter_add("dw.closure_allocations", stats.closure_allocations)
    counter_add("dw.pruned_corner_nodes", stats.pruned_corner_nodes)
    gauge_max("dw.max_front_size", stats.max_front_size)


def _ext_payload_to(v: GridNode) -> "Callable[[GridNode, Solution], Any]":
    """Payload builder for closure extension edges into target ``v``.

    One shared rewrap per closure bucket; the source node rides along as
    the run tag, so no per-``(u, v)`` closure objects are allocated.
    """

    def rewrap(u: GridNode, s: Solution) -> Any:
        return ("ext", u, v, s[2])

    return rewrap


def _merge_payload(p1: Any, p2: Any) -> Any:
    """Payload combiner of a DP merge transition."""
    return ("merge", p1, p2)


def _pareto_dw_impl(
    net: Net,
    *,
    lemma2: bool,
    lemma3: bool,
    lemma4: bool,
    with_trees: bool,
    stats: Optional[DWStats],
    kernels: bool = True,
    reuse_fronts: Optional[Dict[int, Dict[GridNode, List[Solution]]]] = None,
    capture: Optional[List[Dict[int, Dict[GridNode, List[Solution]]]]] = None,
) -> List[Solution]:
    """The DP body of :func:`pareto_dw` (degree already validated).

    ``reuse_fronts`` maps sink-subset masks to already-solved per-node
    fronts (from a previous solve whose :func:`dw_signature` matched);
    those masks are installed verbatim and skipped by the DP, which is
    what makes an ECO re-solve cheap. ``capture``, when given, receives
    one dict ``{mask: {node: front}}`` of the complete solved table —
    the snapshot :func:`pareto_dw_with_state` wraps into a
    :class:`DWState`. Neither hook changes any computed value: reused
    fronts are bit-identical to what the skipped computation would have
    produced (see :class:`DWState` for the exactness argument).
    """
    grid = HananGrid.of_net(net)
    pin_nodes = grid.pin_nodes()
    source_node = pin_nodes[0]
    sink_nodes = pin_nodes[1:]
    num_sinks = len(sink_nodes)
    full = (1 << num_sinks) - 1

    if lemma2:
        corner = set(grid.corner_nodes())
        nodes = [v for v in grid.nodes() if v not in corner]
    else:
        corner = set()
        nodes = list(grid.nodes())
    if stats is not None:
        stats.grid_nodes = len(nodes)
        stats.pruned_corner_nodes = len(corner)

    boundary_rank = _boundary_order(grid, sink_nodes) if lemma4 else None

    # S[mask] : dict node -> Pareto list of (w, d, payload), each list a
    # sorted front (w ascending, d strictly descending) by construction.
    S: List[Optional[Dict[GridNode, List[Solution]]]] = [None] * (full + 1)

    if kernels:
        # Sorted-front kernel path: precomputed distance matrix, lazy
        # shifted merges for closures, two-pointer products for merges.
        ny = grid.ny
        dmat = grid.distance_matrix()

        def closure(
            merged: Dict[GridNode, List[Solution]]
        ) -> Dict[GridNode, List[Solution]]:
            """One metric-closure round via the lazy shifted-merge kernel."""
            out: Dict[GridNode, List[Solution]] = {}
            sources = [
                (u, u[0] * ny + u[1], cands)
                for u, cands in merged.items()
                if cands
            ]
            for v in nodes:
                row_v = v[0] * ny + v[1]
                rewrap_v = _ext_payload_to(v)
                runs: List[ShiftedRun] = []
                for u, uid, cands in sources:
                    duv = dmat[uid][row_v]
                    if duv == 0.0 and u == v:
                        runs.append((0.0, cands, None))
                    else:
                        runs.append((duv, cands, u))
                        if stats is not None:
                            stats.closure_extensions += len(cands)
                front, allocated = merge_shifted(runs, rewrap_v)
                out[v] = front
                if stats is not None:
                    stats.closure_allocations += allocated
                    if len(front) > stats.max_front_size:
                        stats.max_front_size = len(front)
            return out

        def merge_at(v: GridNode, submasks: List[int], mask: int) -> List[Solution]:
            """Pareto front of all split merges at ``v`` (kernel path)."""
            front: List[Solution] = []
            for q1 in submasks:
                sq1 = S[q1]
                sq2 = S[mask ^ q1]
                s1 = sq1[v] if sq1 is not None else None
                s2 = sq2[v] if sq2 is not None else None
                if not s1 or not s2:
                    continue
                if stats is not None:
                    stats.merge_transitions += 1
                if front:
                    front, allocated = cross_merge_sorted(
                        front, s1, s2, _merge_payload
                    )
                else:
                    front = cross_sorted(s1, s2, _merge_payload)
                    allocated = len(front)
                if stats is not None:
                    stats.merge_candidates += allocated
            return front

    else:
        dist = grid.dist

        def closure(
            merged: Dict[GridNode, List[Solution]]
        ) -> Dict[GridNode, List[Solution]]:
            """One metric-closure round: extend every candidate to every node."""
            out: Dict[GridNode, List[Solution]] = {}
            sources = [(u, cands) for u, cands in merged.items() if cands]
            for v in nodes:
                bucket: List[Solution] = []
                for u, cands in sources:
                    duv = dist(u, v)
                    if duv == 0.0 and u == v:
                        bucket.extend(cands)
                    else:
                        for (w, d, p) in cands:
                            bucket.append((w + duv, d + duv, ("ext", u, v, p)))
                        if stats is not None:
                            stats.closure_extensions += len(cands)
                            stats.closure_allocations += len(cands)
                front = pareto_filter(bucket)
                out[v] = front
                if stats is not None and len(front) > stats.max_front_size:
                    stats.max_front_size = len(front)
            return out

        def merge_at(v: GridNode, submasks: List[int], mask: int) -> List[Solution]:
            """Pareto front of all split merges at ``v`` (reference path)."""
            bucket: List[Solution] = []
            for q1 in submasks:
                sq1 = S[q1]
                sq2 = S[mask ^ q1]
                s1 = sq1[v] if sq1 is not None else None
                s2 = sq2[v] if sq2 is not None else None
                if not s1 or not s2:
                    continue
                if stats is not None:
                    stats.merge_transitions += 1
                    stats.merge_candidates += len(s1) * len(s2)
                for w1, d1, p1 in s1:
                    for w2, d2, p2 in s2:
                        bucket.append(
                            (w1 + w2, max(d1, d2), ("merge", p1, p2))
                        )
            return pareto_filter(bucket)

    # Singletons.
    with span("dw.closure"):
        for si, s_node in enumerate(sink_nodes):
            if reuse_fronts is not None and (1 << si) in reuse_fronts:
                S[1 << si] = reuse_fronts[1 << si]
                continue
            base = {s_node: [(0.0, 0.0, ("leaf", s_node))]}
            S[1 << si] = closure(base)
            if stats is not None:
                stats.subsets += 1

    # Subsets in increasing cardinality.
    masks_by_size: List[List[int]] = [[] for _ in range(num_sinks + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, num_sinks + 1):
        for mask in masks_by_size[size]:
            if reuse_fronts is not None and mask in reuse_fronts:
                S[mask] = reuse_fronts[mask]
                continue
            bits = [i for i in range(num_sinks) if mask >> i & 1]
            # Bounding box of the active sinks, for Lemma 3.
            if lemma3:
                ixs = [sink_nodes[i][0] for i in bits]
                iys = [sink_nodes[i][1] for i in bits]
                bxlo, bxhi = min(ixs), max(ixs)
                bylo, byhi = min(iys), max(iys)

            # Which splits to enumerate.
            submasks = _splits_for_mask(mask, bits, size, boundary_rank, stats)

            merged: Dict[GridNode, List[Solution]] = {}
            with span("dw.merge"):
                for v in nodes:
                    if lemma3:
                        ix, iy = v
                        if not (bxlo <= ix <= bxhi and bylo <= iy <= byhi):
                            if stats is not None:
                                stats.merge_skipped_lemma3 += 1
                            continue
                    front = merge_at(v, submasks, mask)
                    if front:
                        merged[v] = front
            with span("dw.closure"):
                S[mask] = closure(merged)
            if stats is not None:
                stats.subsets += 1
            # Free sub-frontiers no longer needed? (All smaller masks may
            # still be needed by other supersets; keep everything — memory
            # is bounded by 2^(n-1) * |nodes| * |S|, fine for n <= 12.)

    result = S[full][source_node] if S[full] is not None else []
    if capture is not None:
        capture.append(
            {mask: fronts for mask, fronts in enumerate(S) if fronts is not None}
        )
    if not with_trees:
        return clean_front(result)

    final: List[Solution] = []
    with span("dw.reconstruct"):
        for w, d, payload in result:
            tree = reconstruct_tree(net, grid, payload)
            tw, td = tree.objective()
            # The DP value may correspond to an edge multiset; the realised
            # tree can only be equal or better in both objectives.
            final.append((min(w, tw), min(d, td), tree))
    return clean_front(final)


def _pareto_dw_array_impl(
    net: Net,
    *,
    lemma2: bool,
    lemma3: bool,
    lemma4: bool,
    with_trees: bool,
    stats: Optional[DWStats],
) -> List[Solution]:
    """The array-native DP engine :func:`pareto_dw` runs from degree 6 up.

    Same DP, same transitions, same frontiers as :func:`_pareto_dw_impl` —
    but every front lives in contiguous NumPy arrays and the work of one
    subset cardinality is batched into a few vectorized passes, each
    holding at most :data:`_CANDIDATE_BUDGET` candidates:

    * **merge phase** — the ``(mask, split, node)`` cross products of one
      cardinality are enumerated with :func:`~repro.core.frontier_array.\
ragged_product_indices` and filtered by segmented exact sweeps, one
      segment per ``(mask, node)`` bucket;
    * **closure phase** — every merged front is extended to every grid
      node via broadcasts against the distance matrix and filtered the
      same way, reusing source elements for identity extensions exactly
      like the tuple kernels reuse tuples.

    Backpointers are struct-of-arrays (kind/arg columns) instead of
    nested tuples; payload tuples are materialized only for the final
    frontier, which makes the result — objectives, payload structure and
    tie choices included — bit-identical to the reference path (see
    ``docs/numerics.md`` for why each step preserves IEEE semantics).
    Its allocation counters differ: ``merge_candidates`` counts every
    product pair (``a · b`` per transition, like the reference).
    """
    import numpy as np

    from .frontier_array import (
        ragged_product_indices,
        segment_strict_prune,
        segmented_pareto_filter,
    )

    budget = _CANDIDATE_BUDGET
    grid = HananGrid.of_net(net)
    pin_nodes = grid.pin_nodes()
    source_node = pin_nodes[0]
    sink_nodes = pin_nodes[1:]
    num_sinks = len(sink_nodes)
    full = (1 << num_sinks) - 1

    if lemma2:
        corner = set(grid.corner_nodes())
        nodes = [v for v in grid.nodes() if v not in corner]
    else:
        corner = set()
        nodes = list(grid.nodes())
    if stats is not None:
        stats.grid_nodes = len(nodes)
        stats.pruned_corner_nodes = len(corner)

    boundary_rank = _boundary_order(grid, sink_nodes) if lemma4 else None

    num_nodes = len(nodes)
    ny = grid.ny
    node_index = {v: vi for vi, v in enumerate(nodes)}
    node_flat = np.array([ix * ny + iy for ix, iy in nodes], dtype=np.int64)
    node_ix = np.array([ix for ix, _ in nodes], dtype=np.int64)
    node_iy = np.array([iy for _, iy in nodes], dtype=np.int64)
    # Node-indexed distance matrix, gathered from the same float values
    # grid.dist() produces (bit-identical by the distance_matrix contract).
    dmat = np.asarray(grid.distance_matrix(), dtype=np.float64)[
        np.ix_(node_flat, node_flat)
    ]

    # --- element store: struct-of-arrays backpointers, appended per batch.
    # kind 0 = leaf(sink node index), 1 = ext(child, u * num_nodes + v),
    # kind 2 = merge(left, right). Objectives live only in the slots.
    kind_chunks: List[Any] = []
    ea_chunks: List[Any] = []
    eb_chunks: List[Any] = []
    num_elems = 0

    def _append_elems(kind: int, ea: Any, eb: Any) -> int:
        """Append one batch of elements; returns the batch's base id."""
        nonlocal num_elems
        base = num_elems
        kind_chunks.append(np.full(ea.shape[0], kind, dtype=np.int8))
        ea_chunks.append(ea)
        eb_chunks.append(eb)
        num_elems += ea.shape[0]
        return base

    # --- front store: FE maps front slots to element ids; SW/SD hold
    # each slot's (w, d) objectives in contiguous float columns so the
    # merge phase reads them with plain float gathers (an identity
    # closure adds a bitwise 0.0, so a reused element's objectives are
    # its slot's). PTR/CNT give each (mask, node) front's slot range;
    # uncomputed masks read as empty.
    fe_chunks: List[Any] = []
    sw_chunks: List[Any] = []
    sd_chunks: List[Any] = []
    num_slots = 0
    PTR = np.zeros((full + 1, num_nodes), dtype=np.int64)
    CNT = np.zeros((full + 1, num_nodes), dtype=np.int64)

    def _append_slots(fe: Any, sw: Any, sd: Any) -> int:
        nonlocal num_slots
        base = num_slots
        fe_chunks.append(fe)
        sw_chunks.append(sw)
        sd_chunks.append(sd)
        num_slots += fe.shape[0]
        return base

    def _consolidated(chunks: List[Any]) -> Any:
        """One array of all ``chunks``; it replaces them, so no copy stays."""
        if len(chunks) > 1:
            chunks[:] = [np.concatenate(chunks)]
        return chunks[0]

    def _slots() -> Tuple[Any, Any, Any]:
        """Consolidated FE, SW, SD columns."""
        return (
            _consolidated(fe_chunks),
            _consolidated(sw_chunks),
            _consolidated(sd_chunks),
        )

    def _closure_batch(
        masks: Any,
        src_ptr: Any,
        src_eids: Any,
        src_vis: Any,
        src_w: Any,
        src_d: Any,
        c0: int,
        c1: int,
    ) -> None:
        """Extend the source fronts of ``masks`` to nodes ``c0:c1``, filter.

        ``src_*`` hold the merged fronts of all ``masks`` back to back
        (block ``m`` delimited by ``src_ptr``), each block ordered by
        source node then front position — the reference's closure bucket
        order. Writes the resulting fronts of target columns ``c0:c1``
        into PTR/CNT/FE and appends extension elements for the
        non-identity survivors.
        """
        n_masks = masks.shape[0]
        e_arr = np.diff(src_ptr)
        n_src = src_vis.shape[0]
        ncols = c1 - c0
        # Candidate matrices, element-major: row e = source element,
        # column v = target node, value = source objectives +
        # dmat[u_e, v] — both objectives grow by the same wirelength
        # offset, so two broadcast adds against the shared distance rows
        # build every candidate with no index expansion at all. The
        # segment of cell (e, v) is (mask_of_e, v); within a segment the
        # flattened row-major order is ascending e — the reference
        # bucket order.
        drows = dmat[src_vis, c0:c1]
        c_w = src_w[:, None] + drows
        c_d = src_d[:, None] + drows
        nz = e_arr > 0
        mask_of_e = np.repeat(np.arange(n_masks, dtype=np.int64), e_arr)
        if n_src * ncols >= _PRUNE_MIN:
            # Strict-dominance pre-pass, per segment (m, v) = the mask's
            # rows of one column: the same two real witnesses as
            # segment_strict_prune, computed with axis-0 reduceats over
            # contiguous row blocks (empty blocks skipped via ``nz``).
            cblock = np.repeat(
                np.arange(int(nz.sum()), dtype=np.int64), e_arr[nz]
            )
            bstarts = src_ptr[:-1][nz]
            inf = np.float64("inf")
            min_d = np.minimum.reduceat(c_d, bstarts, axis=0)[cblock]
            min_w = np.minimum.reduceat(c_w, bstarts, axis=0)[cblock]
            w_at = np.minimum.reduceat(
                np.where(c_d == min_d, c_w, inf), bstarts, axis=0
            )[cblock]
            d_at = np.minimum.reduceat(
                np.where(c_w == min_w, c_d, inf), bstarts, axis=0
            )[cblock]
            dom = (w_at < c_w) | ((w_at == c_w) & (min_d < c_d))
            dom |= (d_at < c_d) | ((d_at == c_d) & (min_w < c_w))
            sel = np.flatnonzero(~dom)
            w_c = c_w.ravel().take(sel)
            d_c = c_d.ravel().take(sel)
            e_c = sel // ncols
            v_c = sel - e_c * ncols
        else:
            w_c = c_w.ravel()
            d_c = c_d.ravel()
            e_c = np.repeat(np.arange(n_src, dtype=np.int64), ncols)
            v_c = np.tile(np.arange(ncols, dtype=np.int64), n_src)
        seg_c = mask_of_e.take(e_c) * ncols + v_c
        sidx = segmented_pareto_filter(seg_c, w_c, d_c)
        s_seg = seg_c.take(sidx)
        s_w = w_c.take(sidx)
        s_d = d_c.take(sidx)
        e_full = e_c.take(sidx)
        s_child = src_eids.take(e_full)
        s_u = src_vis.take(e_full)
        s_v = v_c.take(sidx) + c0
        is_id = s_u == s_v
        new = ~is_id
        n_new = int(new.sum())
        elem_base = _append_elems(
            1, s_child[new], s_u[new] * num_nodes + s_v[new]
        )
        new_ids = elem_base + np.cumsum(new) - 1
        fe_vals = np.where(is_id, s_child, new_ids)
        slot_base = _append_slots(fe_vals, s_w, s_d)
        counts = np.bincount(s_seg, minlength=n_masks * ncols).reshape(
            n_masks, ncols
        )
        starts = slot_base + np.concatenate(
            ([0], np.cumsum(counts.ravel())[:-1])
        ).reshape(n_masks, ncols)
        PTR[masks, c0:c1] = starts
        CNT[masks, c0:c1] = counts
        if stats is not None:
            stats.closure_allocations += n_new
            top = int(counts.max()) if counts.size else 0
            if top > stats.max_front_size:
                stats.max_front_size = top

    def _closure(
        masks: List[int],
        src_ptr: Any,
        src_eids: Any,
        src_vis: Any,
        src_w: Any,
        src_d: Any,
    ) -> None:
        """Close every source front of every mask over all nodes.

        Cuts the ``len(src) * num_nodes`` candidates into batches of at
        most ``budget``: consecutive masks are grouped while their rows
        fit, and a mask whose rows alone exceed the budget is split by
        target-node columns. Every ``(mask, node)`` segment sees all of
        its candidates in one batch, in reference order.
        """
        e_list = np.diff(src_ptr).tolist()
        n_src = src_vis.shape[0]
        if stats is not None:
            stats.closure_extensions += n_src * (num_nodes - 1)
        masks_arr = np.array(masks, dtype=np.int64)
        m0 = 0
        while m0 < len(masks):
            rows = e_list[m0]
            m1 = m0 + 1
            while m1 < len(masks) and (rows + e_list[m1]) * num_nodes <= budget:
                rows += e_list[m1]
                m1 += 1
            if rows:
                r0, r1 = int(src_ptr[m0]), int(src_ptr[m1])
                cols = max(1, min(num_nodes, budget // rows))
                for c0 in range(0, num_nodes, cols):
                    _closure_batch(
                        masks_arr[m0:m1],
                        src_ptr[m0 : m1 + 1] - r0,
                        src_eids[r0:r1],
                        src_vis[r0:r1],
                        src_w[r0:r1],
                        src_d[r0:r1],
                        c0,
                        min(c0 + cols, num_nodes),
                    )
            m0 = m1

    def _merge_rows(
        r0: int, r1: int, s0: int, s1: int, rows: Tuple[Any, ...]
    ) -> Tuple[Any, Any, Any, Any, Any]:
        """Merge products of rows ``r0:r1`` = segments ``s0:s1``, filtered.

        Returns ``(seg_counts, src_eids, src_vis, src_w, src_d)`` of the
        survivors, grouped by segment in segment order, and appends one
        merge element per survivor.
        """
        c1, c2, st1, st2, cnts, segrow, v_all = (
            col[r0:r1] for col in rows
        )
        n_seg = s1 - s0
        fe, sw, sd = _slots()
        _, i_a, i_b = ragged_product_indices(c1, c2, st1, st2, rows=False)
        # Merged pair: w adds, d maxes (in place over the fresh gathers).
        mw = sw.take(i_a)
        np.add(mw, sw.take(i_b), out=mw)
        md = sd.take(i_a)
        np.maximum(md, sd.take(i_b), out=md)
        n_cand = mw.shape[0]
        if stats is not None:
            stats.merge_candidates += n_cand
        # Rows are mask-major, node-major, split-minor, so segment ids
        # are non-decreasing along the candidate axis: per-segment sizes
        # aggregate per-row product counts, and survivors recover their
        # segment / row ids by binary search instead of a full-length
        # expansion (exact: counts stay far below 2**53).
        local = segrow - s0
        if n_cand >= _PRUNE_MIN:
            sizes = np.bincount(local, weights=cnts, minlength=n_seg).astype(
                np.int64
            )
            seg_cum = np.cumsum(sizes)
            starts = np.concatenate(([0], seg_cum[:-1]))
            keep0 = segment_strict_prune(starts, sizes, mw, md)
            sel = np.nonzero(keep0)[0]
            w_c = mw.take(sel)
            d_c = md.take(sel)
            seg_c = np.searchsorted(seg_cum, sel, side="right")
        else:
            sel = None
            w_c = mw
            d_c = md
            seg_c = np.repeat(local, cnts)
        sidx = segmented_pareto_filter(seg_c, w_c, d_c)
        picked = sel.take(sidx) if sel is not None else sidx
        s_w = w_c.take(sidx)
        s_d = d_c.take(sidx)
        elem_base = _append_elems(2, fe[i_a[picked]], fe[i_b[picked]])
        src_eids = elem_base + np.arange(sidx.shape[0], dtype=np.int64)
        seg_counts = np.bincount(seg_c.take(sidx), minlength=n_seg)
        row_of = np.searchsorted(np.cumsum(cnts), picked, side="right")
        return seg_counts, src_eids, v_all[row_of], s_w, s_d

    def _merge_group(
        group: List[Tuple[int, List[int], Any]],
    ) -> List[Tuple[Any, Any, Any, Any, Any]]:
        """Merge the rows of ``group``, in batches of at most ``budget`` products.

        ``group`` holds ``(mask, submasks, bbox_node_indices)`` entries
        whose rows fit the budget. Returns the ``_merge_rows`` outputs of
        every batch, in segment order.
        """
        # Row grid construction, vectorized across the group: one row per
        # (mask, bbox node, split), node-major within each mask so the
        # products of one (mask, node) bucket land contiguously in split
        # order — the reference enumeration order.
        ns_arr = np.array([len(sm) for _, sm, _ in group], dtype=np.int64)
        nb_arr = np.array([bb.shape[0] for _, _, bb in group], dtype=np.int64)
        rows_per_mask = ns_arr * nb_arr
        total_rows = int(rows_per_mask.sum())
        seg_base = int(nb_arr.sum())
        sub_all = np.array([q for _, sm, _ in group for q in sm], dtype=np.int64)
        bb_all = np.concatenate([bb for _, _, bb in group])
        sub_starts = np.concatenate(([0], np.cumsum(ns_arr)[:-1]))
        row_starts = np.concatenate(([0], np.cumsum(rows_per_mask)[:-1]))
        bb_starts = np.concatenate(([0], np.cumsum(nb_arr)[:-1]))
        mask_of_row = np.repeat(np.arange(len(group), dtype=np.int64), rows_per_mask)
        pos = np.arange(total_rows, dtype=np.int64) - row_starts[mask_of_row]
        ns_rep = ns_arr[mask_of_row]
        q1_all = sub_all[sub_starts[mask_of_row] + pos % ns_rep]
        mask_vals = np.array([mask for mask, _, _ in group], dtype=np.int64)
        q2_all = mask_vals[mask_of_row] ^ q1_all
        segrow = bb_starts[mask_of_row] + pos // ns_rep
        v_all = bb_all[segrow]
        c1 = CNT[q1_all, v_all]
        c2 = CNT[q2_all, v_all]
        if stats is not None:
            stats.merge_transitions += int(((c1 > 0) & (c2 > 0)).sum())
        cnts = c1 * c2
        rows = (c1, c2, PTR[q1_all, v_all], PTR[q2_all, v_all], cnts, segrow, v_all)
        # Greedy batch cuts on segment boundaries: each batch takes the
        # longest run of segments whose products fit the budget.
        seg_cum = np.cumsum(
            np.bincount(segrow, weights=cnts, minlength=seg_base).astype(np.int64)
        )
        seg_row = np.searchsorted(segrow, np.arange(seg_base + 1)).tolist()
        pieces: List[Tuple[Any, Any, Any, Any, Any]] = []
        s0 = 0
        while s0 < seg_base:
            done = int(seg_cum[s0 - 1]) if s0 else 0
            s1 = int(np.searchsorted(seg_cum, done + budget, side="right"))
            s1 = max(s1, s0 + 1)
            pieces.append(_merge_rows(seg_row[s0], seg_row[s1], s0, s1, rows))
            s0 = s1
        return pieces

    def _merge(
        mask_rows: List[Tuple[int, List[int], Any]],
    ) -> Tuple[Any, Any, Any, Any, Any]:
        """All split merges of one cardinality, in budget-sized batches.

        ``mask_rows`` holds ``(mask, submasks, bbox_node_indices)`` per
        mask. Returns the merged fronts as closure inputs:
        ``(src_ptr, src_eids, src_vis, src_w, src_d)`` with one block
        per mask (in ``mask_rows`` order), each ordered by node then
        front position. Consecutive masks are grouped while their rows
        fit the budget; a mask with more rows is split between its bbox
        nodes. Every ``(mask, node)`` segment is merged and filtered in
        one batch.
        """
        pieces: List[Tuple[Any, Any, Any, Any, Any]] = []
        group: List[Tuple[int, List[int], Any]] = []
        group_rows = 0
        for mask, submasks, bb in mask_rows:
            step = max(1, budget // len(submasks))
            for b0 in range(0, bb.shape[0], step):
                part = bb[b0 : b0 + step]
                rows = len(submasks) * part.shape[0]
                if group and group_rows + rows > budget:
                    pieces.extend(_merge_group(group))
                    group, group_rows = [], 0
                group.append((mask, submasks, part))
                group_rows += rows
        if group:
            pieces.extend(_merge_group(group))
        empty_i = np.empty(0, dtype=np.int64)
        if not pieces:
            return (
                np.zeros(len(mask_rows) + 1, dtype=np.int64),
                empty_i,
                empty_i,
                np.empty(0),
                np.empty(0),
            )
        seg_counts, src_eids, src_vis, src_w, src_d = (
            np.concatenate(col) for col in zip(*pieces)
        )
        cum = np.concatenate(([0], np.cumsum(seg_counts)))
        bb_ends = np.cumsum([bb.shape[0] for _, _, bb in mask_rows])
        src_ptr = np.concatenate(([0], cum[bb_ends]))
        return src_ptr, src_eids, src_vis, src_w, src_d

    # --- singletons: one leaf element per sink, closed over all nodes.
    with span("dw.closure"):
        leaf_vis = np.array(
            [node_index[s_node] for s_node in sink_nodes], dtype=np.int64
        )
        leaf_base = _append_elems(
            0, leaf_vis, np.zeros(num_sinks, dtype=np.int64)
        )
        _closure(
            [1 << si for si in range(num_sinks)],
            np.arange(num_sinks + 1, dtype=np.int64),
            leaf_base + np.arange(num_sinks, dtype=np.int64),
            leaf_vis,
            np.zeros(num_sinks, dtype=np.float64),
            np.zeros(num_sinks, dtype=np.float64),
        )
        if stats is not None:
            stats.subsets += num_sinks

    # --- larger subsets, one batched merge + closure pass per cardinality.
    masks_by_size: List[List[int]] = [[] for _ in range(num_sinks + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)

    all_vi = np.arange(num_nodes, dtype=np.int64)
    bbox_cache: Dict[Tuple[int, int, int, int], Any] = {}
    for size in range(2, num_sinks + 1):
        mask_rows: List[Tuple[int, List[int], Any]] = []
        for mask in masks_by_size[size]:
            bits = [i for i in range(num_sinks) if mask >> i & 1]
            if lemma3:
                ixs = [sink_nodes[i][0] for i in bits]
                iys = [sink_nodes[i][1] for i in bits]
                key = (min(ixs), max(ixs), min(iys), max(iys))
                bb = bbox_cache.get(key)
                if bb is None:
                    bxlo, bxhi, bylo, byhi = key
                    bb = np.nonzero(
                        (node_ix >= bxlo)
                        & (node_ix <= bxhi)
                        & (node_iy >= bylo)
                        & (node_iy <= byhi)
                    )[0]
                    bbox_cache[key] = bb
                if stats is not None:
                    stats.merge_skipped_lemma3 += num_nodes - bb.shape[0]
            else:
                bb = all_vi
            submasks = _splits_for_mask(mask, bits, size, boundary_rank, stats)
            mask_rows.append((mask, submasks, bb))
        with span("dw.merge"):
            merged = _merge(mask_rows)
        with span("dw.closure"):
            _closure([m for m, _, _ in mask_rows], *merged)
        if stats is not None:
            stats.subsets += len(mask_rows)

    # --- materialize the final frontier's payload tuples (tiny: one walk
    # per surviving solution) so downstream consumers see the exact same
    # backpointer structure as the reference path.
    src_vi = node_index[source_node]
    cnt = int(CNT[full, src_vi])
    ptr = int(PTR[full, src_vi])
    if not cnt:
        return []
    fe, sw, sd = _slots()
    ekind, ea, eb = (
        _consolidated(col) for col in (kind_chunks, ea_chunks, eb_chunks)
    )
    memo: Dict[int, Any] = {}

    def _payload_of(eid: int) -> Any:
        stack = [eid]
        while stack:
            e = stack[-1]
            if e in memo:
                stack.pop()
                continue
            k = int(ekind[e])
            if k == 0:
                memo[e] = ("leaf", nodes[int(ea[e])])
                stack.pop()
            elif k == 1:
                child = int(ea[e])
                if child in memo:
                    u, v = divmod(int(eb[e]), num_nodes)
                    memo[e] = ("ext", nodes[u], nodes[v], memo[child])
                    stack.pop()
                else:
                    stack.append(child)
            else:
                left = int(ea[e])
                right = int(eb[e])
                if left in memo and right in memo:
                    memo[e] = ("merge", memo[left], memo[right])
                    stack.pop()
                else:
                    if left not in memo:
                        stack.append(left)
                    if right not in memo:
                        stack.append(right)
        return memo[eid]

    result = [
        (w, d, _payload_of(e))
        for w, d, e in zip(
            sw[ptr : ptr + cnt].tolist(),
            sd[ptr : ptr + cnt].tolist(),
            fe[ptr : ptr + cnt].tolist(),
        )
    ]
    if not with_trees:
        return clean_front(result)

    final: List[Solution] = []
    with span("dw.reconstruct"):
        for w, d, payload in result:
            tree = reconstruct_tree(net, grid, payload)
            tw, td = tree.objective()
            final.append((min(w, tw), min(d, td), tree))
    return clean_front(final)


def reconstruct_tree(net: Net, grid: HananGrid, payload: Any) -> RoutingTree:
    """Turn a DP backpointer into a concrete :class:`RoutingTree`."""
    node_edges: Set[Tuple[GridNode, GridNode]] = set()
    _collect_edges(payload, node_edges)
    pt = grid.point
    edges = [(pt(a), pt(b)) for a, b in node_edges]
    # The source may coincide with the subtree root without explicit edges
    # (e.g. degree-2 nets): make sure it is a node. Sorted, because set
    # iteration order varies run to run and the extra points decide the
    # tree's node indexing — ledger diffs and cached-tree equality tests
    # need reconstruction to be reproducible.
    referenced = {p for e in edges for p in e}
    extra = sorted(referenced)
    if not edges:
        # Single sink collapsed onto the source path: direct connection.
        edges = [(net.source, s) for s in net.sinks]
    return RoutingTree.from_edges(net, edges, extra_points=extra)


def pareto_frontier(net: Net, **kwargs: Any) -> List[Tuple[float, float]]:
    """Bare ``(w, d)`` frontier of ``net`` (convenience wrapper)."""
    return [(w, d) for w, d, _ in pareto_dw(net, with_trees=False, **kwargs)]


# ------------------------------------------------------ solver-state reuse
#
# The ECO path (repro.incremental). S[Q][v] depends only on: the grid's
# coordinate lines, the Lemma-2 surviving node set, the distance matrix
# (a function of the coordinate lines), the global Lemma-4 boundary flag,
# and the sink subset Q with its bit indexing — never on the source, which
# enters only at the final S[full][source_node] readout. Two solves that
# agree on all of those therefore produce bit-identical fronts for every
# shared subset, payload tie choices included, because the split
# enumeration order of _splits_for_mask is a pure function of the same
# inputs. That is the invariant DWState snapshots and pareto_dw_with_state
# re-validates before reusing anything.


#: A solved DP table: ``{mask: {node: sorted front}}`` with backpointer
#: payloads (never materialized trees).
DWFronts = Dict[int, Dict[GridNode, List[Solution]]]


def dw_signature(net: Net) -> Tuple[Any, ...]:
    """The grid identity two solves must share for DP-state reuse.

    Captures everything ``S[Q][v]`` depends on besides the sink subsets
    themselves: the Hanan coordinate lines (hence the distance matrix),
    the Lemma-2 surviving node set (corner pruning depends on the whole
    pin set), and whether Lemma 4 is globally active (``_boundary_order``
    is all-or-nothing, and it decides split enumeration — which decides
    payload survival on exact objective ties). Computed with the default
    pruning flags, matching what :func:`pareto_dw` runs with.
    """
    grid = HananGrid.of_net(net)
    sink_nodes = grid.pin_nodes()[1:]
    corner = set(grid.corner_nodes())
    nodes = tuple(v for v in grid.nodes() if v not in corner)
    boundary = _boundary_order(grid, sink_nodes) is not None
    return (tuple(grid.xs), tuple(grid.ys), nodes, boundary)


@dataclass
class DWState:
    """Retained Dreyfus–Wagner solver state of one :func:`pareto_dw` solve.

    ``fronts`` holds the complete solved table — every sink-subset mask's
    per-node sorted Pareto front, payloads as backpointers. A later solve
    whose :func:`dw_signature` equals ``signature`` may install any mask
    whose sinks are positionally unchanged (same index, same coordinates)
    and skip its computation; the skipped work would have reproduced the
    stored fronts bit-for-bit (see the module comment above for why).

    Fronts are stored as tuple-kernel fronts (state capture and reuse
    run on the tuple kernels only); nothing here is ever mutated after
    capture.
    """

    signature: Tuple[Any, ...]
    sink_keys: Tuple[Tuple[float, float], ...]
    fronts: DWFronts

    @property
    def num_masks(self) -> int:
        """How many sink-subset masks the snapshot holds."""
        return len(self.fronts)


@dataclass
class DWReuse:
    """Accounting of one state-reusing solve (what survived the edit)."""

    reused_masks: int = 0
    computed_masks: int = 0

    @property
    def total_masks(self) -> int:
        """All sink-subset masks of the solve (reused + recomputed)."""
        return self.reused_masks + self.computed_masks

    @property
    def reuse_rate(self) -> float:
        """Fraction of subset fronts served from the snapshot (0.0 cold)."""
        total = self.total_masks
        return self.reused_masks / total if total else 0.0


def _reusable_fronts(state: DWState, net: Net) -> Optional[DWFronts]:
    """The subset of ``state.fronts`` valid for ``net``, or None.

    Requires the grid signatures to match exactly, then keeps every mask
    whose sink bits are *positionally unchanged* — sink ``i`` of the new
    net sits at the same coordinates as sink ``i`` of the snapshot's net.
    Index-preserving edits (one sink moved in place, a sink appended or
    dropped from the end, the source moved) keep every untouched subset;
    edits that renumber sinks invalidate everything, because the bit
    indexing feeds the split enumeration order.
    """
    if state.signature != dw_signature(net):
        return None
    old_sinks = state.sink_keys
    new_sinks = tuple((p.x, p.y) for p in net.sinks)
    clean = 0
    for i in range(min(len(old_sinks), len(new_sinks))):
        if old_sinks[i] == new_sinks[i]:
            clean |= 1 << i
    reuse = {
        mask: fronts
        for mask, fronts in state.fronts.items()
        if mask and mask & ~clean == 0
    }
    return reuse or None


def pareto_dw_with_state(
    net: Net,
    *,
    state: Optional[DWState] = None,
    with_trees: bool = True,
    max_degree: int = DEFAULT_MAX_DEGREE,
    stats: Optional[DWStats] = None,
) -> Tuple[List[Solution], DWState, DWReuse]:
    """:func:`pareto_dw` with solver-state snapshot and reuse.

    Solves ``net`` exactly like ``pareto_dw(net)`` — default pruning
    flags, sorted-front kernels — but additionally returns a
    :class:`DWState` snapshot of the full DP table and, when ``state``
    from a previous solve is supplied, installs every still-valid subset
    front instead of recomputing it. The returned frontier is
    **bit-identical** to a cold ``pareto_dw(net)`` whichever engine that
    dispatches to (the engines are themselves bit-identical by the
    ``docs/numerics.md`` contract); only the work done differs. Reuse accounting comes back as a :class:`DWReuse`.

    Raises :class:`~repro.exceptions.DegreeTooLargeError` when
    ``net.degree > max_degree`` (same contract as :func:`pareto_dw`).
    """
    n = net.degree
    if n > max_degree:
        raise DegreeTooLargeError(n, max_degree)
    flush = stats is None and _obs_enabled()
    if flush:
        stats = DWStats()
    reuse_fronts = _reusable_fronts(state, net) if state is not None else None
    capture: List[DWFronts] = []
    with span("dw.solve"):
        result = _pareto_dw_impl(
            net,
            lemma2=True,
            lemma3=True,
            lemma4=True,
            with_trees=with_trees,
            stats=stats,
            kernels=True,
            reuse_fronts=reuse_fronts,
            capture=capture,
        )
    if flush:
        assert stats is not None
        _flush_dw_stats(stats, "tuple")
    fronts = capture[0]
    new_state = DWState(
        signature=dw_signature(net),
        sink_keys=tuple((p.x, p.y) for p in net.sinks),
        fronts=fronts,
    )
    reused = len(reuse_fronts) if reuse_fronts else 0
    reuse = DWReuse(
        reused_masks=reused, computed_masks=len(fronts) - reused
    )
    return result, new_state, reuse
