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
configurations). Beyond the paper, :func:`pareto_dw` also bounds the
array engine by two heuristic incumbent trees (:func:`_incumbent_bound`),
dropping labels no full tree can carry onto the front — again without
changing the frontier.

Two exact engines share the DP; :func:`pareto_dw` picks one by degree
(:data:`_ARRAY_MIN_DEGREE`), no public caller chooses.
From degree 6 up the array engine (:func:`_pareto_dw_array_impl`) batches each subset
cardinality into budget-sized NumPy passes over
:mod:`repro.core.frontier_array`. Below that the tuple DP
(:func:`_pareto_dw_impl`) keeps every front as a list of ``(w, d,
payload)`` tuples: each merge and closure bucket is enumerated in full
and reduced by the :func:`~repro.core.pareto.pareto_filter` sort and
sweep, with payloads built for the survivors only. At those degrees the
buckets are small enough that enumerate-and-sort beats the array
engine's fixed per-pass cost, and also beats streaming two-pointer
merges (``docs/performance.md``, "Removed: the sorted-front
tuple kernels"). ``kernels=False`` runs the tuple DP at every degree —
the oracle of the equivalence tests and benchmarks. Both engines close
the full sink set at the source node only, the one node it is read at.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional
from typing import Sequence, Set, Tuple

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
from .pareto import Solution, clean_front

#: Hard ceiling on exact enumeration; above this the caller should be using
#: PatLabor's local search. Overridable via ``max_degree=``.
DEFAULT_MAX_DEGREE = 12

#: :func:`pareto_dw` runs the array engine at this degree and above, the
#: tuple DP below it: the array engine's fixed per-pass NumPy cost
#: only pays off once a cardinality holds enough candidates.
#: ``benchmarks/bench_pareto_kernels.py`` measures the crossover degree
#: (``kernels.crossover_degree``) on the ICCAD-15-like sweep.
_ARRAY_MIN_DEGREE = 6

#: Most merge or closure candidates one array-engine batch materializes.
#: Bounds the engine's transient working set (about 150 bytes per
#: candidate) independently of the degree; batches are cut between
#: ``(mask, node)`` segments, which are filtered independently, so the
#: budget changes no front, tie choice or shared work counter. It also
#: bounds the cells of each live-row cube chunk (:func:`_live_merge_rows`),
#: hence the merge rows one chunk materializes.
_CANDIDATE_BUDGET = 8192

#: Below this many candidates a batch skips the strict-dominance
#: pre-pass: its fixed per-call passes cost more than the sort it
#: shrinks. The exact filter alone produces identical fronts (the prune
#: only drops elements the filter would drop anyway).
_PRUNE_MIN = 1024

#: :func:`pareto_dw` bounds array-engine solves from this degree up. At
#: degree 6 the incumbent trees (~0.2–0.3 ms) and bound tables cost more
#: than the pruning saves (``docs/performance.md``, "Bounded DW").
_BOUND_MIN_DEGREE = 7

#: Relative margin of the incumbent bound: a label is dropped only when
#: an incumbent beats its lower bound by more than this factor in both
#: objectives. Accumulated rounding of the sums involved is ~1e-14
#: relative, so the margin keeps every drop a strict dominance
#: (``docs/numerics.md`` §9).
_BOUND_MARGIN = 1e-9


@dataclass
class DWStats:
    """Work counters for ablation and kernel benchmarks (Lemmas 2–4, engines).

    ``closure_extensions`` counts extension candidates *considered* (one
    per candidate and closed node other than its own; the full sink set
    is closed at the source only) and is
    identical between the two engines; the two allocation counters
    measure what each engine actually materializes: ``merge_candidates``
    is the number of merge-product candidates built (tuple DP: ``a · b``
    per transition; array engine: the products of the rows the
    incumbent bound keeps) and ``closure_allocations`` the number of
    closure-bucket candidates built (tuple DP: every shifted candidate;
    array engine: the extension survivors it stores). Their sum is the
    "candidate tuples allocated" figure that
    ``benchmarks/bench_pareto_kernels.py`` reports.

    ``bound_pruned`` counts what the incumbent bound of a bounded
    array-engine solve dropped: merge rows, closure sources and closure
    candidates (always 0 unbounded).
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
    bound_pruned: int = 0


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

    Shared by the tuple and array engines so the enumeration
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


def _split_table(
    num_sinks: int, size: int, boundary_rank: Optional[List[int]] = None
) -> Tuple[Any, Any]:
    """``(masks, sub)``: the ``size``-sink masks, ascending, and their splits.

    Row ``i`` of ``sub`` holds the :func:`_splits_for_mask` splits of
    ``masks[i]``, in order, padded with submask 0 (its fronts are always
    empty). Read-only; :func:`_shared_split_table` caches the tables
    without ``boundary_rank``, which depend on ``(num_sinks, size)`` only.
    """
    import numpy as np

    masks = [m for m in range(1 << num_sinks) if bin(m).count("1") == size]
    rows = [
        _splits_for_mask(
            m, [i for i in range(num_sinks) if m >> i & 1], size, boundary_rank, None
        )
        for m in masks
    ]
    sub = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for i, row in enumerate(rows):
        sub[i, : len(row)] = row
    table = np.array(masks, dtype=np.int64), sub
    for arr in table:
        arr.setflags(write=False)
    return table


#: One entry per ``(num_sinks, size)``, so the degree ceiling bounds it.
_shared_split_table = functools.lru_cache(maxsize=None)(_split_table)


@functools.lru_cache(maxsize=None)
def _sink_membership(num_sinks: int) -> Any:
    """Read-only ``(2**num_sinks, num_sinks)`` bools: is sink ``i`` in mask ``m``."""
    import numpy as np

    member = (np.arange(1 << num_sinks)[:, None] >> np.arange(num_sinks) & 1) == 1
    member.setflags(write=False)
    return member


def _mask_box(member: Any, xs: Any, ys: Any) -> Tuple[Any, ...]:
    """``(lo_x, hi_x, lo_y, hi_y)`` columns: the bounding box of each
    row's members of ``member`` (empty rows give ``inf`` / ``-inf``)."""
    import numpy as np

    def extent(vals: Any) -> Tuple[Any, Any]:
        lo = np.where(member, vals, np.inf).min(axis=1)
        return lo[:, None], np.where(member, vals, -np.inf).max(axis=1)[:, None]

    return (*extent(xs), *extent(ys))


def _live_merge_rows(
    CNT: Any, PTR: Any, masks: Any, sub: Any, box: Optional[Any], budget: int
) -> Iterator[Tuple[Any, ...]]:
    """The merge rows of one cardinality whose two factor fronts exist.

    Row ``(m, v, s)`` merges fronts ``(q1, v)`` and ``(masks[m] ^ q1, v)``,
    ``q1 = sub[m, s]``; it is live when both are non-empty and, given
    ``box`` (Lemma 3), ``box[m, v]`` puts node ``v`` in the mask's box.
    The nonzeros of one boolean cube per chunk, in ``(mask, node,
    split)`` order, are the live rows in reference bucket order
    (``docs/numerics.md`` §5). A chunk — whole masks, or column blocks of
    one mask's nodes — has at most ``budget`` cells unless one ``(mask,
    node)`` has more splits. Yields ``(m, v, q1, c1, c2, p1, p2)`` per
    chunk, with the factors' ``CNT`` and ``PTR`` entries.
    """
    import numpy as np

    live = CNT > 0
    n_masks, n_splits = sub.shape
    n_nodes = CNT.shape[1]
    cols = min(n_nodes, max(1, budget // n_splits))
    step = max(1, budget // (n_splits * cols))
    for m0 in range(0, n_masks, step):
        q1s = sub[m0 : m0 + step]
        q2s = masks[m0 : m0 + step, None] ^ q1s
        for n0 in range(0, n_nodes, cols):
            block = live[:, n0 : n0 + cols]
            cube = block[q1s]
            cube &= block[q2s]
            if box is not None:
                cube &= box[m0 : m0 + step, None, n0 : n0 + cols]
            m, v, s = np.nonzero(cube.transpose(0, 2, 1))
            q1 = q1s[m, s]
            v += n0
            f1 = q1 * n_nodes + v
            f2 = q2s[m, s] * n_nodes + v
            cnt, ptr = CNT.take(f1), PTR.take(f1)
            yield m + m0, v, q1, cnt, CNT.take(f2), ptr, PTR.take(f2)


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
    nets the enumerate-and-sort tuple DP. Both are bit-identical —
    objectives, payload tie choices and the shared work counters; only
    the work done differs. The engine that ran is counted as
    ``dw.engine.array`` / ``dw.engine.tuple`` when observability is on.
    From degree :data:`_BOUND_MIN_DEGREE` up the array engine also runs
    *bounded*: two heuristic trees of ``net`` (:func:`_incumbent_trees`)
    let it drop DP labels that no full tree can carry onto the front. The frontier — trees included
    — is unchanged; the work counters shrink (``docs/numerics.md`` §9).

    ``kernels=False`` runs the tuple DP at every degree instead (counted
    as ``dw.engine.tuple``) — the returned frontier is identical; it
    exists as the oracle of the equivalence tests and benchmarks.

    Raises :class:`DegreeTooLargeError` when ``net.degree > max_degree``.
    """
    engine = "array" if kernels and net.degree >= _ARRAY_MIN_DEGREE else "tuple"
    return _pareto_dw_on(
        net,
        engine,
        lemma2=lemma2,
        lemma3=lemma3,
        lemma4=lemma4,
        with_trees=with_trees,
        max_degree=max_degree,
        stats=stats,
        bound=net.degree >= _BOUND_MIN_DEGREE,
    )


def _incumbent_trees(net: Net) -> List[RoutingTree]:
    """The trees a bounded solve measures DP labels against.

    Both ends of the front, cheaply: the CL arborescence (every sink on
    a shortest path, so its delay is the L1 bound) and greedy Steiner
    growth from the source (light wire). Together ~0.2–0.4 ms at degree 6–9.
    """
    from ..baselines.rsma import rsma
    from ..routing.attach import grow_from_source

    return [rsma(net), grow_from_source(net)]


def _grid_objective(
    tree: RoutingTree, grid: HananGrid, dist: Any
) -> Optional[Tuple[float, float]]:
    """``tree.objective()`` re-measured in the DP's own metric.

    Every edge length is a :meth:`~repro.geometry.hanan.HananGrid.\
distance_array` entry — the same floats the DP sums — so an incumbent
    and the labels it bounds differ only by summation order, never by
    how coordinates were rounded. ``None`` when a tree point is off the
    grid (that tree then bounds nothing).
    """
    try:
        flat = [grid.flat_index(grid.node_of(p)) for p in tree.points]
    except KeyError:
        return None
    parent = tree.parent
    arrival = [0.0] * len(flat)
    wire = 0.0
    for u in tree.topological_order():
        p = parent[u]
        if p >= 0:
            edge = float(dist[flat[p], flat[u]])
            wire += edge
            arrival[u] = arrival[p] + edge
    return wire, max(arrival[1 : tree.net.degree])


def _incumbent_bound(
    grid: HananGrid, dist: Any, node_flat: Any, incumbents: Sequence[RoutingTree]
) -> Tuple[Optional[Callable[[Any, Any], Any]], Any, Any]:
    """Drop test and label lower bounds of a bounded array-engine solve.

    A label ``(w, d)`` of front ``(Q, v)`` only grows into full trees
    whose wirelength is at least ``w + lb_w[Q, v]`` and whose delay is
    at least ``d + lb_d[v]``:

    * ``lb_w[Q, v]`` — half-perimeter of the bounding box of ``v``, the
      sinks outside ``Q`` and the source (a tree joining them needs that
      much wire);
    * ``lb_d[v]`` — distance from the source to ``v`` (every sink below
      ``v`` is reached through it).

    Both are consistent — no extension or merge lowers a descendant's
    bound — so a label whose bound an incumbent beats in both
    objectives by more than :data:`_BOUND_MARGIN` never reaches the
    front, and neither does anything built from it. Returns ``(beyond,
    lb_w, lb_d)``; ``beyond(bw, bd)`` is that test, elementwise, and is
    ``None`` when no incumbent lies on the grid. Coordinates are the
    prefix sums the distances are differences of, read off
    ``dist`` itself, and ``lb_w`` is built for every mask at once from a
    sink-membership bit matrix.
    """
    import numpy as np

    scale = 1.0 + _BOUND_MARGIN
    thresholds: List[Tuple[float, float]] = []
    for tree in incumbents:
        objective = _grid_objective(tree, grid, dist)
        if objective is not None:
            thresholds.append((objective[0] * scale, objective[1] * scale))
    ny = grid.ny
    # Node (0, 0) sits at prefix coordinate 0 on both axes, so its
    # distance to (ix, 0) is px[ix] and to (0, iy) is py[iy], exactly.
    px = dist[0, ::ny]
    py = dist[0, :ny]
    pins = grid.pin_nodes()
    sink_x = px[[ix for ix, _ in pins[1:]]]
    sink_y = py[[iy for _, iy in pins[1:]]]
    src_x, src_y = px[pins[0][0]], py[pins[0][1]]
    # Every box holds the sinks outside the mask and the source (last).
    outside = ~_sink_membership(len(pins) - 1)
    boxed = np.c_[outside, np.ones(outside.shape[0], dtype=bool)]
    lo_x, hi_x, lo_y, hi_y = _mask_box(
        boxed, np.append(sink_x, src_x), np.append(sink_y, src_y)
    )
    vx = px[node_flat // ny]
    vy = py[node_flat % ny]
    lb_w = (np.maximum(hi_x, vx) - np.minimum(lo_x, vx)) + (
        np.maximum(hi_y, vy) - np.minimum(lo_y, vy)
    )
    lb_d = dist[grid.flat_index(pins[0]), node_flat]
    if not thresholds:
        return None, lb_w, lb_d

    def beyond(bw: Any, bd: Any) -> Any:
        hit = None
        for tw, td in thresholds:
            h = (tw < bw) & (td < bd)
            hit = h if hit is None else hit | h
        return hit

    return beyond, lb_w, lb_d


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
    bound: bool = False,
) -> List[Solution]:
    """:func:`pareto_dw` on a given ``engine``, ``"tuple"`` or ``"array"``
    (same frontier on each), with its counters, span and ``dw_solve``
    event. ``bound=True`` is the array engine's incumbent bound (see
    :func:`_pareto_dw_array_impl`); the tuple DP ignores it."""
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
            result = _pareto_dw_array_impl(
                net,
                incumbents=_incumbent_trees(net) if bound else None,
                **flags,
            )
        else:
            result = _pareto_dw_impl(net, **flags)
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
    if stats.bound_pruned:
        counter_add("dw.bound_pruned", stats.bound_pruned)
    gauge_max("dw.max_front_size", stats.max_front_size)


def _pareto_dw_impl(
    net: Net,
    *,
    lemma2: bool,
    lemma3: bool,
    lemma4: bool,
    with_trees: bool,
    stats: Optional[DWStats],
) -> List[Solution]:
    """The tuple DP body of :func:`pareto_dw` (degree validated): every
    merge and closure bucket enumerated, then one exact filter.

    A bucket holds rows ``(w, d, seq, ...)``, ``seq`` the row's position
    in the bucket. A plain tuple sort of them is
    :func:`~repro.core.pareto.pareto_filter`'s stable ``(w, d)`` sort
    (``seq`` is unique, so no comparison reaches the rest of a row), and
    the sweep builds payload tuples only for the rows it keeps
    (``docs/numerics.md`` §2). The full sink set is closed at the source
    node only, the one node it is read at (§5).
    """
    import numpy as np

    grid = HananGrid.of_net(net)
    pin_nodes = grid.pin_nodes()
    source_node = pin_nodes[0]
    sink_nodes = pin_nodes[1:]
    num_sinks = len(sink_nodes)
    full = (1 << num_sinks) - 1

    corner = set(grid.corner_nodes()) if lemma2 else set()
    nodes = [v for v in grid.nodes() if v not in corner]
    if stats is not None:
        stats.grid_nodes = len(nodes)
        stats.pruned_corner_nodes = len(corner)

    boundary_rank = _boundary_order(grid, sink_nodes) if lemma4 else None

    num_nodes = len(nodes)
    node_index = {v: vi for vi, v in enumerate(nodes)}
    all_nodes = range(num_nodes)
    # drow[v][u]: distance of nodes v and u by index, the floats
    # grid.dist() produces (bit-identical by the distance_array contract).
    flat = [grid.flat_index(v) for v in nodes]
    drow = grid.distance_array()[np.ix_(flat, flat)].tolist()
    inf = float("inf")

    # S[mask][v] : Pareto list of (w, d, payload) at node index v, each a
    # sorted front (w ascending, d strictly descending) by construction.
    S: List[Optional[List[List[Solution]]]] = [None] * (full + 1)

    def closure(
        merged: List[Tuple[int, List[Solution]]], targets: Sequence[int]
    ) -> List[List[Solution]]:
        """One metric-closure round: extend every candidate of ``merged``
        (``(node index, front)`` pairs in node order) to each node of
        ``targets``; returns their fronts in ``targets`` order."""
        # Every candidate once, in bucket order (source node, then front
        # position); its row k of each bucket is cands[k] shifted.
        cands = [(ui, s[0], s[1], s) for ui, front in merged for s in front]
        own = {ui: len(front) for ui, front in merged}
        out: List[List[Solution]] = []
        for vi in targets:
            row = drow[vi]
            # row[vi] is 0.0, so an identity row keeps its objectives.
            bucket = [
                (w + row[ui], d + row[ui], k)
                for k, (ui, w, d, _) in enumerate(cands)
            ]
            bucket.sort()
            v = nodes[vi]
            front: List[Solution] = []
            best = inf
            for w, d, k in bucket:
                if d < best:
                    best = d
                    ui, _, _, s = cands[k]
                    # An identity extension is the candidate itself.
                    if ui != vi:
                        s = (w, d, ("ext", nodes[ui], v, s[2]))
                    front.append(s)
            out.append(front)
            if stats is not None:
                shifted = len(cands) - own.get(vi, 0)
                stats.closure_extensions += shifted
                stats.closure_allocations += shifted
                if len(front) > stats.max_front_size:
                    stats.max_front_size = len(front)
        return out

    def merge_at(vi: int, submasks: List[int], mask: int) -> List[Solution]:
        """Pareto front of all split merges at node index ``vi``."""
        bucket: List[Tuple[Any, ...]] = []
        for q1 in submasks:
            s1 = S[q1][vi]
            s2 = S[mask ^ q1][vi]
            if not s1 or not s2:
                continue
            if stats is not None:
                stats.merge_transitions += 1
                stats.merge_candidates += len(s1) * len(s2)
            # d2 if d2 > d1 else d1 is max(d1, d2), bit for bit.
            bucket += [
                (w1 + w2, d2 if d2 > d1 else d1, k, p1, p2)
                for k, ((w1, d1, p1), (w2, d2, p2)) in enumerate(
                    product(s1, s2), len(bucket)
                )
            ]
        bucket.sort()
        front: List[Solution] = []
        best = inf
        for w, d, _, p1, p2 in bucket:
            if d < best:
                best = d
                front.append((w, d, ("merge", p1, p2)))
        return front

    def targets_of(mask: int) -> Sequence[int]:
        """The nodes ``mask`` is closed over: all, or the full set's source."""
        return [node_index[source_node]] if mask == full else all_nodes

    # Singletons.
    with span("dw.closure"):
        for si, s_node in enumerate(sink_nodes):
            base = [(node_index[s_node], [(0.0, 0.0, ("leaf", s_node))])]
            S[1 << si] = closure(base, targets_of(1 << si))
            if stats is not None:
                stats.subsets += 1

    # Subsets in increasing cardinality.
    masks_by_size: List[List[int]] = [[] for _ in range(num_sinks + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, num_sinks + 1):
        for mask in masks_by_size[size]:
            bits = [i for i in range(num_sinks) if mask >> i & 1]
            # Bounding box of the active sinks, for Lemma 3.
            if lemma3:
                ixs = [sink_nodes[i][0] for i in bits]
                iys = [sink_nodes[i][1] for i in bits]
                bxlo, bxhi = min(ixs), max(ixs)
                bylo, byhi = min(iys), max(iys)

            # Which splits to enumerate.
            submasks = _splits_for_mask(mask, bits, size, boundary_rank, stats)

            merged: List[Tuple[int, List[Solution]]] = []
            with span("dw.merge"):
                for vi, (ix, iy) in enumerate(nodes):
                    if lemma3 and not (bxlo <= ix <= bxhi and bylo <= iy <= byhi):
                        if stats is not None:
                            stats.merge_skipped_lemma3 += 1
                        continue
                    front = merge_at(vi, submasks, mask)
                    if front:
                        merged.append((vi, front))
            with span("dw.closure"):
                S[mask] = closure(merged, targets_of(mask))
            if stats is not None:
                stats.subsets += 1
            # Free sub-frontiers no longer needed? (All smaller masks may
            # still be needed by other supersets; keep everything — memory
            # is bounded by 2^(n-1) * |nodes| * |S|, fine for n <= 12.)

    top = S[full]
    return _finish(net, grid, top[0] if top is not None else [], with_trees)


def _finish(
    net: Net, grid: HananGrid, result: List[Solution], with_trees: bool
) -> List[Solution]:
    """The returned front of either engine: ``result`` (payloads are
    backpointers), or with ``with_trees`` each payload's realised tree."""
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


class _Store:
    """Equal-length columns, appended batch by batch, joined when read.

    The array engine keeps two: its elements ``(kind, ea, eb)`` and its
    front slots ``(fe, sw, sd)``.
    """

    def __init__(self, *columns: Any) -> None:
        self._chunks: List[List[Any]] = [[col] for col in columns]
        self.size = int(columns[0].shape[0])

    def append(self, *columns: Any) -> int:
        """Append one batch of rows; returns the batch's first row id."""
        base = self.size
        for chunks, col in zip(self._chunks, columns):
            chunks.append(col)
        self.size += int(columns[0].shape[0])
        return base

    def columns(self) -> Tuple[Any, ...]:
        """Each column as one array; it replaces the chunks, so no copy stays."""
        import numpy as np

        for chunks in self._chunks:
            if len(chunks) > 1:
                chunks[:] = [np.concatenate(chunks)]
        return tuple(chunks[0] for chunks in self._chunks)


class _Sources(NamedTuple):
    """The closure inputs of one cardinality: the merged fronts of
    ``masks`` back to back (block ``m`` is ``ptr[m]:ptr[m + 1]``), each
    ordered by source node then front position — the reference closure
    bucket order — as element ids, source nodes and objectives."""

    masks: Any
    ptr: Any
    eids: Any
    vis: Any
    w: Any
    d: Any


class _ArraySolve:
    """One array-engine solve: its state and its stages.

    Construction prepares the grid, the Lemma-2 node index, the node
    distance matrix ``dmat``, the incumbent-bound tables, the stores and
    ``PTR`` / ``CNT`` (each ``(mask, node)`` front's slot range;
    uncomputed masks read as empty). Then, per subset cardinality:

    * :meth:`merge` — the live ``(mask, node, split)`` rows
      (:func:`_live_merge_rows`) expand into cross products
      (:func:`~repro.core.frontier_array.ragged_product_indices`),
      filtered by segmented exact sweeps, one segment per ``(mask,
      node)`` bucket;
    * :meth:`close` — every merged front is extended to every grid
      node (the full sink set to the source node alone) via broadcasts
      against the distance matrix and filtered the same way, reusing
      source elements for identity extensions exactly like the tuple DP
      reuses tuples.

    :meth:`front` reads the result.
    Elements are struct-of-arrays backpointers: kind 0 = leaf(sink node
    index), 1 = ext(child, ``u * num_nodes + v``), 2 = merge(left,
    right). Objectives live only in the slots, so the merge phase reads
    them with plain float gathers (an identity closure adds a bitwise
    0.0, so a reused element's objectives are its slot's).
    """

    def __init__(
        self,
        net: Net,
        *,
        lemma2: bool,
        lemma3: bool,
        lemma4: bool,
        stats: Optional[DWStats],
        incumbents: Optional[Sequence[RoutingTree]],
    ) -> None:
        import numpy as np

        self.net = net
        self.stats = stats
        self.budget = _CANDIDATE_BUDGET
        self.grid = grid = HananGrid.of_net(net)
        pin_nodes = grid.pin_nodes()
        self.sink_nodes = sink_nodes = pin_nodes[1:]
        self.num_sinks = len(sink_nodes)
        self.full = (1 << self.num_sinks) - 1
        corner = set(grid.corner_nodes()) if lemma2 else set()
        self.nodes = nodes = [v for v in grid.nodes() if v not in corner]
        if stats is not None:
            stats.grid_nodes = len(nodes)
            stats.pruned_corner_nodes = len(corner)
        self.boundary_rank = _boundary_order(grid, sink_nodes) if lemma4 else None
        self.num_nodes = len(nodes)
        self.node_index = {v: vi for vi, v in enumerate(nodes)}
        self.source_vi = self.node_index[pin_nodes[0]]
        node_ix, node_iy = np.array(nodes, dtype=np.int64).T
        node_flat = node_ix * grid.ny + node_iy
        # Node-indexed distance matrix, gathered from the same float values
        # grid.dist() produces (bit-identical by the distance_array contract).
        dist = grid.distance_array()
        self.dmat = dist[np.ix_(node_flat, node_flat)]
        self.beyond: Optional[Callable[[Any, Any], Any]] = None
        if incumbents is not None:
            self.beyond, self.lb_w, self.lb_d = _incumbent_bound(
                grid, dist, node_flat, incumbents
            )
        self.box_all = None
        if lemma3:
            lo_x, hi_x, lo_y, hi_y = _mask_box(
                _sink_membership(self.num_sinks), *np.array(sink_nodes).T
            )
            box = (node_ix >= lo_x) & (node_ix <= hi_x)
            self.box_all = box & (node_iy >= lo_y) & (node_iy <= hi_y)

        self.PTR = np.zeros((self.full + 1, self.num_nodes), dtype=np.int64)
        self.CNT = np.zeros_like(self.PTR)
        i8, i64, f64 = (np.empty(0, dtype=t) for t in (np.int8, np.int64, np.float64))
        self.elems = _Store(i8, i64, i64)
        self.slots = _Store(i64, f64, f64)

    def _unbeaten(self, bw: Any, bd: Any, cols: Tuple[Any, ...]) -> List[Any]:
        """``cols`` without the entries whose lower bounds ``(bw, bd)`` an
        incumbent beats (counted as ``bound_pruned``)."""
        import numpy as np

        hit = self.beyond(bw, bd)
        if self.stats is not None:
            self.stats.bound_pruned += int(np.count_nonzero(hit))
        kept = np.flatnonzero(~hit)
        return [col.take(kept) for col in cols]

    def merge(self, size: int) -> _Sources:
        """The closure sources of the ``size``-sink masks: one leaf
        element per sink at size 1, else every split merge."""
        import numpy as np

        stats = self.stats
        if size == 1:
            n = self.num_sinks
            vis = np.array(
                [self.node_index[v] for v in self.sink_nodes], dtype=np.int64
            )
            ids = np.arange(n + 1, dtype=np.int64)
            base = self.elems.append(np.zeros(n, np.int8), vis, np.zeros_like(vis))
            if stats is not None:
                stats.subsets += n
            zeros = np.zeros(n, dtype=np.float64)
            leaf_masks = 1 << np.arange(n, dtype=np.int64)
            return _Sources(leaf_masks, ids, base + ids[:-1], vis, zeros, zeros)
        if self.boundary_rank is None:
            masks, sub = _shared_split_table(self.num_sinks, size)
        else:
            masks, sub = _split_table(self.num_sinks, size, self.boundary_rank)
        box = self.box_all[masks] if self.box_all is not None else None
        if stats is not None:
            stats.subsets += masks.shape[0]
            # Pad entries are 0; a mask without Lemma 4 has every split.
            stats.splits_saved_lemma4 += int(
                ((1 << (size - 1)) - 1) * masks.shape[0] - np.count_nonzero(sub)
            )
            if box is not None:
                stats.merge_skipped_lemma3 += int(box.size - np.count_nonzero(box))
        with span("dw.merge"):
            return self._merge(masks, sub, box)

    def _merge(self, masks: Any, sub: Any, box: Optional[Any]) -> _Sources:
        """All split merges of one cardinality, in budget-sized batches.

        Takes the cardinality's :func:`_split_table` rows and Lemma-3
        ``box`` (or ``None``); returns its closure sources, less what the
        incumbent bound drops. Batches are cut between ``(mask, node)``
        segments.
        """
        import numpy as np

        stats = self.stats
        num_nodes = self.num_nodes
        budget = self.budget
        empty = np.empty(0, dtype=np.int64)
        pieces: List[Tuple[Any, ...]] = [(empty,) * 3 + (np.empty(0),) * 2]
        for m, v, _, c1, c2, p1, p2 in _live_merge_rows(
            self.CNT, self.PTR, masks, sub, box, budget
        ):
            if stats is not None:
                stats.merge_transitions += m.shape[0]
            key = m * num_nodes + v
            if self.beyond is not None:
                # Each row's ideal corner bounds every product it would
                # build: least w = the two fronts' first w, least d = the
                # max of their last d (fronts are w-ascending, d-descending).
                _, sw, sd = self.slots.columns()
                c1, c2, p1, p2, key = self._unbeaten(
                    sw.take(p1) + sw.take(p2) + self.lb_w[masks.take(m), v],
                    np.maximum(sd.take(p1 + c1 - 1), sd.take(p2 + c2 - 1))
                    + self.lb_d.take(v),
                    (c1, c2, p1, p2, key),
                )
            n_rows = key.shape[0]
            if not n_rows:
                continue
            # Segments are the runs of equal (mask, node). Greedy batch
            # cuts on segment boundaries: each batch takes the longest
            # run of segments whose products fit the budget.
            cnts = c1 * c2
            first = np.ones(n_rows, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            seg = np.cumsum(first) - 1
            seg_row = np.append(np.flatnonzero(first), n_rows)
            seg_cum = np.cumsum(cnts)[seg_row[1:] - 1]
            rows = (c1, c2, p1, p2, cnts, seg, key)
            seg_row = seg_row.tolist()
            n_seg = len(seg_row) - 1
            s0 = 0
            while s0 < n_seg:
                done = int(seg_cum[s0 - 1]) if s0 else 0
                s1 = int(np.searchsorted(seg_cum, done + budget, side="right"))
                s1 = max(s1, s0 + 1)
                pieces.append(
                    self._merge_batch(rows, seg_row[s0], seg_row[s1], s0, s1)
                )
                s0 = s1
        src_key, src_eids, src_vis, src_w, src_d = (
            np.concatenate(col) for col in zip(*pieces)
        )
        src_m = src_key // num_nodes
        if self.beyond is not None:
            src_m, src_eids, src_vis, src_w, src_d = self._unbeaten(
                src_w + self.lb_w[masks.take(src_m), src_vis],
                src_d + self.lb_d.take(src_vis),
                (src_m, src_eids, src_vis, src_w, src_d),
            )
        src_ptr = np.searchsorted(src_m, np.arange(masks.shape[0] + 1))
        return _Sources(masks, src_ptr, src_eids, src_vis, src_w, src_d)

    def _merge_batch(
        self, rows: Tuple[Any, ...], r0: int, r1: int, s0: int, s1: int
    ) -> Tuple[Any, Any, Any, Any, Any]:
        """Merge products of rows ``r0:r1`` = segments ``s0:s1``, filtered.

        Returns ``(src_key, src_eids, src_vis, src_w, src_d)`` of the
        survivors, grouped by segment in segment order, and appends one
        merge element per survivor.
        """
        import numpy as np

        from .frontier_array import (
            ragged_product_indices,
            segment_strict_prune,
            segmented_pareto_filter,
        )

        num_nodes = self.num_nodes
        c1, c2, st1, st2, cnts, seg, key = (col[r0:r1] for col in rows)
        fe, sw, sd = self.slots.columns()
        _, i_a, i_b = ragged_product_indices(c1, c2, st1, st2, rows=False)
        # Merged pair: w adds, d maxes (in place over the fresh gathers).
        mw = sw.take(i_a)
        np.add(mw, sw.take(i_b), out=mw)
        md = sd.take(i_a)
        np.maximum(md, sd.take(i_b), out=md)
        n_cand = mw.shape[0]
        if self.stats is not None:
            self.stats.merge_candidates += n_cand
        # Rows are mask-major, node-major, split-minor, so segment ids
        # are non-decreasing along the candidate axis: per-segment sizes
        # aggregate per-row product counts, and survivors recover their
        # segment / row ids by binary search instead of a full-length
        # expansion (exact: counts stay far below 2**53).
        local = seg - s0
        if n_cand >= _PRUNE_MIN:
            sizes = np.bincount(local, weights=cnts, minlength=s1 - s0).astype(
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
        kind = np.full(picked.shape[0], 2, np.int8)
        elem_base = self.elems.append(kind, fe[i_a[picked]], fe[i_b[picked]])
        src_eids = elem_base + np.arange(sidx.shape[0], dtype=np.int64)
        row_of = np.searchsorted(np.cumsum(cnts), picked, side="right")
        src_key = key.take(row_of)
        return src_key, src_eids, src_key % num_nodes, w_c.take(sidx), d_c.take(sidx)

    def close(self, size: int, src: _Sources) -> None:
        """Close every source front of every mask over all nodes (the
        full sink set over the source node alone, the one node it is
        read at).

        Cuts the ``len(src) * width`` candidates into batches of at most
        the budget: consecutive masks are grouped while their rows fit,
        and a mask whose rows alone exceed the budget is split by
        target-node columns. Every ``(mask, node)`` segment sees all of
        its candidates in one batch, in reference order.
        """
        import numpy as np

        if size == self.num_sinks:
            c_lo, c_hi = self.source_vi, self.source_vi + 1
        else:
            c_lo, c_hi = 0, self.num_nodes
        width = c_hi - c_lo
        budget = self.budget
        masks = src.masks
        e_list = np.diff(src.ptr).tolist()
        with span("dw.closure"):
            if self.stats is not None:
                # Every source element extends to each target but its own node.
                self.stats.closure_extensions += src.vis.shape[0] * width - int(
                    np.count_nonzero((src.vis >= c_lo) & (src.vis < c_hi))
                )
            m0 = 0
            while m0 < len(masks):
                rows = e_list[m0]
                m1 = m0 + 1
                while m1 < len(masks) and (rows + e_list[m1]) * width <= budget:
                    rows += e_list[m1]
                    m1 += 1
                if rows:
                    # Masks m0:m1 alone, their block offsets rebased to 0.
                    r0, r1 = int(src.ptr[m0]), int(src.ptr[m1])
                    part = _Sources(
                        masks[m0:m1],
                        src.ptr[m0 : m1 + 1] - r0,
                        *(column[r0:r1] for column in src[2:]),
                    )
                    cols = max(1, min(width, budget // rows))
                    for c0 in range(c_lo, c_hi, cols):
                        self._close_batch(part, c0, min(c0 + cols, c_hi))
                m0 = m1

    def _close_batch(self, src: _Sources, c0: int, c1: int) -> None:
        """Extend the source fronts of ``src`` to nodes ``c0:c1``, filter.

        Writes the resulting fronts of target columns ``c0:c1`` into
        PTR/CNT and the slots, and appends extension elements for the
        non-identity survivors.
        """
        import numpy as np

        from .frontier_array import segmented_pareto_filter

        stats = self.stats
        masks = src.masks
        n_masks = masks.shape[0]
        e_arr = np.diff(src.ptr)
        n_src = src.vis.shape[0]
        ncols = c1 - c0
        # Candidate matrices, element-major: row e = source element,
        # column v = target node, value = source objectives +
        # dmat[u_e, v] — both objectives grow by the same wirelength
        # offset, so two broadcast adds against the shared distance rows
        # build every candidate with no index expansion at all. The
        # segment of cell (e, v) is (mask_of_e, v); within a segment the
        # flattened row-major order is ascending e — the reference
        # bucket order.
        drows = self.dmat[src.vis, c0:c1]
        c_w = src.w[:, None] + drows
        c_d = src.d[:, None] + drows
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
            bstarts = src.ptr[:-1][nz]
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
            if self.beyond is not None:
                # The incumbent bound, on the pre-pass survivors only.
                v_abs = v_c + c0
                w_c, d_c, e_c, v_c = self._unbeaten(
                    w_c + self.lb_w[masks.take(mask_of_e.take(e_c)), v_abs],
                    d_c + self.lb_d.take(v_abs),
                    (w_c, d_c, e_c, v_c),
                )
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
        s_child = src.eids.take(e_full)
        s_u = src.vis.take(e_full)
        s_v = v_c.take(sidx) + c0
        is_id = s_u == s_v
        new = ~is_id
        n_new = int(new.sum())
        elem_base = self.elems.append(
            np.ones(n_new, np.int8), s_child[new], s_u[new] * self.num_nodes + s_v[new]
        )
        new_ids = elem_base + np.cumsum(new) - 1
        fe_vals = np.where(is_id, s_child, new_ids)
        slot_base = self.slots.append(fe_vals, s_w, s_d)
        counts = np.bincount(s_seg, minlength=n_masks * ncols).reshape(
            n_masks, ncols
        )
        starts = slot_base + np.concatenate(
            ([0], np.cumsum(counts.ravel())[:-1])
        ).reshape(n_masks, ncols)
        self.PTR[masks, c0:c1] = starts
        self.CNT[masks, c0:c1] = counts
        if stats is not None:
            stats.closure_allocations += n_new
            top = int(counts.max()) if counts.size else 0
            if top > stats.max_front_size:
                stats.max_front_size = top

    def front(self, with_trees: bool) -> List[Solution]:
        """The full sink set's front at the source node, payload tuples
        materialized (one walk per solution) so downstream consumers see
        the tuple DP's exact backpointer structure."""
        ptr = int(self.PTR[self.full, self.source_vi])
        top = slice(ptr, ptr + int(self.CNT[self.full, self.source_vi]))
        fe, sw, sd = (col[top].tolist() for col in self.slots.columns())
        result = list(zip(sw, sd, self._payloads(fe)))
        return _finish(self.net, self.grid, result, with_trees)

    def _payloads(self, eids: List[int]) -> List[Any]:
        """The backpointer tuple of each element of ``eids``, shared
        structurally like the tuple DP's."""
        kind, ea, eb = self.elems.columns()
        nodes = self.nodes
        memo: Dict[int, Any] = {}
        stack = list(eids)
        while stack:
            e = stack.pop()
            if e in memo:
                continue
            k, a, b = int(kind[e]), int(ea[e]), int(eb[e])
            todo = [c for c in (a, b)[:k] if c not in memo]
            if todo:
                stack += [e, *todo]
            elif k == 0:
                memo[e] = ("leaf", nodes[a])
            elif k == 1:
                u, v = divmod(b, self.num_nodes)
                memo[e] = ("ext", nodes[u], nodes[v], memo[a])
            else:
                memo[e] = ("merge", memo[a], memo[b])
        return [memo[e] for e in eids]


def _pareto_dw_array_impl(
    net: Net,
    *,
    lemma2: bool,
    lemma3: bool,
    lemma4: bool,
    with_trees: bool,
    stats: Optional[DWStats],
    incumbents: Optional[Sequence[RoutingTree]] = None,
) -> List[Solution]:
    """The array-native DP engine :func:`pareto_dw` runs from degree 6 up.

    Same DP, same transitions, same frontiers as :func:`_pareto_dw_impl` —
    but every front lives in contiguous NumPy arrays and the work of one
    subset cardinality is batched into a few vectorized passes, each
    holding at most :data:`_CANDIDATE_BUDGET` candidates; this function
    runs the stages of one :class:`_ArraySolve`.

    Backpointers are struct-of-arrays (kind/arg columns) instead of
    nested tuples; payload tuples are materialized only for the final
    frontier, which makes the result — objectives, payload structure and
    tie choices included — bit-identical to the tuple DP (see
    ``docs/numerics.md`` for why each step preserves IEEE semantics).
    Its allocation counters differ: ``merge_candidates`` counts every
    product pair (``a · b`` per transition, like the tuple DP) and
    ``closure_allocations`` only the extension survivors it stores.

    ``incumbents``, when given, are real trees of ``net`` that bound the
    search (:func:`_incumbent_bound`): merge rows, merged closure
    sources and closure candidates whose lower bound an incumbent
    strictly beats are dropped. The final frontier is unchanged, but
    the ``(mask, node)`` fronts below it are not (``docs/numerics.md`` §9).
    """
    solve = _ArraySolve(
        net, lemma2=lemma2, lemma3=lemma3, lemma4=lemma4, stats=stats,
        incumbents=incumbents,
    )
    for size in range(1, solve.num_sinks + 1):
        solve.close(size, solve.merge(size))
    return solve.front(with_trees)


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
