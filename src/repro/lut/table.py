"""The PatLabor lookup table: canonical patterns → potentially-optimal topologies.

A :class:`LookupTable` maps each canonical ``(perm, source_col)`` pattern
of every covered degree to its list of potentially-Pareto-optimal
symbolic solutions. Looking up a net:

1. rank the pin coordinates to get the net's pattern and gap vectors,
2. canonicalise the pattern under the eight symmetries, remembering the
   transform,
3. evaluate every stored ``(W, D)`` at the transformed gap vector and
   Pareto-filter numerically — by the soundness of Lemma 1 pruning this
   *is* the exact frontier,
4. map the surviving topologies back through the inverse transform and
   instantiate them as :class:`~repro.routing.tree.RoutingTree` objects.

Degrees 2 and 3 are closed-form (the paper omits them as trivial): the
direct edge, and the star through the coordinate-wise median point, which
simultaneously minimises wirelength and gives every sink a shortest path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..exceptions import LookupTableError
from ..geometry.net import Net
from ..geometry.point import Point, median_point
from ..geometry.transforms import GridTransform, canonical_pattern
from ..routing.tree import RoutingTree
from ..core.frontier import pareto_filter_sorted
from ..core.pareto import Solution, clean_front
from .cluster import TopologyPool

if TYPE_CHECKING:
    # Only building a table runs the generator; loading one does not.
    from .generator import Pattern, PatternSolutions

GridNode = Tuple[int, int]

#: A stored table row: wirelength vector, delay rows, pool topology id.
TableRow = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...], int]


@dataclass
class DegreeStats:
    """Table II statistics for one degree."""

    degree: int
    num_index: int
    avg_topologies: float
    max_topologies: int
    distinct_topologies: int
    build_seconds: float = 0.0
    sampled: bool = False


def net_pattern(net: Net) -> Tuple[Tuple[int, ...], int, List[float], List[float]]:
    """The net's pattern and sorted coordinate arrays.

    Returns ``(perm, source_col, xs, ys)`` where ``xs[c]``/``ys[r]`` are
    the coordinates of pattern column ``c`` / row ``r``. Coordinate ties
    are broken deterministically (by the other axis, then pin index), which
    yields zero-width gaps — evaluation stays exact.
    """
    pins = net.pins
    n = len(pins)
    by_x = sorted(range(n), key=lambda i: (pins[i].x, pins[i].y, i))
    by_y = sorted(range(n), key=lambda i: (pins[i].y, pins[i].x, i))
    col = [0] * n
    row = [0] * n
    for c, i in enumerate(by_x):
        col[i] = c
    for r, i in enumerate(by_y):
        row[i] = r
    perm = [0] * n
    for i in range(n):
        perm[col[i]] = row[i]
    xs = [pins[i].x for i in by_x]
    ys = [pins[i].y for i in by_y]
    return tuple(perm), col[0], xs, ys


class LookupTable:
    """Pareto lookup tables for small-degree timing-driven routing."""

    def __init__(self) -> None:
        self.entries: Dict[int, Dict[Pattern, List[TableRow]]] = {}
        self.pool = TopologyPool()
        self.stats: Dict[int, DegreeStats] = {}
        self.prune_mode: str = "componentwise"

    # ------------------------------------------------------------ building

    @classmethod
    def build(
        cls,
        degrees: Sequence[int] = (4, 5, 6),
        *,
        prune_mode: str = "componentwise",
        limit_per_degree: Optional[int] = None,
        stride: int = 1,
        progress=None,
    ) -> "LookupTable":
        """Generate tables for the given degrees (full or sampled)."""
        import time

        from .generator import generate_degree

        table = cls()
        table.prune_mode = prune_mode
        for n in degrees:
            t0 = time.perf_counter()
            raw = generate_degree(
                n,
                prune_mode=prune_mode,
                limit=limit_per_degree,
                stride=stride,
                progress=progress,
            )
            table._ingest(n, raw)
            st = table.stats[n]
            st.build_seconds = time.perf_counter() - t0
            st.sampled = limit_per_degree is not None
        return table

    def _ingest(self, n: int, raw: Dict[Pattern, PatternSolutions]) -> None:
        per_pattern: Dict[Pattern, List[TableRow]] = {}
        topo_counts: List[int] = []
        for key, ps in raw.items():
            rows: List[TableRow] = []
            for sol in ps.solutions:
                topo_id = self.pool.intern(sol.payload)
                rows.append((sol.w, sol.rows, topo_id))
            per_pattern[key] = rows
            topo_counts.append(len(rows))
        self.entries[n] = per_pattern
        self.stats[n] = DegreeStats(
            degree=n,
            num_index=len(per_pattern),
            avg_topologies=(
                sum(topo_counts) / len(topo_counts) if topo_counts else 0.0
            ),
            max_topologies=max(topo_counts, default=0),
            distinct_topologies=len(
                {r[2] for rows in per_pattern.values() for r in rows}
            ),
        )

    def add_pattern(self, n: int, perm: Tuple[int, ...], src: int) -> None:
        """Solve and insert a single pattern (lazy / on-demand filling)."""
        from .generator import solve_pattern

        ps = solve_pattern(perm, src, prune_mode=self.prune_mode)
        rows = [
            (sol.w, sol.rows, self.pool.intern(sol.payload))
            for sol in ps.solutions
        ]
        self.entries.setdefault(n, {})[(perm, src)] = rows

    # ------------------------------------------------------------- queries

    @property
    def degrees(self) -> List[int]:
        """The covered table degrees, ascending (2 and 3 are closed-form
        and not listed)."""
        return sorted(self.entries)

    def covers(self, degree: int) -> bool:
        """True when nets of this degree can be served (2/3 are closed-form)."""
        return degree <= 3 or degree in self.entries

    def lookup(
        self, net: Net, *, on_missing: str = "solve"
    ) -> List[Solution]:
        """Exact Pareto frontier of ``net``, with tree payloads.

        ``on_missing`` controls behaviour when the canonical pattern is
        absent (possible for sampled high-degree tables): ``"solve"``
        computes and caches it on the fly, ``"raise"`` raises
        :class:`LookupTableError`.
        """
        n = net.degree
        if n == 2:
            return _degree2_frontier(net)
        if n == 3:
            return _degree3_frontier(net)
        if n not in self.entries:
            raise LookupTableError(
                f"lookup table has no degree-{n} entries "
                f"(available: {self.degrees})"
            )
        perm, src, xs, ys = net_pattern(net)
        cperm, csrc, t = canonical_pattern(perm, src)
        rows = self.entries[n].get((cperm, csrc))
        if rows is None:
            if on_missing == "solve":
                self.add_pattern(n, cperm, csrc)
                rows = self.entries[n][(cperm, csrc)]
            else:
                raise LookupTableError(
                    f"pattern {cperm}/{csrc} missing from degree-{n} table"
                )
        # Gap vectors in the canonical frame.
        qx = [xs[i + 1] - xs[i] for i in range(n - 1)]
        qy = [ys[i + 1] - ys[i] for i in range(n - 1)]
        cgx, cgy = t.apply_gaps(qx, qy)
        gaps = list(cgx) + list(cgy)

        evaluated: List[Solution] = []
        for w_vec, d_rows, topo_id in rows:
            w = sum(c * g for c, g in zip(w_vec, gaps))
            d = max(
                sum(c * g for c, g in zip(r, gaps)) for r in d_rows
            )
            evaluated.append((w, d, topo_id))
        front = pareto_filter_sorted(evaluated)

        t_inv = t.inverse(n, n)
        cn, _ = t.out_shape(n, n)  # == n
        out: List[Solution] = []
        for w, d, topo_id in front:
            edges = self.pool.get(topo_id)
            tree = _instantiate(net, edges, t_inv, n, xs, ys)
            tw, td = tree.objective()
            out.append((min(w, tw), min(d, td), tree))
        return clean_front(out)

    def frontier(self, net: Net) -> List[Tuple[float, float]]:
        """Bare ``(w, d)`` frontier."""
        return [(w, d) for w, d, _ in self.lookup(net)]


def _instantiate(
    net: Net,
    canonical_edges,
    t_inv: GridTransform,
    n: int,
    xs: Sequence[float],
    ys: Sequence[float],
) -> RoutingTree:
    """Map a canonical-frame topology back onto the query net."""
    def coord(node: GridNode) -> Point:
        qn = t_inv.apply_node(node, n, n)
        return Point(float(xs[qn[0]]), float(ys[qn[1]]))

    edges = []
    referenced = set()
    for a, b in canonical_edges:
        pa, pb = coord(a), coord(b)
        referenced.add(pa)
        referenced.add(pb)
        if pa != pb:
            edges.append((pa, pb))
    if not edges:
        edges = [(net.source, s) for s in net.sinks]
    return RoutingTree.from_edges(net, edges, extra_points=list(referenced))


def _degree2_frontier(net: Net) -> List[Solution]:
    """One solution: the direct connection (optimal in both objectives)."""
    tree = RoutingTree.star(net)
    w, d = tree.objective()
    return [(w, d, tree)]


def _degree3_frontier(net: Net) -> List[Solution]:
    """One solution: the star through the coordinate-wise median.

    For three points the median point lies on a monotone path between
    every pair, so the star is simultaneously the RSMT *and* gives every
    sink its L1-shortest path — a singleton Pareto frontier.
    """
    m = median_point(net.pins)
    edges = [(m, p) for p in net.pins if p != m]
    if not edges:  # impossible for distinct pins, kept for safety
        tree = RoutingTree.star(net)
    else:
        tree = RoutingTree.from_edges(net, edges, extra_points=[m])
    w, d = tree.objective()
    return [(w, d, tree)]
