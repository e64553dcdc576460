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

In memory each degree is a :class:`DegreeRows`: a dict from canonical
pattern to its row range over int8 ``W``/``D`` columns and int32
topology ids. The table file (:mod:`repro.io.lut_io`) stores these
arrays as they are, so loading the shipped degree 4–6 table takes ~5 ms
and adds ~700 GC-tracked objects, not the 54k tuples and frozensets of
a tuple per row (``docs/performance.md``, "The table in memory").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

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
    from .generator import PatternSolutions

GridNode = Tuple[int, int]

#: A canonical ``(perm, source_col)`` pattern.
Pattern = Tuple[Tuple[int, ...], int]

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


def int8_values(values: Iterable[int]) -> np.ndarray:
    """``values`` as a flat int8 array; each must be an integer in 0..127."""
    try:
        flat = np.frombuffer(bytes(values), dtype=np.uint8)
    except (TypeError, ValueError) as exc:
        raise LookupTableError("table values must be integers in 0..127") from exc
    if flat.size and int(flat.max()) > 127:
        raise LookupTableError("table values must be integers in 0..127")
    return flat.view(np.int8)


class DegreeRows:
    """One degree's table: canonical pattern → row range, plus columns.

    Row ``r`` is one stored solution: ``w[r]`` (int8, ``2(n-1)``) its
    wirelength coefficients over the gaps, ``d[r]`` (int8,
    ``(n-1, 2(n-1))``) one delay row per sink, ``topo[r]`` (int32) its
    pool topology id. ``index`` maps each pattern to the ``(start, stop)``
    of its contiguous rows, in the order the patterns were solved or
    read. The columns are never written in place: adding a pattern
    replaces them, so two tables may share them.
    """

    __slots__ = ("degree", "index", "w", "d", "topo")

    def __init__(
        self,
        degree: int,
        index: Dict[Pattern, Tuple[int, int]],
        w: np.ndarray,
        d: np.ndarray,
        topo: np.ndarray,
    ) -> None:
        self.degree = degree
        self.index = index
        self.w = w
        self.d = d
        self.topo = topo

    @classmethod
    def from_rows(
        cls,
        degree: int,
        index: Dict[Pattern, Tuple[int, int]],
        ws: Sequence[Sequence[int]],
        ds: Sequence[Sequence[Sequence[int]]],
        topos: Sequence[int],
    ) -> "DegreeRows":
        """Columns from per-row wirelength vectors, delay rows and ids."""
        k = 2 * (degree - 1)
        w = int8_values(chain.from_iterable(ws))
        d = int8_values(chain.from_iterable(chain.from_iterable(ds)))
        if w.size != len(topos) * k or d.size != len(topos) * (degree - 1) * k:
            raise LookupTableError(
                f"degree-{degree} rows need {k} wirelength coefficients and "
                f"{degree - 1} delay rows of {k} each"
            )
        return cls(
            degree,
            index,
            w.reshape(len(topos), k),
            d.reshape(len(topos), degree - 1, k),
            np.array(topos, dtype=np.int32),
        )

    def append(self, pattern: Pattern, rows: Sequence[TableRow]) -> None:
        """Store ``rows`` as ``pattern``'s rows (after any existing ones)."""
        new = DegreeRows.from_rows(
            self.degree,
            {},
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
        )
        start = len(self.topo)
        self.w = np.concatenate((self.w, new.w))
        self.d = np.concatenate((self.d, new.d))
        self.topo = np.concatenate((self.topo, new.topo))
        self.index[pattern] = (start, start + len(rows))

    def rows(self, pattern: Pattern) -> List[TableRow]:
        """``pattern``'s rows as ``(w, d, topology id)`` tuples."""
        start, stop = self.index[pattern]
        return [
            (tuple(w), tuple(map(tuple, d)), t)
            for w, d, t in zip(
                self.w[start:stop].tolist(),
                self.d[start:stop].tolist(),
                self.topo[start:stop].tolist(),
            )
        ]

    def __contains__(self, pattern: object) -> bool:
        return pattern in self.index

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.index)


class LookupTable:
    """Pareto lookup tables for small-degree timing-driven routing."""

    def __init__(self) -> None:
        self.entries: Dict[int, DegreeRows] = {}
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
        progress: Optional[Callable[[int, Pattern], None]] = None,
        jobs: Optional[int] = None,
    ) -> "LookupTable":
        """Generate tables for the given degrees (full or sampled).

        With ``jobs`` > 1 the patterns are solved in that many processes
        (:func:`~repro.lut.generator.generate_degree_parallel`, which
        takes the first ``limit_per_degree`` patterns and ignores
        ``stride`` and ``progress``); the table is the same.
        """
        import time

        from .generator import generate_degree, generate_degree_parallel

        table = cls()
        table.prune_mode = prune_mode
        for n in degrees:
            t0 = time.perf_counter()
            if jobs is not None and jobs > 1:
                raw = generate_degree_parallel(
                    n, jobs=jobs, prune_mode=prune_mode, limit=limit_per_degree
                )
            else:
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
        index: Dict[Pattern, Tuple[int, int]] = {}
        ws: List[Tuple[int, ...]] = []
        ds: List[Tuple[Tuple[int, ...], ...]] = []
        topos: List[int] = []
        topo_counts: List[int] = []
        for key, ps in raw.items():
            start = len(topos)
            for sol in ps.solutions:
                topos.append(self.pool.intern(sol.payload))
                ws.append(sol.w)
                ds.append(sol.rows)
            index[key] = (start, len(topos))
            topo_counts.append(len(topos) - start)
        self.entries[n] = DegreeRows.from_rows(n, index, ws, ds, topos)
        self.stats[n] = DegreeStats(
            degree=n,
            num_index=len(index),
            avg_topologies=(
                sum(topo_counts) / len(topo_counts) if topo_counts else 0.0
            ),
            max_topologies=max(topo_counts, default=0),
            distinct_topologies=len(set(topos)),
        )

    def add_pattern(self, n: int, perm: Tuple[int, ...], src: int) -> None:
        """Solve and insert a single pattern (lazy / on-demand filling)."""
        from .generator import solve_pattern

        ps = solve_pattern(perm, src, prune_mode=self.prune_mode)
        rows = [
            (sol.w, sol.rows, self.pool.intern(sol.payload))
            for sol in ps.solutions
        ]
        if n not in self.entries:
            self.entries[n] = DegreeRows.from_rows(n, {}, [], [], [])
        self.entries[n].append((perm, src), rows)

    def take_degree(self, other: "LookupTable", n: int) -> None:
        """Copy ``other``'s degree-``n`` rows and stats into this table.

        The topologies are re-interned into this table's pool, so the
        copied rows cite this pool's ids. One this pool does not hold yet
        keeps the iteration order ``other``'s pool gives it, so when the
        degrees' topologies are new here (as they are across degrees),
        lookups equal ``other``'s exactly.
        """
        block = other.entries[n]
        topo = [self.pool.intern(other.pool.get(t)) for t in block.topo.tolist()]
        self.entries[n] = DegreeRows(
            n, dict(block.index), block.w, block.d, np.array(topo, dtype=np.int32)
        )
        if n in other.stats:
            self.stats[n] = dataclasses.replace(other.stats[n])

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
        block = self.entries[n]
        row_range = block.index.get((cperm, csrc))
        if row_range is None:
            if on_missing == "solve":
                self.add_pattern(n, cperm, csrc)
                row_range = block.index[(cperm, csrc)]
            else:
                raise LookupTableError(
                    f"pattern {cperm}/{csrc} missing from degree-{n} table"
                )
        start, stop = row_range
        # Gap vectors in the canonical frame.
        qx = [xs[i + 1] - xs[i] for i in range(n - 1)]
        qy = [ys[i + 1] - ys[i] for i in range(n - 1)]
        cgx, cgy = t.apply_gaps(qx, qy)
        gaps = list(cgx) + list(cgy)

        # The rows as Python ints, summed in the stored column order
        # (docs/numerics.md §4: no dot products).
        evaluated: List[Solution] = []
        for w_vec, d_rows, topo_id in zip(
            block.w[start:stop].tolist(),
            block.d[start:stop].tolist(),
            block.topo[start:stop].tolist(),
        ):
            w = sum(c * g for c, g in zip(w_vec, gaps))
            d = max(
                sum(c * g for c, g in zip(r, gaps)) for r in d_rows
            )
            evaluated.append((w, d, topo_id))
        front = pareto_filter_sorted(evaluated)

        t_inv = t.inverse(n, n)
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
    canonical_edges: Iterable[Tuple[GridNode, GridNode]],
    t_inv: GridTransform,
    n: int,
    xs: Sequence[float],
    ys: Sequence[float],
) -> RoutingTree:
    """Map a canonical-frame topology back onto the query net."""
    def coord(node: GridNode) -> Point:
        qn = t_inv.apply_node(node, n, n)
        return Point(float(xs[qn[0]]), float(ys[qn[1]]))

    # Sorted, as in ``pareto_dw.reconstruct_tree``: the edges and extra
    # points decide the tree's node numbering, which must not depend on
    # set iteration order (a table built in process and its saved and
    # loaded copy hold equal topologies in different set orders).
    edges: List[Tuple[Point, Point]] = []
    referenced: Set[Point] = set()
    for a, b in sorted(canonical_edges):
        pa, pb = coord(a), coord(b)
        referenced.add(pa)
        referenced.add(pb)
        if pa != pb:
            edges.append((pa, pb))
    if not edges:
        edges = [(net.source, s) for s in net.sinks]
    return RoutingTree.from_edges(net, edges, extra_points=sorted(referenced))


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
