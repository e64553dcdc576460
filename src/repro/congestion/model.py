"""Congestion model: one array-backed capacity grid.

The paper's conclusion names congestion as the first future-work metric.
This module models it the way global routers do: the region is divided
into uniform g-cells, each carrying a congestion weight (demand/capacity
ratio, hot-spot penalty, ...). The congestion cost of a wire is the
weight-integrated length of its embedding:

    cost(segment) = sum over crossed cells of (length inside cell * weight)

Unlike wirelength and delay, congestion depends on *which* L-shape embeds
an edge — that freedom is exploited by
:func:`repro.congestion.router.embed_min_congestion`.

:class:`CapacityGrid` is the only grid: per-cell ``base`` weights plus
``capacity`` / ``demand`` / ``history`` arrays and the negotiated
present-cost price

    price = (base + hist_fac * history)
            * (1 + pres_fac * max(0, demand - capacity))

which reduces exactly to ``base`` while demand and history are zero. A
fresh grid is therefore the static weight map of the single-net APIs
(``pareto_dw3`` / ``embed_min_congestion`` /
``congestion_annotated_front``), and the same class is the PathFinder
state of :mod:`repro.congestion.negotiate`.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from ..geometry.point import PointLike
from ..routing.embedding import Segment, embed_edge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..routing.tree import RoutingTree

import numpy as np

#: Loose alias for numpy arrays (same convention as ``core.frontier_array``).
Array = Any

#: Sub-resolution slack used by the rasterizer: runs shorter than this are
#: attributed to the next cell instead of producing phantom slivers.
_EPS = 1e-12


def scan_cells(
    origin: float, cell: float, lo: float, hi: float
) -> List[Tuple[int, float]]:
    """Cells of a 1-D uniform grid crossed by ``[lo, hi]``, with lengths.

    The scalar rasterizer behind every grid cost in this module: the
    scalar costs and the negotiator's precomputed rasterization integrate
    prices over exactly this cell/length sequence.

    The cell index *advances* (instead of being re-derived from the
    accumulated float coordinate each step), so runs that start or end
    exactly on a cell boundary never attribute length to the wrong cell:
    a boundary hit advances to the next cell, and slivers shorter than
    ``1e-12`` (float misrounds of the boundary itself) are folded into
    the following cell rather than emitted. Empty or reversed intervals
    yield no cells.

    >>> scan_cells(0.0, 10.0, 5.0, 25.0)
    [(0, 5.0), (1, 10.0), (2, 5.0)]
    >>> scan_cells(0.0, 10.0, 10.0, 20.0)   # starts exactly on a boundary
    [(1, 10.0)]
    >>> scan_cells(0.0, 10.0, 7.0, 7.0)     # zero-length run
    []
    """
    if hi <= lo:
        return []
    out: List[Tuple[int, float]] = []
    idx = int((lo - origin) // cell)
    start = lo
    while start < hi - _EPS:
        end = min(hi, origin + (idx + 1) * cell)
        if end <= start + _EPS:
            # ``start`` sits on (or misrounds past) this cell's upper
            # boundary: the run continues in the next cell.
            idx += 1
            continue
        out.append((idx, end - start))
        start = end
        idx += 1
    return out


class CapacityGrid:
    """Per-cell congestion state on a uniform grid.

    Holds four ``(nx, ny)`` float64 arrays — static ``base`` weights,
    per-cell ``capacity``, accumulated ``demand``, and the ``history``
    penalty — plus the two PathFinder knobs ``pres_fac`` / ``hist_fac``.
    The effective cell weight (the negotiated *price*) is

        price = (base + hist_fac * history)
                * (1 + pres_fac * max(0, demand - capacity))

    which is exactly ``base`` while demand and history are zero, so a
    fresh grid is a static weight map for the single-net APIs. Demand is
    committed and ripped up through flat-index arrays
    (:meth:`rasterize_segment` / :meth:`commit` / :meth:`ripup`), the
    shape :class:`~repro.congestion.negotiate.NegotiatedRouter` re-prices
    whole frontiers with.

    Every scalar cost (:meth:`segment_cost` / :meth:`edge_cost` /
    :meth:`best_edge_cost` / :meth:`tree_cost`) integrates the current
    prices over the :func:`scan_cells` rasterization, reading the price
    array once per query. The price cache is keyed on the demand/history
    version and the two factors, not on ``base``: build the base weights
    before constructing a grid instead of editing ``base`` in place.

    Cells outside the covered region have no capacity bookkeeping; they
    always price at ``outside_weight``.
    """

    def __init__(
        self,
        xlo: float,
        ylo: float,
        cell: float,
        base: Array,
        capacity: Array = math.inf,
        *,
        pres_fac: float = 0.0,
        hist_fac: float = 0.0,
        outside_weight: float = 1.0,
    ) -> None:
        """Build a grid from base weights and (scalar or per-cell) capacity."""
        if cell <= 0:
            raise ValueError(f"cell size must be positive, got {cell}")
        self.xlo = float(xlo)
        self.ylo = float(ylo)
        self.cell = float(cell)
        self.base = np.array(base, dtype=np.float64)
        if self.base.ndim != 2 or self.base.size == 0:
            raise ValueError("base weights must be a non-empty 2-D array")
        self.capacity = np.broadcast_to(
            np.asarray(capacity, dtype=np.float64), self.base.shape
        ).copy()
        self.demand = np.zeros_like(self.base)
        self.history = np.zeros_like(self.base)
        self.pres_fac = float(pres_fac)
        self.hist_fac = float(hist_fac)
        self.outside_weight = float(outside_weight)
        self._version = 0
        self._price_key: Optional[Tuple[int, float, float]] = None
        self._prices: Optional[Array] = None

    # ------------------------------------------------------------ frame

    @property
    def nx(self) -> int:
        """Grid width in cells."""
        return int(self.base.shape[0])

    @property
    def ny(self) -> int:
        """Grid height in cells."""
        return int(self.base.shape[1])

    # ----------------------------------------------------------- builders

    @classmethod
    def uniform(
        cls, xlo: float, ylo: float, xhi: float, yhi: float,
        nx: int, ny: int, *,
        weight: float = 1.0, capacity: float = math.inf,
        pres_fac: float = 0.0, hist_fac: float = 0.0,
    ) -> "CapacityGrid":
        """A constant-weight, constant-capacity grid over a square frame.

        The cell size derives from the x-extent; the grid is ``nx x ny``.
        """
        cell = (xhi - xlo) / nx
        if abs((yhi - ylo) / ny - cell) > 1e-9:
            raise ValueError("uniform grid requires square cells")
        return cls(
            xlo, ylo, cell,
            np.full((nx, ny), float(weight)),
            capacity,
            pres_fac=pres_fac, hist_fac=hist_fac,
        )

    @classmethod
    def random_hotspots(
        cls, xlo: float, ylo: float, span: float, cells: int,
        hotspots: int = 3, hot_weight: float = 8.0,
        rng: Optional[random.Random] = None,
    ) -> "CapacityGrid":
        """A base-weight-1 ``cells x cells`` grid with a few square hot
        regions of weight ``hot_weight`` (no capacity limit)."""
        rng = rng or random.Random()
        base = np.ones((cells, cells))
        for _ in range(hotspots):
            cx = rng.randrange(cells)
            cy = rng.randrange(cells)
            radius = rng.randint(0, max(1, cells // 6))
            base[
                max(0, cx - radius):min(cells, cx + radius + 1),
                max(0, cy - radius):min(cells, cy + radius + 1),
            ] = hot_weight
        # The cell size as uniform() derives it from the frame.
        return cls(xlo, ylo, ((xlo + span) - xlo) / cells, base)

    def fresh(self) -> "CapacityGrid":
        """A new grid with this frame/base/capacity and zeroed state.

        Demand and history start at zero and both PathFinder factors at
        0.0 — the state a negotiation run begins from. The base and
        capacity arrays are copied, so runs never alias each other.
        """
        return CapacityGrid(
            self.xlo, self.ylo, self.cell, self.base, self.capacity,
            outside_weight=self.outside_weight,
        )

    # ------------------------------------------------------------- pricing

    def prices(self) -> Array:
        """The ``(nx, ny)`` price array under the current PathFinder state.

        Cached until demand/history/factors change; the scalar costs read
        the same cache, so scalar and vectorized pricing always agree
        exactly.
        """
        key = (self._version, self.pres_fac, self.hist_fac)
        if self._prices is None or self._price_key != key:
            overuse = np.maximum(0.0, self.demand - self.capacity)
            self._prices = (self.base + self.hist_fac * self.history) * (
                1.0 + self.pres_fac * overuse
            )
            self._price_key = key
        return self._prices

    def flat_prices(self) -> Array:
        """The price array flattened in C order (``flat = ix * ny + iy``)."""
        return self.prices().reshape(-1)

    def weight_at(self, ix: int, iy: int) -> float:
        """The current price of cell ``(ix, iy)``; outside uses the default."""
        if 0 <= ix < self.nx and 0 <= iy < self.ny:
            return float(self.prices()[ix, iy])
        return self.outside_weight

    # --------------------------------------------------------------- costs

    def segment_cells(self, seg: Segment) -> List[Tuple[Tuple[int, int], float]]:
        """Cells a segment crosses, with the length inside each.

        Out-of-region runs are reported with their out-of-range indices
        (as produced by floor division); callers accumulating demand
        should ignore indices outside ``[0, nx) x [0, ny)``. Zero-length
        segments cross no cells.
        """
        if seg.is_horizontal:
            lo, hi = sorted((seg.a.x, seg.b.x))
            iy = int((seg.a.y - self.ylo) // self.cell)
            return [
                ((ix, iy), length)
                for ix, length in scan_cells(self.xlo, self.cell, lo, hi)
            ]
        lo, hi = sorted((seg.a.y, seg.b.y))
        ix = int((seg.a.x - self.xlo) // self.cell)
        return [
            ((ix, iy), length)
            for iy, length in scan_cells(self.ylo, self.cell, lo, hi)
        ]

    def _segment_cost(self, rows: List[List[float]], seg: Segment) -> float:
        """Length of one segment integrated over the prices ``rows`` (the
        price array as nested floats), in scan order."""
        nx, ny = len(rows), len(rows[0])
        cost = 0.0
        for (ix, iy), length in self.segment_cells(seg):
            if 0 <= ix < nx and 0 <= iy < ny:
                cost += length * rows[ix][iy]
            else:
                cost += length * self.outside_weight
        return cost

    def _edge_cost(
        self, rows: List[List[float]], a: PointLike, b: PointLike, lower_l: bool
    ) -> float:
        """Cost of one tree edge embedded as the given L."""
        return sum(self._segment_cost(rows, s) for s in embed_edge(a, b, lower_l))

    def _best_edge_cost(
        self, rows: List[List[float]], a: PointLike, b: PointLike
    ) -> Tuple[float, bool]:
        """Cheaper L embedding; ties break towards the lower L."""
        lo = self._edge_cost(rows, a, b, True)
        hi = self._edge_cost(rows, a, b, False)
        return (lo, True) if lo <= hi else (hi, False)

    def segment_cost(self, seg: Segment) -> float:
        """Weight-integrated length of one axis-parallel segment."""
        return self._segment_cost(self.prices().tolist(), seg)

    def edge_cost(self, a: PointLike, b: PointLike, lower_l: bool = True) -> float:
        """Cost of one tree edge under a fixed L-shape convention."""
        return self._edge_cost(self.prices().tolist(), a, b, lower_l)

    def best_edge_cost(self, a: PointLike, b: PointLike) -> Tuple[float, bool]:
        """Cheaper of the two L embeddings: ``(cost, lower_l_flag)``.

        Ties break deterministically towards the lower L.
        """
        return self._best_edge_cost(self.prices().tolist(), a, b)

    def tree_cost(self, tree: "RoutingTree", per_edge_choice: bool = True) -> float:
        """Congestion cost of a whole tree.

        With ``per_edge_choice`` each edge independently takes its cheaper
        L embedding (legal: the objectives w/d are embedding-invariant).
        """
        rows = self.prices().tolist()
        total = 0.0
        for child, parent in tree.edges():
            a, b = tree.points[parent], tree.points[child]
            if per_edge_choice:
                total += self._best_edge_cost(rows, a, b)[0]
            else:
                total += self._edge_cost(rows, a, b, True)
        return total

    # ------------------------------------------------------ demand editing

    def rasterize_segment(self, seg: Segment) -> Tuple[Array, Array, float]:
        """One segment as ``(flat_idx, lengths, outside_length)``.

        ``flat_idx`` are C-order in-range cell indices (``ix * ny + iy``),
        ``lengths`` the run length inside each; ``outside_length`` is the
        total length outside the covered region (priced at the constant
        ``outside_weight``, never counted as demand). Uses the same
        :func:`scan_cells` rasterizer as the scalar costs.
        """
        idx: List[int] = []
        lengths: List[float] = []
        outside = 0.0
        ny = self.ny
        for (ix, iy), length in self.segment_cells(seg):
            if 0 <= ix < self.nx and 0 <= iy < ny:
                idx.append(ix * ny + iy)
                lengths.append(length)
            else:
                outside += length
        return (
            np.asarray(idx, dtype=np.int64),
            np.asarray(lengths, dtype=np.float64),
            outside,
        )

    def commit(self, flat_idx: Array, lengths: Array) -> None:
        """Add rasterized demand (repeated indices accumulate)."""
        np.add.at(self.demand.reshape(-1), flat_idx, lengths)
        self._version += 1

    def ripup(self, flat_idx: Array, lengths: Array) -> None:
        """Remove previously committed demand (exact inverse of commit)."""
        np.subtract.at(self.demand.reshape(-1), flat_idx, lengths)
        self._version += 1

    # ------------------------------------------------------- convergence

    def overuse(self) -> Array:
        """Per-cell demand beyond capacity (``max(0, demand - capacity)``)."""
        return np.maximum(0.0, self.demand - self.capacity)

    def total_overuse(self) -> float:
        """Summed overuse — the quantity negotiation drives to zero."""
        return float(self.overuse().sum())

    def overused_cells(self) -> int:
        """How many cells currently exceed their capacity."""
        return int((self.demand > self.capacity).sum())

    def utilization(self) -> Array:
        """Per-cell demand/capacity (0 where capacity is 0 or infinite)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                np.isfinite(self.capacity) & (self.capacity > 0),
                self.demand / self.capacity,
                0.0,
            )

    def max_utilization(self) -> float:
        """Peak demand/capacity ratio over capacitated cells (0 if none)."""
        return float(self.utilization().max())

    def update_history(self, gain: float = 1.0) -> None:
        """Accumulate the PathFinder history penalty from current overuse."""
        self.history += gain * self.overuse()
        self._version += 1

    def escalate(self, factor: float) -> None:
        """Multiply the present-cost factor (the per-iteration schedule)."""
        self.pres_fac *= factor
