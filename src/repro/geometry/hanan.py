"""Hanan grids for rectilinear Steiner tree construction.

Hanan's theorem says an optimal RSMT exists on the grid induced by the
pins' x- and y-coordinates; the paper observes the same holds for every
Pareto-optimal timing-driven routing tree, so all exact algorithms in this
library search only Hanan-grid nodes.

The grid also defines the *symbolic* coordinate system of the lookup
tables: horizontal gaps ``l_1..l_{nx-1}`` and vertical gaps
``l_nx..l_{nx+ny-2}`` (the paper's ``l_1..l_{2n-2}`` when all pin
coordinates are distinct). Symbolic solutions are integer combinations of
these gaps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

from .net import Net
from .point import Point, PointLike

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

GridNode = Tuple[int, int]
"""A Hanan-grid node addressed by column and row index ``(ix, iy)``."""


class HananGrid:
    """The Hanan grid of a pin set.

    Parameters
    ----------
    pins:
        The pin positions. Coordinates may repeat; the grid keeps only the
        distinct sorted values.
    """

    def __init__(self, pins: Sequence[PointLike]) -> None:
        if not pins:
            raise ValueError("Hanan grid of an empty pin set")
        self.xs: List[float] = sorted({float(p[0]) for p in pins})
        self.ys: List[float] = sorted({float(p[1]) for p in pins})
        self.nx = len(self.xs)
        self.ny = len(self.ys)
        self._x_index: Dict[float, int] = {x: i for i, x in enumerate(self.xs)}
        self._y_index: Dict[float, int] = {y: i for i, y in enumerate(self.ys)}
        # Gap vectors: the symbolic edge lengths l_1..l_{nx+ny-2}.
        self.x_gaps: List[float] = [
            self.xs[i + 1] - self.xs[i] for i in range(self.nx - 1)
        ]
        self.y_gaps: List[float] = [
            self.ys[i + 1] - self.ys[i] for i in range(self.ny - 1)
        ]
        # Prefix sums so node-to-node L1 distance is O(1).
        self._px: List[float] = [0.0]
        for g in self.x_gaps:
            self._px.append(self._px[-1] + g)
        self._py: List[float] = [0.0]
        for g in self.y_gaps:
            self._py.append(self._py[-1] + g)
        self._pin_nodes: List[GridNode] = [
            (self._x_index[float(p[0])], self._y_index[float(p[1])]) for p in pins
        ]

    @classmethod
    def of_net(cls, net: Net) -> "HananGrid":
        """Hanan grid spanned by every pin of ``net`` (source included)."""
        return cls(net.pins)

    # ------------------------------------------------------------------ nodes

    @property
    def num_nodes(self) -> int:
        """Total node count ``nx * ny``."""
        return self.nx * self.ny

    def nodes(self) -> Iterator[GridNode]:
        """All grid nodes in column-major order."""
        for ix in range(self.nx):
            for iy in range(self.ny):
                yield (ix, iy)

    def point(self, node: GridNode) -> Point:
        """Real coordinates of a grid node."""
        return Point(self.xs[node[0]], self.ys[node[1]])

    def node_of(self, p: PointLike) -> GridNode:
        """Grid node at exactly point ``p`` (which must be on the grid)."""
        try:
            return (self._x_index[float(p[0])], self._y_index[float(p[1])])
        except KeyError:
            raise KeyError(f"point {p} is not a Hanan grid node") from None

    def pin_nodes(self) -> List[GridNode]:
        """Grid node of each pin, in the pin order given at construction."""
        return list(self._pin_nodes)

    def dist(self, a: GridNode, b: GridNode) -> float:
        """L1 distance between two grid nodes."""
        return abs(self._px[a[0]] - self._px[b[0]]) + abs(
            self._py[a[1]] - self._py[b[1]]
        )

    def flat_index(self, node: GridNode) -> int:
        """Row index of a node in :meth:`distance_array` (``ix * ny + iy``)."""
        return node[0] * self.ny + node[1]

    def distance_array(self) -> "np.ndarray":
        """Dense all-pairs L1 node distances as an ``(n, n)`` float64 array,
        indexed by :meth:`flat_index` (``n = nx · ny``).

        ``distance_array()[flat_index(a), flat_index(b)] == dist(a, b)``
        bit-for-bit: both compute ``|px_a - px_b| + |py_a - py_b|`` over
        the same prefix sums with the same IEEE operations, here in one
        NumPy broadcast. The array engine indexes it directly.

        Memory is ``(nx · ny)²`` floats — at the exact DP's degree ceiling
        (12 pins) that is at most ``144² ≈ 20k`` entries.
        """
        import numpy as np

        px = np.asarray(self._px)
        py = np.asarray(self._py)
        dx = np.abs(px[:, None] - px[None, :])  # (nx, nx)
        dy = np.abs(py[:, None] - py[None, :])  # (ny, ny)
        full = dx[:, None, :, None] + dy[None, :, None, :]
        n = self.nx * self.ny
        return full.reshape(n, n)

    def neighbors(self, node: GridNode) -> Iterator[GridNode]:
        """The up-to-four orthogonal neighbours of a node."""
        ix, iy = node
        if ix > 0:
            yield (ix - 1, iy)
        if ix + 1 < self.nx:
            yield (ix + 1, iy)
        if iy > 0:
            yield (ix, iy - 1)
        if iy + 1 < self.ny:
            yield (ix, iy + 1)

    # ------------------------------------------------- symbolic edge lengths

    @property
    def num_params(self) -> int:
        """Number of symbolic edge-length parameters ``(nx-1) + (ny-1)``."""
        return (self.nx - 1) + (self.ny - 1)

    def gap_vector(self) -> List[float]:
        """Concrete values of ``l_1..l_{num_params}`` for this grid."""
        return list(self.x_gaps) + list(self.y_gaps)

    def symbolic_dist(self, a: GridNode, b: GridNode) -> Tuple[int, ...]:
        """Distance between nodes as a usage-count vector over the gaps.

        Entry ``k`` counts how many times gap ``l_{k+1}`` appears on any
        monotone rectilinear path from ``a`` to ``b``.
        """
        counts = [0] * self.num_params
        x0, x1 = sorted((a[0], b[0]))
        for k in range(x0, x1):
            counts[k] = 1
        y0, y1 = sorted((a[1], b[1]))
        off = self.nx - 1
        for k in range(y0, y1):
            counts[off + k] = 1
        return tuple(counts)

    # ------------------------------------------------- pruning support (L2)

    def corner_nodes(self) -> List[GridNode]:
        """Nodes prunable by Lemma 2: empty-quadrant corner nodes.

        A node ``v`` is a lower-left corner node when no pin ``p`` satisfies
        ``p.x <= v.x and p.y <= v.y``; the other three corners are
        symmetric. Such nodes can never be useful Steiner points because
        sliding the node towards the pins shortens every incident path.
        Pins themselves are never corner nodes (each pin witnesses its own
        quadrant).

        Grid indices order exactly like coordinates, so the quadrants are
        read off index extrema in ``O(nx · ny)``: ``lo_left[ix]`` is the
        lowest pin row in columns ``<= ix`` (the lower-left quadrant of
        ``(ix, iy)`` is empty iff it exceeds ``iy``), and likewise the
        highest row and the suffixes over columns ``>= ix``. Nodes come
        back in :meth:`nodes` (column-major) order.
        """
        nx, ny = self.nx, self.ny
        # Lowest and highest pin row per column (every column holds a pin:
        # the columns are the pins' x values).
        col_lo = [ny] * nx
        col_hi = [-1] * nx
        for ix, iy in self._pin_nodes:
            if iy < col_lo[ix]:
                col_lo[ix] = iy
            if iy > col_hi[ix]:
                col_hi[ix] = iy
        lo_left, hi_left = col_lo[:], col_hi[:]
        for ix in range(1, nx):
            lo_left[ix] = min(lo_left[ix], lo_left[ix - 1])
            hi_left[ix] = max(hi_left[ix], hi_left[ix - 1])
        lo_right, hi_right = col_lo[:], col_hi[:]
        for ix in range(nx - 2, -1, -1):
            lo_right[ix] = min(lo_right[ix], lo_right[ix + 1])
            hi_right[ix] = max(hi_right[ix], hi_right[ix + 1])
        out: List[GridNode] = []
        for ix in range(nx):
            # A row below either side's lowest pin row has an empty lower
            # quadrant on that side; above either highest, an upper one.
            lo = max(lo_left[ix], lo_right[ix])
            hi = min(hi_left[ix], hi_right[ix])
            out.extend((ix, iy) for iy in range(ny) if iy < lo or iy > hi)
        return out

    def active_nodes(self) -> List[GridNode]:
        """All nodes that survive Lemma 2 pruning (always includes pins)."""
        pruned = set(self.corner_nodes())
        return [n for n in self.nodes() if n not in pruned]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HananGrid({self.nx}x{self.ny})"
