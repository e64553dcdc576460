"""Concrete rectilinear embedding of abstract tree edges.

Tree edges connect two points and stand for any monotone rectilinear path;
objectives never depend on which path is chosen. Drawing and DRC-style
consumers need actual horizontal/vertical segments, which this module
produces via the standard lower-L convention (horizontal first, then
vertical), with the corner choice overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..geometry.point import Point, PointLike, l1
from .tree import RoutingTree


@dataclass(frozen=True)
class Segment:
    """An axis-parallel wire segment from ``a`` to ``b``."""

    a: Point
    b: Point

    @property
    def length(self) -> float:
        """L1 length of the segment."""
        return l1(self.a, self.b)

    @property
    def is_horizontal(self) -> bool:
        """True when both ends share a y coordinate (zero length included)."""
        return self.a.y == self.b.y

    @property
    def is_vertical(self) -> bool:
        """True when both ends share an x coordinate (zero length included)."""
        return self.a.x == self.b.x


def embed_edge(
    a: PointLike, b: PointLike, lower_l: bool = True
) -> List[Segment]:
    """Rectilinear segments realising edge ``a``–``b``.

    ``lower_l=True`` routes horizontal-first through corner ``(b.x, a.y)``;
    ``False`` routes vertical-first through ``(a.x, b.y)``. Degenerate
    (already axis-parallel or zero-length) edges yield at most one segment.
    """
    pa = Point(float(a[0]), float(a[1]))
    pb = Point(float(b[0]), float(b[1]))
    if pa == pb:
        return []
    if pa.x == pb.x or pa.y == pb.y:
        return [Segment(pa, pb)]
    corner = Point(pb.x, pa.y) if lower_l else Point(pa.x, pb.y)
    return [Segment(pa, corner), Segment(corner, pb)]


def embed_tree(tree: RoutingTree, lower_l: bool = True) -> List[Segment]:
    """All wire segments of a tree under a uniform L-shape convention."""
    segments: List[Segment] = []
    for child, parent in tree.edges():
        segments.extend(
            embed_edge(tree.points[parent], tree.points[child], lower_l=lower_l)
        )
    return segments


def embedded_wirelength(segments: List[Segment]) -> float:
    """Total segment length; equals the tree wirelength for any embedding."""
    return sum(s.length for s in segments)


def segments_bbox(
    segments: List[Segment],
) -> Tuple[float, float, float, float]:
    """``(xlo, ylo, xhi, yhi)`` of an embedded tree (for viewport sizing)."""
    if not segments:
        return (0.0, 0.0, 0.0, 0.0)
    xs = [s.a.x for s in segments] + [s.b.x for s in segments]
    ys = [s.a.y for s in segments] + [s.b.y for s in segments]
    return (min(xs), min(ys), max(xs), max(ys))
