"""SVG heatmaps of congestion grids.

Renders a :class:`~repro.congestion.model.CapacityGrid` as a
colour-graded SVG, optionally overlaying routed trees — the classic
global-router congestion picture. :func:`congestion_heatmap_svg` shows
the grid's current cell prices; :func:`overuse_heatmap_svg` shows its
utilisation with overused cells outlined — the picture
``repro negotiate --heatmap-svg`` writes per scenario. Both draw into
one frame (:func:`_grid_svg`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..routing.embedding import embed_tree
from ..routing.tree import RoutingTree

if TYPE_CHECKING:
    # Annotations only: rendering a tree or a front never loads the
    # congestion package.
    from ..congestion.model import CapacityGrid


def _heat_color(value: float) -> str:
    """White → yellow → red ramp for ``value`` in [0, 1]."""
    v = min(max(value, 0.0), 1.0)
    if v < 0.5:
        # white (255,255,255) -> yellow (255,220,80)
        t = v / 0.5
        g = round(255 - 35 * t)
        b = round(255 - 175 * t)
        return f"rgb(255,{g},{b})"
    # yellow -> red (214,39,40)
    t = (v - 0.5) / 0.5
    r = round(255 - 41 * t)
    g = round(220 - 181 * t)
    b = round(80 - 40 * t)
    return f"rgb({r},{g},{b})"


def _grid_svg(
    grid: CapacityGrid,
    values: List[List[float]],
    top: float,
    outlined: Optional[List[List[bool]]],
    trees: Sequence[RoutingTree],
    size: float,
    caption: str,
) -> str:
    """One cell per ``values[ix][iy]`` coloured at ``value / top``,
    ``outlined`` cells stroked in black, trees drawn on top."""
    nx, ny = grid.nx, grid.ny
    margin = 28.0
    board = size - 2 * margin
    cell_px = board / max(nx, ny)
    span_x = nx * grid.cell
    span_y = ny * grid.cell

    def tx(x: float) -> float:
        return margin + (x - grid.xlo) / span_x * (nx * cell_px)

    def ty(y: float) -> float:
        return size - margin - (y - grid.ylo) / span_y * (ny * cell_px)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        f'<text x="{size / 2:.0f}" y="16" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{caption}</text>'
    ]
    for ix in range(nx):
        for iy in range(ny):
            color = _heat_color(values[ix][iy] / top)
            over = outlined is not None and outlined[ix][iy]
            stroke = "#000" if over else "#ddd"
            width = "1.5" if over else "0.5"
            x = margin + ix * cell_px
            y = size - margin - (iy + 1) * cell_px
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_px:.1f}" '
                f'height="{cell_px:.1f}" fill="{color}" '
                f'stroke="{stroke}" stroke-width="{width}"/>'
            )
    for tree in trees:
        for seg in embed_tree(tree):
            parts.append(
                f'<line x1="{tx(seg.a.x):.1f}" y1="{ty(seg.a.y):.1f}" '
                f'x2="{tx(seg.b.x):.1f}" y2="{ty(seg.b.y):.1f}" '
                f'stroke="#1f77b4" stroke-width="1.2" opacity="0.75"/>'
            )
    parts.append("</svg>")
    return "".join(parts)


def congestion_heatmap_svg(
    grid: CapacityGrid,
    trees: Sequence[RoutingTree] = (),
    size: float = 480.0,
    title: str = "congestion",
    vmax: Optional[float] = None,
) -> str:
    """A standalone SVG heatmap of the grid's cell prices with tree overlays.

    ``vmax`` sets the saturation point of the colour ramp (defaults to the
    maximum cell price).
    """
    prices = grid.prices()
    top = max(vmax if vmax is not None else float(prices.max()), 1e-12)
    return _grid_svg(
        grid, prices.tolist(), top, None, trees, size,
        f"{title} (max {top:.1f})",
    )


def overuse_heatmap_svg(
    grid: CapacityGrid,
    trees: Sequence[RoutingTree] = (),
    size: float = 480.0,
    title: str = "overuse",
    vmax: Optional[float] = None,
) -> str:
    """A standalone SVG of a capacity grid's utilisation and overuse.

    Cell colour is demand/capacity through the heat ramp (``vmax``
    defaults to the peak utilisation, never below 1.0 so the ramp's red
    end always means "over capacity"); cells whose demand exceeds
    capacity are additionally outlined in black — the per-iteration
    congestion picture of a :class:`~repro.congestion.negotiate.
    NegotiatedRouter` run. Tree overlays mirror
    :func:`congestion_heatmap_svg`.
    """
    top = vmax if vmax is not None else max(1.0, grid.max_utilization())
    top = max(top, 1e-12)
    return _grid_svg(
        grid, grid.utilization().tolist(), top,
        (grid.demand > grid.capacity).tolist(), trees, size,
        f"{title} (peak util {top:.2f}, {grid.overused_cells()} overused)",
    )
