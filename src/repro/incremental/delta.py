"""ECO deltas: typed edits against a routed design, with a replay format.

A :class:`NetDelta` is one incremental edit — a sink moved, a sink added
or removed, the source moved, or a rectangular blockage whose capacity
changes — the unit the ECO engine (:mod:`repro.incremental.engine`), the
daemon's ``eco`` request, and the ``repro eco`` CLI all consume.

The text replay format (``.deltas``) mirrors the ``.nets`` format of
:mod:`repro.io.nets_format` — diff-friendly lines, ``#`` comments::

    # one directive per line
    move <net> <sink_index> <x> <y>
    add <net> <x> <y>
    remove <net> <sink_index>
    source <net> <x> <y>
    blockage <x0> <y0> <x1> <y1> <scale>

Deterministic perturbation generators live here too:
:func:`perturb_nets` drives the benchmark/test delta streams, and
:func:`grid_preserving_move` constructs one-pin moves guaranteed (by
construction *and* by an explicit :func:`_dw_signature` check) to keep
the Hanan-grid distance structure intact.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from ..exceptions import SerializationError
from ..geometry.net import Net

PathLike = Union[str, Path]

#: Delta kinds understood by the whole ECO surface (engine, wire, CLI).
DELTA_KINDS = ("move", "add", "remove", "source", "blockage")


class NetDelta:
    """One incremental edit. Immutable value object.

    ``kind`` selects which fields are meaningful:

    ========== ===========================================================
    kind       fields
    ========== ===========================================================
    ``move``   ``net``, ``sink_index``, ``point`` — sink moved in place
    ``add``    ``net``, ``point`` — sink appended to the net
    ``remove`` ``net``, ``sink_index`` — sink dropped
    ``source`` ``net``, ``point`` — source (root) moved
    ``blockage`` ``region`` ``(x0, y0, x1, y1)``, ``scale`` — capacity of
               every congestion cell intersecting the region multiplied
               by ``scale`` (``0`` = hard blockage); net-independent
    ========== ===========================================================
    """

    __slots__ = ("kind", "net", "sink_index", "point", "region", "scale")

    def __init__(
        self,
        kind: str,
        net: str = "",
        sink_index: int = -1,
        point: Optional[Tuple[float, float]] = None,
        region: Optional[Tuple[float, float, float, float]] = None,
        scale: float = 0.0,
    ) -> None:
        """Validate the field combination for ``kind`` and freeze it."""
        if kind not in DELTA_KINDS:
            raise SerializationError(
                f"unknown delta kind {kind!r}; expected one of {DELTA_KINDS}"
            )
        if kind in ("move", "add", "source") and point is None:
            raise SerializationError(f"{kind} delta requires a point")
        if kind in ("move", "remove") and sink_index < 0:
            raise SerializationError(f"{kind} delta requires sink_index >= 0")
        if kind != "blockage" and not net:
            raise SerializationError(f"{kind} delta requires a net name")
        if kind == "blockage" and region is None:
            raise SerializationError("blockage delta requires a region")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "sink_index", sink_index)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("NetDelta is immutable")

    def __repr__(self) -> str:
        return f"NetDelta({format_delta(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetDelta):
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__slots__))


def apply_delta(net: Net, delta: NetDelta) -> Net:
    """The edited net. Blockage deltas leave the net untouched.

    Raises :class:`~repro.exceptions.SerializationError` for an
    out-of-range sink index and lets :class:`~repro.geometry.net.Net`
    validation reject degenerate results (duplicate pins, degree < 2).
    """
    if delta.kind == "blockage":
        return net
    sinks: List[Tuple[float, float]] = [(p.x, p.y) for p in net.sinks]
    source: Tuple[float, float] = (net.source.x, net.source.y)
    if delta.kind in ("move", "remove") and not (
        0 <= delta.sink_index < len(sinks)
    ):
        raise SerializationError(
            f"delta sink_index {delta.sink_index} out of range for net "
            f"{net.name!r} with {len(sinks)} sinks"
        )
    if delta.kind == "move":
        assert delta.point is not None
        sinks[delta.sink_index] = delta.point
    elif delta.kind == "add":
        assert delta.point is not None
        sinks.append(delta.point)
    elif delta.kind == "remove":
        del sinks[delta.sink_index]
    elif delta.kind == "source":
        assert delta.point is not None
        source = delta.point
    return Net.from_points(source, sinks, name=net.name)


# ----------------------------------------------------------- text format


def format_delta(delta: NetDelta) -> str:
    """One replay-format line for ``delta`` (no trailing newline)."""
    if delta.kind == "blockage":
        assert delta.region is not None
        x0, y0, x1, y1 = delta.region
        return f"blockage {x0!r} {y0!r} {x1!r} {y1!r} {delta.scale!r}"
    if delta.kind == "move":
        assert delta.point is not None
        x, y = delta.point
        return f"move {delta.net} {delta.sink_index} {x!r} {y!r}"
    if delta.kind == "add":
        assert delta.point is not None
        x, y = delta.point
        return f"add {delta.net} {x!r} {y!r}"
    if delta.kind == "remove":
        return f"remove {delta.net} {delta.sink_index}"
    assert delta.point is not None
    x, y = delta.point
    return f"source {delta.net} {x!r} {y!r}"


def parse_deltas(fp: TextIO) -> Iterator[NetDelta]:
    """Yield deltas from an open ``.deltas`` text stream."""
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            kind = parts[0]
            if kind == "move":
                yield NetDelta(
                    "move",
                    net=parts[1],
                    sink_index=int(parts[2]),
                    point=(float(parts[3]), float(parts[4])),
                )
            elif kind == "add":
                yield NetDelta(
                    "add", net=parts[1], point=(float(parts[2]), float(parts[3]))
                )
            elif kind == "remove":
                yield NetDelta("remove", net=parts[1], sink_index=int(parts[2]))
            elif kind == "source":
                yield NetDelta(
                    "source",
                    net=parts[1],
                    point=(float(parts[2]), float(parts[3])),
                )
            elif kind == "blockage":
                yield NetDelta(
                    "blockage",
                    region=(
                        float(parts[1]),
                        float(parts[2]),
                        float(parts[3]),
                        float(parts[4]),
                    ),
                    scale=float(parts[5]),
                )
            else:
                raise SerializationError(
                    f"line {lineno}: unknown delta kind {kind!r}"
                )
        except (IndexError, ValueError) as exc:
            raise SerializationError(
                f"line {lineno}: malformed delta: {line!r}"
            ) from exc


def load_deltas(path: PathLike) -> List[NetDelta]:
    """Read every delta in a ``.deltas`` file."""
    with open(path, "r", encoding="utf-8") as fp:
        return list(parse_deltas(fp))


def dump_deltas(deltas: Iterable[NetDelta], fp: TextIO) -> int:
    """Write deltas to an open text file; returns how many were written."""
    count = 0
    for d in deltas:
        fp.write(format_delta(d) + "\n")
        count += 1
    return count


def save_deltas(deltas: Iterable[NetDelta], path: PathLike) -> int:
    """Write deltas to ``path``; returns how many were written."""
    with open(path, "w", encoding="utf-8") as fp:
        return dump_deltas(deltas, fp)


# ----------------------------------------------------------- wire codec


def delta_to_payload(delta: NetDelta) -> Dict[str, Any]:
    """JSON-safe wire form of ``delta`` (inverse of
    :func:`delta_from_payload`)."""
    payload: Dict[str, Any] = {"kind": delta.kind}
    if delta.net:
        payload["net"] = delta.net
    if delta.sink_index >= 0:
        payload["sink_index"] = delta.sink_index
    if delta.point is not None:
        payload["point"] = list(delta.point)
    if delta.region is not None:
        payload["region"] = list(delta.region)
        payload["scale"] = delta.scale
    return payload


def delta_from_payload(payload: Dict[str, Any]) -> NetDelta:
    """Decode a wire payload back into a :class:`NetDelta`.

    Raises :class:`~repro.exceptions.SerializationError` on missing or
    malformed fields (the daemon surfaces this as a typed error).
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise SerializationError(f"malformed delta payload: {payload!r}")
    try:
        point = payload.get("point")
        region = payload.get("region")
        return NetDelta(
            kind=str(payload["kind"]),
            net=str(payload.get("net", "")),
            sink_index=int(payload.get("sink_index", -1)),
            point=(float(point[0]), float(point[1])) if point else None,
            region=(
                (
                    float(region[0]),
                    float(region[1]),
                    float(region[2]),
                    float(region[3]),
                )
                if region
                else None
            ),
            scale=float(payload.get("scale", 0.0)),
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise SerializationError(
            f"malformed delta payload: {payload!r}"
        ) from exc


# ------------------------------------------------- perturbation generators


def _dw_signature(net: Net) -> Tuple[Any, ...]:
    """The Hanan-grid identity a :func:`grid_preserving_move` keeps.

    Captures everything a Pareto-DW subset front ``S[Q][v]`` depends on
    besides the sink subsets themselves: the Hanan coordinate lines
    (hence the distance matrix), the Lemma-2 surviving node set (corner
    pruning depends on the whole pin set), and whether Lemma 4 is
    globally active (``_boundary_order`` is all-or-nothing, and it
    decides split enumeration). Computed with the default pruning flags,
    matching what :func:`~repro.core.pareto_dw.pareto_dw` runs with.
    """
    from ..core.pareto_dw import _boundary_order
    from ..geometry.hanan import HananGrid

    grid = HananGrid.of_net(net)
    sink_nodes = grid.pin_nodes()[1:]
    corner = set(grid.corner_nodes())
    nodes = tuple(v for v in grid.nodes() if v not in corner)
    boundary = _boundary_order(grid, sink_nodes) is not None
    return (tuple(grid.xs), tuple(grid.ys), nodes, boundary)


def grid_preserving_move(
    net: Net, rng: random.Random
) -> Optional[NetDelta]:
    """A one-sink move that keeps the net's Hanan grid, or None.

    Tries rng-ordered (sink, Hanan-lattice vacancy) pairs and returns the
    first whose edited net has the same :func:`_dw_signature` as ``net``
    — same coordinate lines, same Lemma-2 survivors, same Lemma-4
    boundary flag. The signature check is explicit, not assumed:
    candidates that would drop a grid line or flip the boundary flag are
    rejected. Returns ``None`` when no such move exists (dense nets can
    pin every lattice point).
    """
    from ..geometry.hanan import HananGrid

    signature = _dw_signature(net)
    grid = HananGrid.of_net(net)
    occupied = {(p.x, p.y) for p in net.pins}
    vacancies = [
        (x, y) for x in grid.xs for y in grid.ys if (x, y) not in occupied
    ]
    rng.shuffle(vacancies)
    sink_order = list(range(len(net.sinks)))
    rng.shuffle(sink_order)
    for target in vacancies:
        for si in sink_order:
            delta = NetDelta("move", net=net.name, sink_index=si, point=target)
            if _dw_signature(apply_delta(net, delta)) == signature:
                return delta
    return None


def perturb_nets(
    nets: Sequence[Net],
    seed: int,
    kind: str = "move",
    count: int = 1,
    span: float = 1000.0,
    blockage_scale: float = 0.5,
) -> List[NetDelta]:
    """A deterministic stream of ``count`` deltas over ``nets``.

    ``kind`` selects the generator: ``"move"`` produces grid-preserving
    one-sink moves (falling back to an arbitrary in-span move when a net
    has no signature-preserving vacancy), ``"add"`` appends a random sink
    within ``span``, ``"remove"`` drops the last sink of a degree > 2
    net, and ``"blockage"`` emits random rectangles whose cell capacity
    is multiplied by ``blockage_scale``. Same ``(nets, seed, kind,
    count)`` — same stream, byte for byte.

    The stream is generated against the *evolving* design: each delta is
    produced from the nets as edited by every previous delta, so the
    whole stream replays cleanly in order (no stale sink indices, no
    pin collisions) and repeat edits of one net keep its Hanan grid.
    """
    if kind not in DELTA_KINDS or kind == "source":
        raise SerializationError(
            f"unsupported perturbation kind {kind!r}"
        )
    rng = random.Random(seed)
    names = [net.name for net in nets]
    current: Dict[str, Net] = {net.name: net for net in nets}
    if len(current) != len(nets):
        raise SerializationError("perturb_nets requires uniquely named nets")
    deltas: List[NetDelta] = []
    while len(deltas) < count:
        if kind == "blockage":
            x0 = rng.uniform(0.0, span * 0.8)
            y0 = rng.uniform(0.0, span * 0.8)
            deltas.append(
                NetDelta(
                    "blockage",
                    region=(x0, y0, x0 + span * 0.2, y0 + span * 0.2),
                    scale=blockage_scale,
                )
            )
            continue
        net = current[names[rng.randrange(len(names))]]
        if kind == "move":
            delta = grid_preserving_move(net, rng)
            if delta is None:
                occupied = {(p.x, p.y) for p in net.pins}
                target = (
                    float(rng.randrange(int(span) + 1)),
                    float(rng.randrange(int(span) + 1)),
                )
                if target in occupied:
                    continue
                delta = NetDelta(
                    "move",
                    net=net.name,
                    sink_index=rng.randrange(len(net.sinks)),
                    point=target,
                )
        elif kind == "add":
            occupied = {(p.x, p.y) for p in net.pins}
            target = (
                float(rng.randrange(int(span) + 1)),
                float(rng.randrange(int(span) + 1)),
            )
            if target in occupied:
                continue
            delta = NetDelta("add", net=net.name, point=target)
        else:  # remove
            if net.degree <= 2:
                continue
            delta = NetDelta(
                "remove", net=net.name, sink_index=len(net.sinks) - 1
            )
        current[net.name] = apply_delta(net, delta)
        deltas.append(delta)
    return deltas
