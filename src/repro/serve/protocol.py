"""Wire format of the routing service: newline-delimited JSON messages.

One request or response per line, UTF-8 JSON — trivially debuggable with
``socat`` / ``nc`` and language-agnostic. Floats ride JSON's
``repr``-round-tripping encoder, so objectives and tree coordinates cross
the wire bit-identically (the same exactness contract as the persistent
cache tier; see ``docs/numerics.md``).

Requests (client → server)::

    {"id": 1, "op": "ping", "v": 2}
    {"id": 2, "op": "route", "v": 2, "nets": [NET, ...],
     "with_trees": false, "select": "min_delay"?}
    {"id": 3, "op": "stats", "v": 2}
    {"id": 4, "op": "shutdown", "v": 2}
    {"id": 5, "op": "eco", "v": 2, "session": "s1", "nets": [NET, ...]}
    {"id": 6, "op": "eco", "v": 2, "session": "s1", "delta": DELTA,
     "with_trees": false}

``"v"`` is the client's wire-protocol version (:data:`PROTOCOL_VERSION`
when emitted by :class:`~repro.serve.client.ServeClient`). Absent means
version 1 — every v1 op still works unversioned, but ops introduced
later (``eco`` needs :data:`MIN_VERSIONS`\\ ``["eco"]`` = 2) are
rejected with a typed
:class:`~repro.exceptions.ProtocolVersionError` so old clients get a
clear upgrade message instead of a field-shape crash.

The ``eco`` op speaks to a server-held incremental session: the
``nets`` form routes and *tracks* the nets (creating the session), the
``delta`` form applies one ``DELTA``
(:func:`repro.incremental.delta.delta_to_payload` wire shape) and
returns the re-routed result with its tier and time.

where ``NET`` is ``{"name": str, "pins": [[x, y], ...]}`` with the source
at index 0 — exactly :class:`~repro.geometry.net.Net`'s pin convention.
``select`` (optional) is a frontier point-policy spec resolved by
:func:`repro.engine.resolve_point_policy` (``min_wirelength`` /
``min_delay`` / ``knee`` / ``budget:<slack>``); the policy runs inside
the worker — the same selection hook the congestion negotiator uses —
and the chosen index rides each result back as ``"chosen"``.

Responses (server → client) echo the ``id`` and carry ``"ok"``::

    {"id": 2, "ok": true, "request_id": "ab12cd34-7",
     "results": [RESULT, ...]}
    {"id": 3, "ok": true, "stats": {...}}
    {"id": 9, "ok": false, "error": "why"}

``RESULT`` is ``{"name", "front": [[w, d], ...], "served", "seconds",
"request_id"?, "chosen"?, "trees"?}``: ``served`` tags the tier that produced the
front (``"memory"`` / ``"store"`` / ``"routed"``), ``seconds`` is the
worker-measured wall time the daemon folds into its per-tier latency
histograms, and ``trees`` (only when requested) holds ``{"points":
[[x, y], ...], "parent": [...]}`` per solution. ``request_id`` — both at
the response top level and per result — is the **daemon-assigned** trace
identity (instance token + sequence, so ids stay disjoint across daemon
restarts); it is distinct from the client-chosen ``id`` echo and joins
the response to the request's spans, ``net_routed`` events, and
``slow_request`` log records. The ``stats`` payload includes ``ready``
(the ``/readyz`` verdict) and ``latency_ms`` per-tier histogram
summaries.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from ..core.pareto import Solution
from ..exceptions import ProtocolVersionError, SerializationError
from ..geometry.net import Net
from ..routing.tree import RoutingTree

#: Operations a server understands; anything else is rejected politely.
KNOWN_OPS = ("ping", "route", "stats", "shutdown", "eco")

#: Wire-protocol version this build speaks. History: 1 — ping / route /
#: stats / shutdown; 2 — adds the ``eco`` op and the ``error_type``
#: field on failure responses.
PROTOCOL_VERSION = 2

#: Minimum protocol version a request must declare per gated op.
#: Ops absent here work at any version (including unversioned v1).
MIN_VERSIONS: Dict[str, int] = {"eco": 2}

#: Hard cap on nets per single route request (a DoS guard, not a batching
#: hint — clients may send many requests back to back on one connection).
MAX_NETS_PER_REQUEST = 10_000


def check_version(message: Dict[str, Any], op: str) -> None:
    """Reject ``message`` when ``op`` needs a newer declared version.

    The declared version is the integer ``"v"`` field, defaulting to 1
    (pre-versioning clients). Raises
    :class:`~repro.exceptions.ProtocolVersionError` with an upgrade
    message when the op's :data:`MIN_VERSIONS` entry is not met.
    """
    needed = MIN_VERSIONS.get(op)
    if needed is None:
        return
    raw = message.get("v", 1)
    try:
        declared = int(raw)
    except (TypeError, ValueError):
        raise ProtocolVersionError(
            f"request field 'v' must be an integer, got {raw!r}"
        ) from None
    if declared < needed:
        raise ProtocolVersionError(
            f"op {op!r} requires protocol version >= {needed}, but the "
            f"request declared {declared}; upgrade the client (this "
            f"daemon speaks version {PROTOCOL_VERSION})"
        )


def encode_message(obj: Dict[str, Any]) -> bytes:
    """Serialise one message to its wire form (JSON line, UTF-8)."""
    return (json.dumps(obj) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line back into a message dict.

    Raises :class:`~repro.exceptions.SerializationError` on anything that
    is not a single JSON object — the server turns that into an ``ok:
    false`` response instead of dying.
    """
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"undecodable message: {exc}") from exc
    if not isinstance(obj, dict):
        raise SerializationError(
            f"message must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def net_to_payload(net: Net) -> Dict[str, Any]:
    """One net as its wire payload (source first, like ``Net.pins``)."""
    return {"name": net.name, "pins": [[p.x, p.y] for p in net.pins]}


def net_from_payload(payload: Dict[str, Any]) -> Net:
    """Rebuild a :class:`~repro.geometry.net.Net` from its wire payload.

    Raises :class:`~repro.exceptions.SerializationError` on malformed
    payloads (missing pins, non-numeric coordinates); geometric
    validation (degree, duplicates, finiteness) is Net's own and
    surfaces as :class:`~repro.exceptions.InvalidNetError`.
    """
    if not isinstance(payload, dict) or "pins" not in payload:
        raise SerializationError(f"net payload needs 'pins': {payload!r}")
    pins = payload["pins"]
    if not isinstance(pins, list) or not pins:
        raise SerializationError("net payload 'pins' must be a non-empty list")
    try:
        points = tuple((float(x), float(y)) for x, y in pins)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed pin in {pins!r}") from exc
    return Net(pins=points, name=str(payload.get("name", "")))  # type: ignore[arg-type]


def tree_to_payload(tree: RoutingTree) -> Dict[str, Any]:
    """One routing tree as its wire payload (points + parent array)."""
    return {
        "points": [[p.x, p.y] for p in tree.points],
        "parent": list(tree.parent),
    }


def tree_from_payload(net: Net, payload: Dict[str, Any]) -> RoutingTree:
    """Rebuild (and validate) a tree for ``net`` from its wire payload."""
    return RoutingTree.from_parent(net, payload["points"], payload["parent"])


def result_to_payload(
    name: str,
    front: Sequence[Solution],
    served: str,
    *,
    with_trees: bool = False,
) -> Dict[str, Any]:
    """One routed net's response entry (objectives, tier, optional trees)."""
    out: Dict[str, Any] = {
        "name": name,
        "served": served,
        "front": [[w, d] for w, d, _tree in front],
    }
    if with_trees:
        out["trees"] = [
            tree_to_payload(tree) if tree is not None else None
            for _w, _d, tree in front
        ]
    return out


def result_front(
    payload: Dict[str, Any], net: Optional[Net] = None
) -> List[Solution]:
    """Decode a response entry back into ``(w, d, tree_or_None)`` triples.

    Trees are only rebuilt when the payload carries them *and* the
    matching ``net`` is supplied (tree validation needs the pin frame).
    """
    if net is None or not payload.get("trees"):
        return [(float(w), float(d), None) for w, d in payload["front"]]
    trees = [
        tree_from_payload(net, t) if t is not None else None
        for t in payload["trees"]
    ]
    return [
        (float(w), float(d), tree) for (w, d), tree in zip(payload["front"], trees)
    ]
