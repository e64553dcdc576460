"""A small synchronous client for the routing daemon.

Speaks the JSON-line protocol of :mod:`repro.serve.server` over a Unix
socket or TCP. One connection, blocking request/response — the shape CLI
tools, tests, and the benchmark harness want; high-fan-out callers can
open several clients (the daemon multiplexes connections).

Usage::

    from repro.serve.client import ServeClient

    with ServeClient(socket_path="/tmp/patlabor.sock") as client:
        client.ping()
        results = client.route(nets)           # [(name, [(w, d, None)...])]
        print(client.stats()["requests_per_second"])
"""

from __future__ import annotations

import socket
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.pareto import Solution
from ..exceptions import ProtocolVersionError, ReproError, SerializationError
from ..geometry.net import Net
from .protocol import (
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    net_to_payload,
    result_front,
)

if TYPE_CHECKING:
    from ..incremental.delta import NetDelta

#: One routed net as returned by :meth:`ServeClient.route`.
RoutedNet = Tuple[str, List[Solution]]

#: One routed net plus its policy-chosen frontier index
#: (:meth:`ServeClient.route_select`).
SelectedNet = Tuple[str, List[Solution], int]


class ServeError(ReproError):
    """An ``ok: false`` response (or a broken connection) from the daemon."""


class ServeClient:
    """Blocking JSON-line client for one :class:`~repro.serve.server.RouteServer`.

    Parameters
    ----------
    socket_path:
        Unix socket endpoint (mutually exclusive with ``host``).
    host / port:
        TCP endpoint.
    timeout:
        Per-response socket timeout in seconds.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 120.0,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError("pass exactly one of socket_path or host/port")
        self._sock: socket.socket
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            if port is None:
                raise ValueError("TCP endpoint needs a port")
            self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fp = self._sock.makefile("rwb")
        self._next_id = 0

    # ------------------------------------------------------------ transport

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; block for (and validate) its response.

        Every request declares this build's :data:`PROTOCOL_VERSION` as
        its ``"v"`` field. Failure responses whose ``error_type`` is
        ``ProtocolVersionError`` re-raise as the typed
        :class:`~repro.exceptions.ProtocolVersionError` (a
        client/daemon version skew the caller can act on); everything
        else raises :class:`ServeError`.
        """
        self._next_id += 1
        message: Dict[str, Any] = {
            "id": self._next_id,
            "op": op,
            "v": PROTOCOL_VERSION,
        }
        message.update(fields)
        self._fp.write(encode_message(message))
        self._fp.flush()
        line = self._fp.readline()
        if not line:
            raise ServeError("connection closed by server")
        try:
            response = decode_message(line)
        except SerializationError as exc:
            raise ServeError(f"undecodable response: {exc}") from exc
        if response.get("id") != message["id"]:
            raise ServeError(
                f"response id {response.get('id')!r} does not match "
                f"request id {message['id']}"
            )
        if not response.get("ok"):
            error = str(response.get("error", "unknown server error"))
            if response.get("error_type") == "ProtocolVersionError":
                raise ProtocolVersionError(error)
            raise ServeError(error)
        return response

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._fp.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ ops

    def ping(self) -> bool:
        """True when the daemon answers."""
        return bool(self.request("ping").get("pong"))

    def route(
        self, nets: Sequence[Net], *, with_trees: bool = False
    ) -> List[RoutedNet]:
        """Route ``nets`` in one batched request; results in input order.

        Each result is ``(name, [(w, d, tree_or_None), ...])``; trees are
        materialised only when ``with_trees`` is set (they ride the wire
        as point/parent arrays and validate against the query net).
        """
        response = self.request(
            "route",
            nets=[net_to_payload(n) for n in nets],
            with_trees=with_trees,
        )
        results = response.get("results", [])
        if len(results) != len(nets):
            raise ServeError(
                f"server answered {len(results)} results for {len(nets)} nets"
            )
        out: List[RoutedNet] = []
        for net, payload in zip(nets, results):
            front = result_front(payload, net if with_trees else None)
            out.append((str(payload.get("name", net.name)), front))
        return out

    def route_select(
        self,
        nets: Sequence[Net],
        policy: str,
        *,
        with_trees: bool = False,
    ) -> List[SelectedNet]:
        """Route ``nets`` and let the daemon pick one frontier point each.

        ``policy`` is a point-policy spec (``min_wirelength`` /
        ``min_delay`` / ``knee`` / ``budget:<slack>`` — see
        :func:`repro.engine.resolve_point_policy`); selection runs inside
        the worker, so callers that only want one tree per net get its
        index without shipping the whole front through any extra hop.
        Each result is ``(name, front, chosen_index)``.
        """
        response = self.request(
            "route",
            nets=[net_to_payload(n) for n in nets],
            with_trees=with_trees,
            select=policy,
        )
        results = response.get("results", [])
        if len(results) != len(nets):
            raise ServeError(
                f"server answered {len(results)} results for {len(nets)} nets"
            )
        out: List[SelectedNet] = []
        for net, payload in zip(nets, results):
            front = result_front(payload, net if with_trees else None)
            chosen = payload.get("chosen")
            if not isinstance(chosen, int):
                raise ServeError(
                    f"server result for {net.name!r} carries no chosen index"
                )
            out.append((str(payload.get("name", net.name)), front, chosen))
        return out

    def route_tiers(self, nets: Sequence[Net]) -> Iterator[str]:
        """The serving tier (``memory``/``store``/``routed``) per net."""
        response = self.request(
            "route", nets=[net_to_payload(n) for n in nets]
        )
        for payload in response.get("results", []):
            yield str(payload.get("served", "routed"))

    def eco_seed(
        self,
        session: str,
        nets: Sequence[Net],
        *,
        with_trees: bool = False,
    ) -> List[RoutedNet]:
        """Route and *track* ``nets`` in a daemon-held ECO session.

        Creates the session on first touch (the daemon caps concurrent
        sessions) and registers every named net for later
        :meth:`eco_apply` edits. Requires protocol v2 — older daemons
        answer with :class:`~repro.exceptions.ProtocolVersionError`.
        Results follow :meth:`route`'s shape.
        """
        response = self.request(
            "eco",
            session=session,
            nets=[net_to_payload(n) for n in nets],
            with_trees=with_trees,
        )
        results = response.get("results", [])
        if len(results) != len(nets):
            raise ServeError(
                f"server answered {len(results)} results for {len(nets)} nets"
            )
        out: List[RoutedNet] = []
        for net, payload in zip(nets, results):
            front = result_front(payload, net if with_trees else None)
            out.append((str(payload.get("name", net.name)), front))
        return out

    def eco_apply(
        self,
        session: str,
        delta: "NetDelta",
        *,
        with_trees: bool = False,
        net: Optional[Net] = None,
    ) -> Dict[str, Any]:
        """Apply one :class:`~repro.incremental.delta.NetDelta` to a session.

        Returns the daemon's account of the edit — ``kind``, ``tier``,
        ``cache_hit``, ``seconds`` — plus, for net edits, ``name`` and
        the decoded ``front``. Trees are materialised only when
        ``with_trees`` is set *and* the post-edit ``net`` is supplied
        (tree validation needs the pin frame; compute it client-side
        with :func:`repro.incremental.delta.apply_delta`).
        """
        from ..incremental.delta import delta_to_payload

        response = self.request(
            "eco",
            session=session,
            delta=delta_to_payload(delta),
            with_trees=with_trees,
        )
        out = {
            key: response.get(key)
            for key in ("kind", "tier", "cache_hit", "seconds")
        }
        result = response.get("result")
        if result is not None:
            out["name"] = str(result.get("name", ""))
            out["front"] = result_front(result, net if with_trees else None)
        return out

    def stats(self) -> Dict[str, Any]:
        """The daemon's live throughput/cache statistics.

        Includes ``ready`` (the ``/readyz`` verdict), ``slow_requests``,
        and ``latency_ms`` — per-request and per-tier latency-histogram
        summaries (count, mean, p50/p95/p99 in milliseconds).
        """
        return dict(self.request("stats").get("stats", {}))

    def shutdown(self) -> None:
        """Ask the daemon to stop (the response confirms it is stopping)."""
        self.request("shutdown")
