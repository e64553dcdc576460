"""Tests for the routing service (repro.serve): protocol and daemon."""

import os
import random
import signal
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import SerializationError
from repro.geometry.net import Net, random_net
from repro.obs import parse_prometheus_text, validate_exposition
from repro.serve import (
    METRICS_CONTENT_TYPE,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
)
from repro.serve.protocol import (
    decode_message,
    encode_message,
    net_from_payload,
    net_to_payload,
    result_front,
    result_to_payload,
)


class TestProtocol:
    def test_message_round_trip(self):
        msg = {"id": 7, "op": "route", "nets": [], "with_trees": True}
        assert decode_message(encode_message(msg)) == msg

    def test_decode_rejects_garbage(self):
        with pytest.raises(SerializationError):
            decode_message(b"not json\n")
        with pytest.raises(SerializationError):
            decode_message(b"[1, 2, 3]\n")

    def test_net_round_trip_is_exact(self):
        net = random_net(6, rng=random.Random(41), name="exact")
        back = net_from_payload(net_to_payload(net))
        assert back.name == net.name
        assert tuple((p.x, p.y) for p in back.pins) == tuple(
            (p.x, p.y) for p in net.pins
        )

    def test_net_payload_validation(self):
        with pytest.raises(SerializationError):
            net_from_payload({"name": "no-pins"})
        with pytest.raises(SerializationError):
            net_from_payload({"pins": []})
        with pytest.raises(SerializationError):
            net_from_payload({"pins": [["x", "y"]]})

    def test_result_round_trip_with_trees(self):
        from repro.core.patlabor import PatLabor

        net = random_net(5, rng=random.Random(42))
        front = PatLabor().route(net)
        payload = result_to_payload(net.name, front, "routed", with_trees=True)
        back = result_front(payload, net)
        assert [(w, d) for w, d, _ in back] == [(w, d) for w, d, _ in front]
        for (_w, _d, tree), (_w2, _d2, orig) in zip(back, front):
            tree.validate()
            assert tuple((p.x, p.y) for p in tree.points) == tuple(
                (p.x, p.y) for p in orig.points
            )

    def test_result_front_without_net_drops_trees(self):
        payload = {"front": [[1.0, 2.0]], "trees": [{"points": [], "parent": []}]}
        assert result_front(payload) == [(1.0, 2.0, None)]


@pytest.fixture(scope="module")
def serve_dir():
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        yield Path(tmp)


@pytest.fixture(scope="module")
def daemon(serve_dir):
    """One shared daemon on TCP + Unix socket with a persistent store."""
    config = ServeConfig(
        socket_path=str(serve_dir / "serve.sock"),
        host="127.0.0.1",
        port=0,
        workers=2,
        store_path=str(serve_dir / "store.sqlite"),
    )
    with ServerThread(config) as handle:
        yield handle.server


def _client(daemon):
    return ServeClient(host="127.0.0.1", port=daemon.tcp_port)


class TestDaemon:
    def test_ping_over_tcp_and_unix(self, daemon):
        with _client(daemon) as tcp:
            assert tcp.ping()
        with ServeClient(socket_path=daemon.config.socket_path) as unix:
            assert unix.ping()

    def test_route_batch_in_order(self, daemon):
        nets = [
            random_net(4 + i % 3, rng=random.Random(50 + i), name=f"n{i}")
            for i in range(6)
        ]
        with _client(daemon) as client:
            results = client.route(nets)
        assert [name for name, _ in results] == [n.name for n in nets]
        for _name, front in results:
            assert front
            # Fronts arrive sorted by wirelength (engine contract).
            assert [w for w, _d, _t in front] == sorted(
                w for w, _d, _t in front
            )

    def test_repeats_are_served_warm_and_bit_identical(self, daemon):
        net = random_net(5, rng=random.Random(60), name="warmme")
        with _client(daemon) as client:
            first = client.route([net], with_trees=True)
            second = client.route([net], with_trees=True)
            tiers = list(client.route_tiers([net]))
        assert tiers == ["memory"] or tiers == ["store"]
        (name1, front1), (name2, front2) = first[0], second[0]
        assert name1 == name2 == "warmme"
        for (w1, d1, t1), (w2, d2, t2) in zip(front1, front2):
            assert (w1, d1) == (w2, d2)
            t1.validate()
            t2.validate()
            assert tuple((p.x, p.y) for p in t1.points) == tuple(
                (p.x, p.y) for p in t2.points
            )
            assert tuple(t1.parent) == tuple(t2.parent)

    def test_dihedral_image_is_warm(self, daemon):
        net = random_net(5, rng=random.Random(61), name="base")
        mirrored = Net(
            pins=tuple((-p.x, p.y) for p in net.pins),  # type: ignore[arg-type]
            name="mirrored",
        )
        with _client(daemon) as client:
            client.route([net])
            base = dict(client.route([net]))["base"]
            served = dict(client.route([mirrored]))["mirrored"]
        assert [(w, d) for w, d, _ in served] == [(w, d) for w, d, _ in base]

    def test_stats_shape_and_rates(self, daemon):
        with _client(daemon) as client:
            client.route([random_net(4, rng=random.Random(62), name="s0")])
            stats = client.stats()
        for field in (
            "requests", "nets", "requests_per_second", "nets_per_second",
            "served_memory", "served_store", "served_routed",
            "warm_hit_rate", "store_hit_rate", "queue_depth_max",
        ):
            assert field in stats
        assert stats["nets"] >= 1 and stats["requests"] >= 2
        assert stats["queue_depth"] == 0
        assert 0.0 <= stats["warm_hit_rate"] <= 1.0

    def test_unknown_op_is_an_error_response(self, daemon):
        with _client(daemon) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.request("frobnicate")
            assert client.ping()  # connection survives the error

    def test_malformed_route_requests(self, daemon):
        with _client(daemon) as client:
            with pytest.raises(ServeError, match="nets"):
                client.request("route")
            with pytest.raises(ServeError, match="nets"):
                client.request("route", nets=[])
            with pytest.raises(ServeError, match="pins"):
                client.request("route", nets=[{"name": "pinless"}])
            with pytest.raises(ServeError):
                # One pin: geometrically invalid, rejected by validation.
                client.request("route", nets=[{"pins": [[0, 0]]}])
            assert client.ping()

    def test_errors_do_not_poison_later_requests(self, daemon):
        with _client(daemon) as client:
            with pytest.raises(ServeError):
                client.request("route", nets=[{"pins": [[0, 0]]}])
            results = client.route(
                [random_net(4, rng=random.Random(63), name="after")]
            )
        assert results[0][1]


class TestRouteSelect:
    """The frontier point-selection hook over the wire."""

    def test_chosen_index_matches_policy_worker_side(self, daemon):
        nets = [
            random_net(4 + i % 3, rng=random.Random(70 + i), name=f"s{i}")
            for i in range(4)
        ]
        with _client(daemon) as client:
            plain = dict(client.route(nets))
            for policy, pick in (
                ("min_wirelength", lambda f: min(range(len(f)),
                                                 key=lambda k: (f[k][0], f[k][1]))),
                ("min_delay", lambda f: min(range(len(f)),
                                            key=lambda k: (f[k][1], f[k][0]))),
            ):
                for name, front, chosen in client.route_select(nets, policy):
                    assert 0 <= chosen < len(front)
                    # The daemon's selection agrees with a local replay
                    # of the same policy over the same front.
                    assert chosen == pick(front)
                    assert [(w, d) for w, d, _t in front] == [
                        (w, d) for w, d, _t in plain[name]
                    ]

    def test_select_with_trees_marks_choosable_tree(self, daemon):
        net = random_net(5, rng=random.Random(80), name="seltree")
        with _client(daemon) as client:
            [(name, front, chosen)] = client.route_select(
                [net], "budget:0.25", with_trees=True
            )
        assert name == net.name
        tree = front[chosen][2]
        assert tree is not None
        tree.validate()

    def test_plain_route_carries_no_chosen_field(self, daemon):
        net = random_net(4, rng=random.Random(81), name="nochoose")
        with _client(daemon) as client:
            response = client.request("route", nets=[net_to_payload(net)])
        assert "chosen" not in response["results"][0]

    def test_bad_policy_is_one_error_response(self, daemon):
        net = random_net(4, rng=random.Random(82), name="badpolicy")
        with _client(daemon) as client:
            with pytest.raises(ServeError, match="point policy"):
                client.route_select([net], "frobnicate")
            with pytest.raises(ServeError, match="string"):
                client.request(
                    "route", nets=[net_to_payload(net)], select=7
                )
            assert client.ping()  # connection survives both errors


@pytest.fixture(scope="module")
def telemetry_daemon(serve_dir):
    """A daemon with the HTTP telemetry sidecar on an ephemeral port."""
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        workers=2,
        store_path=str(serve_dir / "telemetry.sqlite"),
        metrics_port=0,
    )
    with ServerThread(config) as handle:
        yield handle.server


def _metrics_url(daemon, path="/metrics"):
    return f"http://127.0.0.1:{daemon.metrics_port}{path}"


def _http_get(url, timeout=10.0):
    """(status, body, content_type) for a GET, without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode(), response.headers.get(
                "Content-Type", ""
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers.get("Content-Type", "")


def _wait_ready(daemon, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _body, _ctype = _http_get(_metrics_url(daemon, "/readyz"))
        if status == 200:
            return
        time.sleep(0.05)
    raise TimeoutError("daemon never became ready")


class TestTelemetryEndpoint:
    def test_healthz_answers_immediately(self, telemetry_daemon):
        status, body, _ctype = _http_get(_metrics_url(telemetry_daemon, "/healthz"))
        assert status == 200
        assert body == "ok\n"

    def test_readyz_flips_after_pool_warmup(self, telemetry_daemon):
        # Ready means: every worker built its engine and attached the store.
        _wait_ready(telemetry_daemon)
        status, body, _ctype = _http_get(_metrics_url(telemetry_daemon, "/readyz"))
        assert status == 200 and body == "ready\n"
        assert telemetry_daemon.ready is True

    def test_unknown_path_is_404_and_post_is_405(self, telemetry_daemon):
        status, _body, _ctype = _http_get(_metrics_url(telemetry_daemon, "/nope"))
        assert status == 404
        request = urllib.request.Request(
            _metrics_url(telemetry_daemon), data=b"x", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                status = response.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 405

    def test_metrics_is_valid_exposition(self, telemetry_daemon):
        _wait_ready(telemetry_daemon)
        with ServeClient(host="127.0.0.1", port=telemetry_daemon.tcp_port) as c:
            c.route([random_net(4, rng=random.Random(70), name="m0")])
        status, text, ctype = _http_get(_metrics_url(telemetry_daemon))
        assert status == 200
        assert ctype == METRICS_CONTENT_TYPE
        assert validate_exposition(text) == []
        expo = parse_prometheus_text(text)
        assert expo.value("repro_serve_ready") == 1.0
        assert expo.types["repro_serve_request_seconds"] == "histogram"

    def test_merged_tier_counts_equal_request_total(self, telemetry_daemon):
        """The acceptance criterion: per-tier histogram counts, merged,
        equal the daemon's total net count — the associative fold of the
        worker-measured durations loses nothing."""
        _wait_ready(telemetry_daemon)
        nets = [
            random_net(4 + i % 2, rng=random.Random(80 + i), name=f"t{i}")
            for i in range(5)
        ]
        with ServeClient(host="127.0.0.1", port=telemetry_daemon.tcp_port) as c:
            c.route(nets)
            c.route(nets)  # second pass lands in a warm tier
        _status, text, _ctype = _http_get(_metrics_url(telemetry_daemon))
        expo = parse_prometheus_text(text)
        nets_total = expo.value("repro_serve_nets_total")
        assert nets_total is not None and nets_total >= 10
        merged_inf = dict(
            (le, v) for le, _labels, v in expo.buckets("repro_serve_net_seconds")
        )["+Inf"]
        assert merged_inf == nets_total
        per_tier = sum(
            expo.value(f"repro_serve_net_seconds_{tier}_count") or 0.0
            for tier in ("memory", "store", "routed")
        )
        assert per_tier == nets_total

    def test_request_id_rides_response_and_results(self, telemetry_daemon):
        nets = [
            random_net(4, rng=random.Random(90 + i), name=f"r{i}")
            for i in range(3)
        ]
        from repro.serve.protocol import net_to_payload

        with ServeClient(host="127.0.0.1", port=telemetry_daemon.tcp_port) as c:
            response = c.request(
                "route", nets=[net_to_payload(n) for n in nets]
            )
        request_id = response["request_id"]
        assert request_id.startswith(telemetry_daemon.instance + "-")
        for result in response["results"]:
            assert result["request_id"] == request_id
            assert result["seconds"] >= 0.0

    def test_request_ids_disjoint_across_daemon_restarts(self, serve_dir):
        """Ids survive worker/daemon restarts without colliding: each
        incarnation prefixes its sequence with a fresh instance token."""
        from repro.serve.protocol import net_to_payload

        ids = []
        for _ in range(2):
            config = ServeConfig(host="127.0.0.1", port=0, workers=1)
            with ServerThread(config) as handle:
                with ServeClient(
                    host="127.0.0.1", port=handle.server.tcp_port
                ) as c:
                    net = random_net(4, rng=random.Random(91), name="same")
                    response = c.request("route", nets=[net_to_payload(net)])
                    ids.append(response["request_id"])
        assert ids[0] != ids[1]
        assert ids[0].split("-")[0] != ids[1].split("-")[0]

    def test_stats_reports_latency_and_slow_requests(self, telemetry_daemon):
        with ServeClient(host="127.0.0.1", port=telemetry_daemon.tcp_port) as c:
            c.route([random_net(4, rng=random.Random(92), name="lat")])
            stats = c.stats()
        assert stats["ready"] in (True, False)
        assert "slow_requests" in stats
        latency = stats["latency_ms"]
        assert set(latency) == {"request", "memory", "store", "routed"}
        assert latency["request"]["count"] >= 1
        assert latency["request"]["p50_ms"] > 0.0

    def test_slow_request_accounting(self, serve_dir):
        config = ServeConfig(
            host="127.0.0.1", port=0, workers=1, slow_request_seconds=0.0
        )
        with ServerThread(config) as handle:
            with ServeClient(
                host="127.0.0.1", port=handle.server.tcp_port
            ) as c:
                c.route([random_net(4, rng=random.Random(93), name="slow")])
                stats = c.stats()
        assert stats["slow_requests"] >= 1

    def test_fronts_bit_identical_with_telemetry_on_and_off(self, serve_dir):
        """Telemetry must observe, never perturb: identical fronts and
        trees whether the sidecar + worker telemetry is on or off."""
        nets = [
            random_net(5 + i % 2, rng=random.Random(94 + i), name=f"b{i}")
            for i in range(4)
        ]
        fronts = []
        for telemetry in (False, True):
            config = ServeConfig(
                host="127.0.0.1",
                port=0,
                workers=1,
                telemetry=telemetry,
                metrics_port=0 if telemetry else None,
            )
            with ServerThread(config) as handle:
                with ServeClient(
                    host="127.0.0.1", port=handle.server.tcp_port
                ) as c:
                    fronts.append(c.route(nets, with_trees=True))
        for (name_off, front_off), (name_on, front_on) in zip(*fronts):
            assert name_off == name_on
            assert [(w, d) for w, d, _ in front_off] == [
                (w, d) for w, d, _ in front_on
            ]
            for (_w, _d, t_off), (_w2, _d2, t_on) in zip(front_off, front_on):
                assert tuple((p.x, p.y) for p in t_off.points) == tuple(
                    (p.x, p.y) for p in t_on.points
                )
                assert tuple(t_off.parent) == tuple(t_on.parent)


class TestDaemonLifecycle:
    def test_shutdown_op_stops_the_server(self, serve_dir):
        config = ServeConfig(host="127.0.0.1", port=0, workers=1)
        handle = ServerThread(config).start()
        with ServeClient(host="127.0.0.1", port=handle.server.tcp_port) as c:
            c.shutdown()
        handle._thread.join(30)
        assert not handle._thread.is_alive()

    def test_dead_worker_clears_readiness(self):
        config = ServeConfig(host="127.0.0.1", port=0, workers=1, metrics_port=0)
        with ServerThread(config) as handle:
            daemon = handle.server
            _wait_ready(daemon)
            os.kill(daemon.worker_info[0]["pid"], signal.SIGKILL)
            net = random_net(5, rng=random.Random(65), name="orphan")
            with ServeClient(host="127.0.0.1", port=daemon.tcp_port) as c:
                with pytest.raises(ServeError, match="worker pool died"):
                    c.route([net])
                assert c.stats()["ready"] is False
            status, body, _ctype = _http_get(_metrics_url(daemon, "/readyz"))
            assert (status, body) == (503, "not ready\n")

    def test_config_requires_an_endpoint(self):
        from repro.serve import RouteServer

        with pytest.raises(ValueError, match="socket_path"):
            RouteServer(ServeConfig())

    def test_client_requires_exactly_one_endpoint(self):
        with pytest.raises(ValueError):
            ServeClient()
        with pytest.raises(ValueError):
            ServeClient(socket_path="/tmp/x.sock", host="127.0.0.1", port=1)

    def test_store_survives_daemon_restart(self, serve_dir):
        store = serve_dir / "restart.sqlite"
        net = random_net(5, rng=random.Random(64), name="persist")
        config = ServeConfig(
            host="127.0.0.1", port=0, workers=1, store_path=str(store)
        )
        with ServerThread(config) as first:
            with ServeClient(host="127.0.0.1", port=first.server.tcp_port) as c:
                c.route([net])
        assert store.exists()
        with ServerThread(config) as second:
            with ServeClient(host="127.0.0.1", port=second.server.tcp_port) as c:
                tiers = list(c.route_tiers([net]))
        assert tiers == ["store"]


class TestWorkerSpec:
    def test_default_is_patlabor_with_shipped_lut_behind_symmetry_cache(self):
        from repro.core.cache import CachedRouter
        from repro.core.patlabor import PatLabor
        from repro.lut.default import default_table
        from repro.serve import WorkerSpec

        layer = WorkerSpec().build()
        while not isinstance(layer, CachedRouter):
            layer = layer.inner
        assert layer.canonicalize == "symmetry"
        assert layer.max_entries == 100_000
        router = layer.inner
        while not isinstance(router, PatLabor):
            router = router.inner
        assert router.lut is default_table()

    def test_pickled_spec_carries_no_table(self):
        import pickle

        from repro.serve import WorkerSpec

        data = pickle.dumps(WorkerSpec())
        assert b"LookupTable" not in data
        assert len(data) < 2048
        assert pickle.loads(data) == WorkerSpec()


def _wait_pool_ready(server, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not server.ready:
        if time.monotonic() > deadline:
            raise TimeoutError("pool never became ready")
        time.sleep(0.02)


class TestWorkerPoolTelemetry:
    def test_forked_workers_do_not_re_report_parent_metrics(self):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            obs.counter_add("probe.parent_only", 5)
            config = ServeConfig(
                host="127.0.0.1", port=0, workers=1, telemetry=True
            )
            with ServerThread(config) as handle:
                with ServeClient(
                    host="127.0.0.1", port=handle.server.tcp_port
                ) as c:
                    c.route([random_net(4, rng=random.Random(96), name="p")])
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["probe.parent_only"] == 5
        assert counters["serve.nets"] == 1

    def test_broadcasts_reach_every_worker_exactly_once(self):
        """Readiness probes and telemetry drains each hit both workers:
        two distinct pids answer, and every routed net's worker-side
        sample is merged exactly once (several starts, since a broadcast
        landing twice on one worker depends on scheduling)."""
        from repro import obs

        nets = [
            random_net(4 + i % 3, rng=random.Random(300 + i), name=f"x{i}")
            for i in range(12)
        ]
        obs.reset()
        try:
            for _ in range(3):
                config = ServeConfig(
                    host="127.0.0.1", port=0, workers=2, telemetry=True
                )
                with ServerThread(config) as handle:
                    _wait_pool_ready(handle.server)
                    pids = [w["pid"] for w in handle.server.worker_info]
                    with ServeClient(
                        host="127.0.0.1", port=handle.server.tcp_port
                    ) as c:
                        c.route(nets)
                timers = obs.get_registry().timers
                merged = timers["serve.worker_net_seconds"].count
                obs.reset()
                assert len(pids) == 2 and len(set(pids)) == 2
                assert merged == len(nets)
        finally:
            obs.reset()
