"""End-to-end smoke check of the routing daemon (CI's serve job).

``python -m repro.serve.smoke`` exercises the whole service path the way
a deployment would: start ``repro serve`` as a real subprocess on a Unix
socket with a fresh persistent store and the HTTP telemetry sidecar,
route a small workload containing repeats over the socket, assert a warm
hit rate above zero, run one ``eco`` session end to end (seed nets,
apply a pin-move delta, check its tier and the protocol-v2
version gate), then check the sidecar — ``/healthz`` answers,
``/readyz`` reports ready, and ``/metrics`` serves a **structurally
valid** Prometheus exposition (``validate_exposition``) whose merged
per-tier histogram counts equal the daemon's net total — and shut the
daemon down cleanly (exit code 0). Any failed step exits non-zero with a
diagnostic, so CI catches daemon bit-rot without the full benchmark.
"""

from __future__ import annotations

import random
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Optional, Tuple

from ..geometry.net import Net, random_net
from ..incremental.delta import perturb_nets
from ..obs import parse_prometheus_text, validate_exposition
from .client import ServeClient, ServeError

#: Unique patterns in the smoke workload; each is queried twice (the
#: second pass must be served warm).
UNIQUE_NETS = 5

#: Fixed sidecar port for the smoke daemon (CI curls it too).
METRICS_PORT = 9109


def _workload() -> List[Net]:
    """Ten nets: five unique degree-4..6 patterns, each repeated once."""
    rng = random.Random(2025)
    unique = [
        random_net(4 + i % 3, rng=rng, name=f"smoke{i}")
        for i in range(UNIQUE_NETS)
    ]
    repeats = [
        Net(pins=n.pins, name=f"{n.name}/again") for n in unique
    ]
    return unique + repeats


def _wait_for_socket(path: str, proc: subprocess.Popen, timeout: float = 60.0) -> ServeClient:
    """Poll until the daemon accepts connections (or its process dies)."""
    deadline = time.time() + timeout
    last_error: Optional[Exception] = None
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with code {proc.returncode}"
            )
        try:
            client = ServeClient(socket_path=path, timeout=30.0)
            client.ping()
            return client
        except (OSError, ServeError) as exc:
            last_error = exc
            time.sleep(0.2)
    raise TimeoutError(f"daemon never came up: {last_error}")


def _http_get(url: str, timeout: float = 10.0) -> Tuple[int, str]:
    """(status, body) for a GET; 4xx/5xx return instead of raising."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def _check_telemetry(base_url: str, nets_total: float) -> Optional[str]:
    """Probe the sidecar; the failure diagnostic, or None when healthy."""
    status, body = _http_get(base_url + "/healthz")
    if status != 200:
        return f"/healthz answered {status}"
    deadline = time.time() + 60.0
    while True:
        status, body = _http_get(base_url + "/readyz")
        if status == 200:
            break
        if time.time() > deadline:
            return f"/readyz never became ready (last: {status} {body!r})"
        time.sleep(0.2)
    status, text = _http_get(base_url + "/metrics")
    if status != 200:
        return f"/metrics answered {status}"
    problems = validate_exposition(text)
    if problems:
        return f"malformed exposition: {problems}"
    expo = parse_prometheus_text(text)
    scraped = expo.value("repro_serve_nets_total")
    if scraped != nets_total:
        return f"nets_total {scraped} != client-observed {nets_total}"
    merged = {
        le: v for le, _labels, v in expo.buckets("repro_serve_net_seconds")
    }.get("+Inf")
    if merged != nets_total:
        return (
            f"merged per-tier histogram count {merged} "
            f"!= nets_total {nets_total}"
        )
    return None


def _check_eco(client: ServeClient, socket_path: str) -> Optional[str]:
    """One ECO session end to end; the failure diagnostic, or None.

    Seeds a session with a fresh workload, applies one deterministic
    pin-move delta, and checks its serving tier comes back. Also
    probes the protocol-v2 version gate: an *unversioned* (v1) ``eco``
    request must be rejected with ``error_type`` ``ProtocolVersionError``
    — which the client surfaces as the typed exception.
    """
    rng = random.Random(77)
    nets = [random_net(7, rng=rng, name=f"eco{i}") for i in range(3)]
    seeded = client.eco_seed("smoke-eco", nets)
    if len(seeded) != len(nets) or any(not front for _n, front in seeded):
        return f"eco seed answered {seeded!r}"
    delta = perturb_nets(nets, seed=78, kind="move", count=1)[0]
    result = client.eco_apply("smoke-eco", delta)
    if not result.get("front"):
        return f"eco apply returned no front: {result!r}"
    if not isinstance(result.get("tier"), str):
        return f"eco apply carries no serving tier: {result!r}"
    stats = client.stats()
    if stats.get("eco_sessions") != 1 or stats.get("eco_deltas") != 1:
        return (
            f"eco stats off: sessions={stats.get('eco_sessions')} "
            f"deltas={stats.get('eco_deltas')}"
        )
    # Version gate: an unversioned eco request must fail typed.
    import json
    import socket as socket_module

    raw = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    raw.settimeout(30.0)
    try:
        raw.connect(socket_path)
        fp = raw.makefile("rwb")
        fp.write(
            (json.dumps({"id": 1, "op": "eco", "session": "x"}) + "\n").encode()
        )
        fp.flush()
        response = json.loads(fp.readline())
        fp.close()
    finally:
        raw.close()
    if response.get("ok") or response.get("error_type") != "ProtocolVersionError":
        return f"unversioned eco request not version-gated: {response!r}"
    print(
        f"eco OK: tier={result['tier']} "
        f"v1 rejected with ProtocolVersionError"
    )
    return None


def main() -> int:
    """Run the smoke sequence; return a process exit code."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        socket_path = str(Path(tmp) / "patlabor.sock")
        store_path = str(Path(tmp) / "cache.sqlite")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", socket_path,
                "--store", store_path,
                "--workers", "2",
                "--metrics-port", str(METRICS_PORT),
            ],
        )
        try:
            client = _wait_for_socket(socket_path, proc)
            with client:
                nets = _workload()
                results = client.route(nets)
                if len(results) != len(nets):
                    print(f"FAIL: {len(results)} results for {len(nets)} nets")
                    return 1
                for name, front in results:
                    if not front:
                        print(f"FAIL: empty front for {name}")
                        return 1
                stats = client.stats()
                print(
                    f"routed {stats['nets']} nets in {stats['requests']} "
                    f"request(s); warm_hit_rate={stats['warm_hit_rate']:.2f} "
                    f"(memory={stats['served_memory']} "
                    f"store={stats['served_store']} "
                    f"routed={stats['served_routed']})"
                )
                if stats["warm_hit_rate"] <= 0.0:
                    print("FAIL: repeated nets produced no warm hits")
                    return 1
                problem = _check_eco(client, socket_path)
                if problem is not None:
                    print(f"FAIL: eco session: {problem}")
                    return 1
                problem = _check_telemetry(
                    f"http://127.0.0.1:{METRICS_PORT}", float(stats["nets"])
                )
                if problem is not None:
                    print(f"FAIL: telemetry sidecar: {problem}")
                    return 1
                print(
                    f"telemetry OK: /metrics valid, p50 "
                    f"{stats['latency_ms']['request']['p50_ms']:.3f} ms"
                )
                client.shutdown()
            rc = proc.wait(timeout=60)
            if rc != 0:
                print(f"FAIL: daemon exited with code {rc} after shutdown")
                return 1
        finally:
            if proc.poll() is None:  # pragma: no cover - only on failure
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        print("serve smoke OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
