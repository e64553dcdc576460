"""Routing-as-a-service vs per-invocation cold starts.

Not a paper artefact: this benchmark quantifies what the ``repro serve``
daemon (persistent engine + shared-LUT worker pool + disk-backed cache
tier) buys over the one-shot CLI model on repeated workloads — the
deployment pattern PatLabor targets, where a placer iterates and most
nets recur between calls.

The same request stream is timed two ways:

* **cold** — every request is a real invocation: a fresh
  ``sys.executable`` process imports ``repro``, builds
  ``EngineSpec(router="patlabor", lut=DATA_FILE, cache="symmetry")``
  (loading the shipped table from disk, caches empty), routes that
  request's nets and prints their fronts with ``repr`` floats (JSON), so
  the model charges interpreter start-up, imports and the table load, as
  ``repro route`` pays them per process.
* **warm** — one resident daemon (:class:`repro.serve.ServerThread`)
  with a pre-warmed persistent store serves the identical stream over a
  Unix socket through :class:`repro.serve.ServeClient`.

Emits

* ``results/serve.txt`` — the cold/warm table and speedup,
* ``results/BENCH_serve.json`` — counters plus daemon statistics,
* ``results/ledger.jsonl`` — one appended ``serve`` run record carrying
  ``serve.requests_per_second``, ``cache.store_hit_rate``, and the
  daemon's latency-histogram percentiles (``serve.p50_ms`` /
  ``serve.p99_ms``, plus per-tier ``serve.<tier>.p50_ms`` variants) for
  ``repro obs check`` against the committed baseline.

Asserted shape: the daemon answers the stream **>= 5x** faster than the
cold-start model, its store hit rate is positive (disk tier serving),
and every warm front is objective-identical to its cold counterpart.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro import obs
from repro.geometry.net import random_net
from repro.serve import ServeClient, ServeConfig, ServerThread

from conftest import RESULTS_DIR, write_artifact

UNIQUE_NETS = 8     # distinct patterns in the pool (degrees 4-6: LUT-served)
REQUESTS = 12       # requests in the stream
NETS_PER_REQUEST = 5
MIN_SPEEDUP = 5.0   # gate: daemon must beat cold starts by this factor


def _workload():
    """A request stream drawing (with repeats) from a small net pool."""
    rng = random.Random(2027)
    pool = [
        random_net(4 + i % 3, rng=rng, name=f"u{i}")
        for i in range(UNIQUE_NETS)
    ]
    stream = [
        [rng.choice(pool) for _ in range(NETS_PER_REQUEST)]
        for _ in range(REQUESTS)
    ]
    return pool, stream


#: One cold invocation: read ``[name, source, sinks]`` nets from stdin,
#: route them on a freshly built serving engine, print the fronts.
COLD_SCRIPT = """
import json, sys
from repro.engine import EngineSpec, build_engine
from repro.geometry.net import Net
from repro.lut.default import DATA_FILE
engine = build_engine(EngineSpec(router="patlabor", lut=DATA_FILE, cache="symmetry"))
fronts = {}
for name, source, sinks in json.load(sys.stdin):
    net = Net.from_points(tuple(source), [tuple(p) for p in sinks], name=name)
    fronts[name] = [[w, d] for w, d, _t in engine.route(net)]
print(json.dumps(fronts))
"""


def _route_stream_cold(stream):
    """The per-invocation model: one fresh process per request."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    fronts = {}
    t0 = time.perf_counter()
    for request in stream:
        nets = [
            [net.name, list(net.source), [list(p) for p in net.sinks]]
            for net in request
        ]
        out = subprocess.run(
            [sys.executable, "-c", COLD_SCRIPT],
            input=json.dumps(nets), capture_output=True, text=True,
            check=True, env=env, timeout=120,
        )
        for name, front in json.loads(out.stdout).items():
            fronts[name] = [(w, d) for w, d in front]
    return time.perf_counter() - t0, fronts


def _route_stream_warm(stream, socket_path, store_path):
    """The service model: one daemon, one socket, the same stream."""
    config = ServeConfig(
        socket_path=socket_path, workers=2, store_path=store_path
    )
    with ServerThread(config) as handle:
        with ServeClient(socket_path=socket_path) as client:
            client.ping()  # connection + pool are up before the clock starts
            fronts = {}
            t0 = time.perf_counter()
            for request in stream:
                for name, front in client.route(request):
                    fronts[name] = [(w, d) for w, d, _t in front]
            elapsed = time.perf_counter() - t0
            stats = client.stats()
    return elapsed, fronts, stats


def test_serve_throughput_vs_cold_starts():
    pool, stream = _workload()
    cold_seconds, cold_fronts = _route_stream_cold(stream)

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        socket_path = str(Path(tmp) / "serve.sock")
        store_path = str(Path(tmp) / "store.sqlite")
        # Pre-warm the disk tier: a prior run's daemon already solved the
        # pool (the cross-run scenario the store exists for).
        warm_config = ServeConfig(
            socket_path=socket_path, workers=2, store_path=store_path
        )
        with ServerThread(warm_config) as handle:
            with ServeClient(socket_path=socket_path) as client:
                client.route(pool)
        elapsed, warm_fronts, stats = _route_stream_warm(
            stream, socket_path, store_path
        )

    speedup = cold_seconds / elapsed if elapsed > 0 else float("inf")
    requests_per_second = REQUESTS / elapsed if elapsed > 0 else 0.0
    total_nets = REQUESTS * NETS_PER_REQUEST

    # Transparency: the daemon's fronts match the cold model's exactly.
    assert set(warm_fronts) == set(cold_fronts)
    for name, front in warm_fronts.items():
        assert front == cold_fronts[name], name

    # The disk tier actually served: memory misses (fresh workers) were
    # answered from the pre-warmed store, not re-routed.
    assert stats["store_hit_rate"] > 0.0
    assert stats["warm_hit_rate"] > 0.0

    assert speedup >= MIN_SPEEDUP, (
        f"daemon speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x gate "
        f"(cold {cold_seconds:.2f}s vs warm {elapsed:.2f}s)"
    )

    rows = [
        f"{'model':<22}{'seconds':>10}{'req/s':>10}",
        "-" * 42,
        f"{'cold starts':<22}{cold_seconds:>10.3f}"
        f"{REQUESTS / cold_seconds:>10.1f}",
        f"{'daemon (warm store)':<22}{elapsed:>10.3f}"
        f"{requests_per_second:>10.1f}",
        f"\nspeedup: {speedup:.1f}x on {REQUESTS} requests x "
        f"{NETS_PER_REQUEST} nets ({UNIQUE_NETS} unique patterns)",
        f"served: memory={stats['served_memory']} "
        f"store={stats['served_store']} routed={stats['served_routed']} "
        f"(store hit rate {stats['store_hit_rate']:.3f})",
    ]
    write_artifact("serve.txt", "\n".join(rows))

    path = obs.write_bench_json(
        "serve",
        directory=RESULTS_DIR,
        extra={
            "workload": {
                "unique_nets": UNIQUE_NETS,
                "requests": REQUESTS,
                "nets_per_request": NETS_PER_REQUEST,
            },
            "cold_seconds": cold_seconds,
            "warm_seconds": elapsed,
            "speedup": speedup,
            "daemon_stats": stats,
        },
    )
    payload = json.loads(path.read_text())
    assert payload["speedup"] >= MIN_SPEEDUP
    print(f"\n[metrics written to {path}]")

    # Latency percentiles out of the daemon's exact histogram buckets:
    # one pair for the whole request path, one per serving tier.
    latency = stats["latency_ms"]
    latency_metrics = {
        "serve.p50_ms": latency["request"]["p50_ms"],
        "serve.p99_ms": latency["request"]["p99_ms"],
    }
    for tier in ("memory", "store", "routed"):
        if latency[tier]["count"]:
            latency_metrics[f"serve.{tier}.p50_ms"] = latency[tier]["p50_ms"]
            latency_metrics[f"serve.{tier}.p99_ms"] = latency[tier]["p99_ms"]

    record = obs.make_record(
        {
            "serve.requests_per_second": requests_per_second,
            "serve.speedup_rate": speedup,
            "serve.warm_hit_rate": stats["warm_hit_rate"],
            "cache.store_hit_rate": stats["store_hit_rate"],
            "serve.nets": float(total_nets),
            **latency_metrics,
        },
        name="serve",
        config={
            "unique_nets": UNIQUE_NETS,
            "requests": REQUESTS,
            "nets_per_request": NETS_PER_REQUEST,
            "workers": 2,
        },
    )
    ledger_path = obs.append_record(record, RESULTS_DIR / "ledger.jsonl")
    print(f"[run {record['run_id']} appended to {ledger_path}]")
