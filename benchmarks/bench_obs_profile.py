"""Observability profile of the batch-routing pipeline.

Not a paper artefact: this benchmark exercises the ``repro.obs``
instrumentation end to end and emits the structured baseline that later
perf PRs diff against. It routes an ICCAD-15-like mixed workload (with
translated duplicates, so the translation cache sees realistic hits)
through :func:`repro.core.batch.route_batch`, then writes

* ``results/obs_profile.txt`` — the human-readable span-tree report,
* ``results/BENCH_profile.json`` — cache hit-rate, nets/sec, per-stage
  span timings, counters, and per-net latency percentiles,
* ``results/trace_profile.json`` — the same run as a Chrome-trace /
  Perfetto JSON (structurally validated here),
* ``results/events_profile.jsonl`` — the structured per-net event log,
* ``results/ledger.jsonl`` — one appended run record (git SHA, config,
  headline metrics, environment) per execution: the longitudinal input
  of ``repro obs diff`` / ``repro obs check``.

Asserted shape: the cache hits on every duplicate, every routed net is
accounted for, the span tree covers the dispatch tiers that ran, the
trace validates, and every net produced a ``net_routed`` event.
"""

import json

from repro import Net, obs
from repro.core.batch import route_batch

from conftest import RESULTS_DIR, write_artifact

DUPLICATES_PER_NET = 2  # rigid translates appended per base net

#: The curated, comparatively stable metric set recorded to the ledger.
#: Work counters are deterministic for a fixed workload; the throughput
#: numbers are what the perf gate watches (with its noise threshold).
LEDGER_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "batch.nets",
    "dw.solves",
    "dw.engine.tuple",
    "dw.engine.array",
    "dw.subsets",
    "dw.merge_transitions",
    "dw.closure_extensions",
    "dw.merge_candidates",
    "dw.closure_allocations",
    "patlabor.dispatch.lut",
    "patlabor.dispatch.dw",
    "patlabor.dispatch.closed_form",
)


def _translated_copy(net, dx, dy, name):
    moved = net.translated(dx, dy)
    return Net.from_points(moved.source, list(moved.sinks), name=name)


def test_obs_profile(small_nets):
    nets = list(small_nets)
    for net in small_nets:
        for k in range(1, DUPLICATES_PER_NET + 1):
            nets.append(
                _translated_copy(
                    net, 1000.0 * k, 500.0 * k, f"{net.name}/dup{k}"
                )
            )

    obs.reset()
    obs.enable()
    obs.trace_enable()
    obs.events_enable()
    try:
        result = route_batch(nets, use_cache=True)
    finally:
        obs.disable()
        obs.trace_disable()
        obs.events_disable()

    # Every translate after the first visit of a base net must hit.
    assert result.cache_hits >= len(small_nets) * DUPLICATES_PER_NET
    assert result.metrics is not None
    assert result.metrics["cache_hit_rate"] > 0.5

    report = obs.span_tree_report() + "\n\n" + obs.metrics_summary()
    write_artifact("obs_profile.txt", report)

    path = obs.write_bench_json(
        "profile",
        directory=RESULTS_DIR,
        extra={
            "workload": {
                "nets": len(nets),
                "base_nets": len(small_nets),
                "duplicates_per_net": DUPLICATES_PER_NET,
            },
            "nets_per_second": result.nets_per_second,
            "cache_hit_rate": result.metrics["cache_hit_rate"],
            "seconds": result.seconds,
        },
    )
    payload = json.loads(path.read_text())
    assert payload["nets_per_second"] > 0
    assert 0.0 < payload["cache_hit_rate"] <= 1.0
    assert payload["metrics"]["counters"]["cache.hits"] == result.cache_hits
    assert "batch.route_batch" in payload["metrics"]["spans"]
    # Per-stage timings: the DW engine must appear under the batch span.
    assert any("dw.solve" in p for p in payload["metrics"]["spans"])
    # Per-net latency percentiles for the throughput yardstick.
    net_seconds = payload["metrics"]["timers"]["batch.net_seconds"]
    assert net_seconds["count"] == len(nets)
    assert net_seconds["p50_s"] <= net_seconds["p99_s"]
    print(f"\n[metrics written to {path}]")

    # Chrome trace: write the artefact and validate it structurally.
    trace_path = obs.write_chrome_trace(RESULTS_DIR / "trace_profile.json")
    trace = json.loads(trace_path.read_text())
    assert obs.validate_chrome_trace(trace) == []
    assert any(e.get("ph") == "X" for e in trace["traceEvents"])
    print(f"[chrome trace written to {trace_path}]")

    # Structured event log: one net_routed event per cache miss (hits are
    # served without routing), plus the batch summary.
    events = obs.get_event_log().events()
    routed = [e for e in events if e["kind"] == "net_routed"]
    assert len(routed) == result.cache_misses
    assert all({"net", "degree", "tier", "front_size", "wall_s"} <= set(e)
               for e in routed)
    batch_events = [e for e in events if e["kind"] == "batch_done"]
    assert len(batch_events) == 1 and batch_events[0]["nets"] == len(nets)
    obs.flush_events(RESULTS_DIR / "events_profile.jsonl")

    # Append this run to the performance ledger — the longitudinal record
    # `repro obs diff` / `repro obs check` consume.
    metrics = {
        "nets_per_second": result.nets_per_second,
        "seconds": result.seconds,
        "cache_hit_rate": result.metrics["cache_hit_rate"],
        "batch.net_seconds.mean_s": net_seconds["mean_s"],
        "batch.net_seconds.p99_s": net_seconds["p99_s"],
    }
    counters = payload["metrics"]["counters"]
    for name in LEDGER_COUNTERS:
        if name in counters:
            metrics[name] = counters[name]
    record = obs.make_record(
        metrics,
        name="profile",
        config={
            "nets": len(nets),
            "duplicates_per_net": DUPLICATES_PER_NET,
            "use_cache": True,
            "jobs": 1,
        },
    )
    ledger_path = obs.append_record(record, RESULTS_DIR / "ledger.jsonl")
    print(f"[run {record['run_id']} appended to {ledger_path}]")
    obs.reset()
