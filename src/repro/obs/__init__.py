"""``repro.obs`` — zero-dependency observability for the routing pipeline.

The measurement substrate every perf PR reports against, in four layers:

* **registry** — counters, gauges, timers with percentiles, and nestable
  tracing spans, aggregated process-globally with JSON / Prometheus
  exporters (:mod:`repro.obs.registry`, :mod:`repro.obs.export`);
* **events** — a structured JSONL event log: one record per routed net /
  DW solve / batch with net id, degree, dispatch tier, frontier size,
  wall time, and peak RSS (:mod:`repro.obs.events`);
* **trace** — Chrome-trace / Perfetto export of the span tree, including
  cross-process spans merged back from batch workers
  (:mod:`repro.obs.trace`);
* **ledger** — an append-only, concurrent-writer-safe run history plus
  the direction-aware diff engine behind ``repro obs diff`` and the CI
  perf gate ``repro obs check`` (:mod:`repro.obs.ledger`);
* **live** — service telemetry for the serve daemon: mergeable fixed-
  bucket latency histograms, request-scoped ``request_id`` propagation
  into pool workers, and a Prometheus exposition parser/validator
  backing the daemon's ``/metrics`` endpoint and ``repro top``
  (:mod:`repro.obs.live`, :mod:`repro.obs.top`).

The exporters, the ledger and the report (:mod:`repro.obs.export`,
:mod:`repro.obs.ledger`, :mod:`repro.obs.report`) run only after
routing, so their names here resolve on first use (PEP 562) and
importing ``repro.obs`` does not load them.

Everything is off by default: until the matching ``enable`` is called,
every primitive is a no-op behind a flag check, so library users who
never profile pay nothing. Typical profiling session::

    from repro import obs

    obs.enable()                           # metrics + spans
    obs.events_enable()                    # structured event log
    obs.trace_enable()                     # Chrome-trace capture
    router.route(net)                      # instrumented end to end
    print(obs.span_tree_report())          # where the time went
    obs.write_bench_json("route")          # BENCH_route.json for diffing
    obs.write_chrome_trace("trace.json")   # load in ui.perfetto.dev
    obs.flush_events("events.jsonl")       # one JSON object per event
    obs.disable(); obs.reset()

Instrumented out of the box: ``PatLabor.route`` dispatch and local search,
the Pareto-DW and Pareto-KS engines, the translation cache, batch routing
(including per-worker merges from subprocesses), LUT generation, and the
evaluation runner. ``docs/observability.md`` catalogues every metric name,
event kind, and the span hierarchy; ``patlabor route --profile`` prints
the report from the command line and ``patlabor obs diff/check`` compares
ledger runs.
"""

from __future__ import annotations

from typing import Any

from .._lazy import resolve_lazy
from .events import (
    EventLog,
    drain_events,
    emit_event,
    events_disable,
    events_enable,
    events_enabled,
    flush_events,
    get_event_log,
    peak_rss_kb,
    read_events,
)
from .live import (
    DEFAULT_BOUNDS,
    Exposition,
    LatencyHistogram,
    current_net_id,
    current_request_id,
    log_bucket_bounds,
    merge_histograms,
    parse_prometheus_text,
    percentile_from_buckets,
    request_context,
    validate_exposition,
)
from .registry import Registry, TimerStat, get_registry, _REGISTRY
from .spans import current_span_path, span
from .trace import (
    TraceCollector,
    chrome_trace,
    get_trace_collector,
    trace_disable,
    trace_enable,
    trace_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)

#: Each lazily re-exported name and the submodule that defines it.
_LAZY = {
    "dump_json": "export",
    "help_original_name": "export",
    "prom_name": "export",
    "snapshot": "export",
    "to_prometheus": "export",
    "write_bench_json": "export",
    "MetricDelta": "ledger",
    "append_record": "ledger",
    "diff_metrics": "ledger",
    "diff_records": "ledger",
    "flatten_snapshot": "ledger",
    "make_record": "ledger",
    "read_ledger": "ledger",
    "regressions": "ledger",
    "render_diff": "ledger",
    "resolve_record": "ledger",
    "metrics_summary": "report",
    "span_tree_report": "report",
}


def __getattr__(name: str) -> Any:
    """Bind a lazily re-exported name on first use (PEP 562)."""
    return resolve_lazy(globals(), _LAZY, name)


def enable() -> None:
    """Turn instrumentation on (process-global)."""
    _REGISTRY.enable()


def disable() -> None:
    """Turn instrumentation off; collected metrics are kept until reset."""
    _REGISTRY.disable()


def enabled() -> bool:
    """Whether the global registry is currently recording."""
    return _REGISTRY.enabled


def reset() -> None:
    """Drop every collected metric, trace event, and buffered event.

    Does not change any enabled/disabled flag.
    """
    _REGISTRY.reset()
    get_trace_collector().clear()
    get_event_log().clear()


def counter_add(name: str, value: float = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op while disabled)."""
    _REGISTRY.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op while disabled)."""
    _REGISTRY.gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise gauge ``name`` to ``value`` if larger (no-op while disabled)."""
    _REGISTRY.gauge_max(name, value)


def timer_observe(name: str, seconds: float) -> None:
    """Record one duration sample for timer ``name`` (no-op while disabled)."""
    _REGISTRY.timer_observe(name, seconds)


__all__ = [
    "DEFAULT_BOUNDS",
    "EventLog",
    "Exposition",
    "LatencyHistogram",
    "MetricDelta",
    "Registry",
    "TimerStat",
    "TraceCollector",
    "append_record",
    "chrome_trace",
    "counter_add",
    "current_net_id",
    "current_request_id",
    "current_span_path",
    "diff_metrics",
    "diff_records",
    "disable",
    "drain_events",
    "dump_json",
    "emit_event",
    "enable",
    "enabled",
    "events_disable",
    "events_enable",
    "events_enabled",
    "flatten_snapshot",
    "flush_events",
    "gauge_max",
    "gauge_set",
    "get_event_log",
    "get_registry",
    "get_trace_collector",
    "help_original_name",
    "log_bucket_bounds",
    "make_record",
    "merge_histograms",
    "metrics_summary",
    "parse_prometheus_text",
    "peak_rss_kb",
    "percentile_from_buckets",
    "prom_name",
    "read_events",
    "read_ledger",
    "regressions",
    "render_diff",
    "request_context",
    "reset",
    "resolve_record",
    "snapshot",
    "span",
    "span_tree_report",
    "timer_observe",
    "to_prometheus",
    "trace_disable",
    "trace_enable",
    "trace_enabled",
    "validate_chrome_trace",
    "validate_exposition",
    "write_bench_json",
    "write_chrome_trace",
]
