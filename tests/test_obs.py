"""Tests for the observability subsystem (``repro.obs``).

Covers the registry primitives, span nesting, exporters, snapshot
merging, and the two contracts the instrumentation must honour:

* **transparency** — routing results are bit-identical with
  instrumentation enabled vs disabled;
* **no-op cheapness** — the disabled path costs well under 5% of a
  degree-15 net's routing time.
"""

import json
import random
import time

import pytest

from repro import obs
from repro.core.batch import route_batch
from repro.core.patlabor import PatLabor, PatLaborConfig
from repro.engine import EngineSpec
from repro.geometry.net import random_net


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with a disabled, empty registry."""
    obs.disable()
    obs.trace_disable()
    obs.events_disable()
    obs.reset()
    yield
    obs.disable()
    obs.trace_disable()
    obs.events_disable()
    obs.reset()


class TestRegistry:
    def test_disabled_primitives_record_nothing(self):
        obs.counter_add("c", 5)
        obs.gauge_set("g", 1.0)
        obs.timer_observe("t", 0.5)
        with obs.span("s"):
            pass
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["timers"] == {}
        assert snap["spans"] == {}

    def test_counters_gauges_timers(self):
        obs.enable()
        obs.counter_add("c", 2)
        obs.counter_add("c")
        obs.gauge_set("g", 3.0)
        obs.gauge_max("m", 5.0)
        obs.gauge_max("m", 4.0)
        for v in (0.1, 0.2, 0.3):
            obs.timer_observe("t", v)
        snap = obs.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"] == {"g": 3.0, "m": 5.0}
        t = snap["timers"]["t"]
        assert t["count"] == 3
        assert t["min_s"] == pytest.approx(0.1)
        assert t["max_s"] == pytest.approx(0.3)
        assert t["p50_s"] == pytest.approx(0.2)

    def test_span_nesting_builds_paths(self):
        obs.enable()
        with obs.span("outer"):
            assert obs.current_span_path() == "outer"
            with obs.span("inner"):
                assert obs.current_span_path() == "outer/inner"
        spans = obs.snapshot()["spans"]
        assert set(spans) == {"outer", "outer/inner"}
        assert spans["outer"]["total_s"] >= spans["outer/inner"]["total_s"]

    def test_snapshot_merge_accumulates(self):
        obs.enable()
        obs.counter_add("c", 1)
        obs.timer_observe("t", 0.25)
        obs.gauge_max("g", 2.0)
        snap = obs.get_registry().snapshot(with_samples=True)
        other = obs.Registry()
        other.merge_snapshot(snap)
        other.merge_snapshot(snap)
        merged = other.snapshot()
        assert merged["counters"]["c"] == 2
        assert merged["timers"]["t"]["count"] == 2
        assert merged["gauges"]["g"] == 2.0

    def test_reset_clears_everything(self):
        obs.enable()
        obs.counter_add("c")
        with obs.span("s"):
            pass
        obs.reset()
        snap = obs.snapshot()
        assert snap["counters"] == {} and snap["spans"] == {}


class TestSpanExceptions:
    def test_raising_span_still_closed_and_flagged(self):
        """A span whose body raises must close (stack unwound) and be
        flagged errored, so the tree and trace stay well-formed."""
        obs.enable()
        obs.trace_enable()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise ValueError("boom")
        # Stack fully unwound: a fresh span is a root again.
        assert obs.current_span_path() == ""
        spans = obs.snapshot()["spans"]
        assert set(spans) == {"outer", "outer/inner"}
        assert spans["outer"]["errors"] == 1
        assert spans["outer/inner"]["errors"] == 1
        # The Chrome-trace events carry the error flag too.
        traced = {
            e["args"]["path"]: e
            for e in obs.get_trace_collector().events()
        }
        assert traced["outer/inner"]["args"]["error"] is True
        assert traced["outer"]["args"]["error"] is True

    def test_non_raising_span_not_flagged(self):
        obs.enable()
        with obs.span("ok"):
            pass
        assert obs.snapshot()["spans"]["ok"]["errors"] == 0


class TestExporters:
    def test_prometheus_text_format(self):
        obs.enable()
        obs.counter_add("cache.hits", 7)
        obs.gauge_set("dw.max_front_size", 4)
        obs.timer_observe("eval.net_seconds", 0.5)
        text = obs.to_prometheus()
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 7" in text
        assert "# TYPE repro_dw_max_front_size gauge" in text
        assert 'repro_eval_net_seconds_seconds{quantile="0.5"} 0.5' in text
        assert "repro_eval_net_seconds_seconds_count 1" in text

    def test_prometheus_counters_carry_total_suffix(self):
        obs.enable()
        obs.counter_add("dw.solves", 2)
        obs.counter_add("batch.nets", 9)
        for line in obs.to_prometheus().splitlines():
            if "counter" in line and line.startswith("# TYPE"):
                assert line.split()[2].endswith("_total")

    def test_prometheus_label_escaping(self):
        """Span paths with quotes/backslashes/newlines must be escaped per
        the exposition format, not emitted raw inside label="..."."""
        obs.enable()
        obs.get_registry().span_observe('a"b\\c\nd', 0.1)
        text = obs.to_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text
        assert '{path="a"b' not in text

    def test_prometheus_deterministic_ordering(self):
        obs.enable()
        for name in ("z.last", "a.first", "m.mid"):
            obs.counter_add(name, 1)
            obs.timer_observe(f"t.{name}", 0.1)
        first = obs.to_prometheus()
        assert first == obs.to_prometheus()
        counters = [
            line.split()[0]
            for line in first.splitlines()
            if line.endswith(" 1") and line.startswith("repro_") and "_total" in line
        ]
        assert counters == sorted(counters)

    def test_write_bench_json(self, tmp_path):
        obs.enable()
        obs.counter_add("cache.hits", 3)
        path = obs.write_bench_json(
            "unit", directory=tmp_path, extra={"nets_per_second": 12.5}
        )
        assert path.name == "BENCH_unit.json"
        payload = json.loads(path.read_text())
        assert payload["nets_per_second"] == 12.5
        assert payload["metrics"]["counters"]["cache.hits"] == 3

    def test_span_tree_report_renders_hierarchy(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                pass
        report = obs.span_tree_report()
        lines = report.splitlines()
        assert any(line.lstrip().startswith("a ") for line in lines)
        assert any(line.startswith("  b") for line in lines)


def _fronts_key(front):
    """Everything that defines a solution, bit-exact."""
    return [
        (w, d, tuple((p.x, p.y) for p in tree.points), tuple(tree.parent))
        for w, d, tree in front
    ]


class TestEmptyBatchRatios:
    """Ratio metrics must read 0.0 — not raise — on empty inputs."""

    def test_empty_batch_result_ratios(self):
        from repro.core.batch import BatchResult

        empty = BatchResult(fronts={}, seconds=0.0)
        assert empty.cache_hit_rate == 0.0
        assert empty.nets_per_second == 0.0
        assert empty.total_solutions == 0

    def test_route_batch_empty_nets(self):
        result = route_batch([], EngineSpec(cache="translation"))
        assert result.fronts == {}
        assert result.cache_hit_rate == 0.0
        assert result.nets_per_second == 0.0

    def test_route_batch_empty_nets_profiled_and_parallel(self):
        obs.enable()
        result = route_batch([], EngineSpec(cache="translation"), jobs=4)
        obs.disable()
        assert result.metrics is not None
        assert result.metrics["cache_hit_rate"] == 0.0
        assert result.metrics["nets_per_second"] == 0.0
        assert result.metrics["workers"] == []

    def test_cached_router_hit_rate_before_any_route(self):
        from repro.core.cache import CachedRouter

        assert CachedRouter(PatLabor()).hit_rate == 0.0


class TestTransparency:
    def test_results_bit_identical_enabled_vs_disabled(self):
        net = random_net(15, rng=random.Random(7), name="deg15")
        baseline = PatLabor(config=PatLaborConfig(seed=0)).route(net)
        obs.enable()
        profiled = PatLabor(config=PatLaborConfig(seed=0)).route(net)
        obs.disable()
        assert _fronts_key(baseline) == _fronts_key(profiled)
        # And the profiled run actually recorded the pipeline.
        snap = obs.snapshot()
        assert snap["counters"]["patlabor.dispatch.local_search"] == 1
        assert "patlabor.route" in snap["spans"]

    def test_results_bit_identical_with_event_log_and_trace(self):
        """Event logging and trace capture observe, never steer.

        ``net_routed`` events are emitted by the engine's observability
        middleware, so the instrumented run routes through build_engine.
        """
        from repro.engine import EngineSpec, build_engine

        net = random_net(15, rng=random.Random(7), name="deg15")
        baseline = PatLabor(config=PatLaborConfig(seed=0)).route(net)
        obs.enable()
        obs.events_enable()
        obs.trace_enable()
        engine = build_engine(
            EngineSpec(
                router="patlabor",
                router_options={"config": PatLaborConfig(seed=0)},
            )
        )
        logged = engine.route(net)
        obs.disable()
        obs.events_disable()
        obs.trace_disable()
        assert _fronts_key(baseline) == _fronts_key(logged)
        events = obs.get_event_log().events()
        assert any(e["kind"] == "net_routed" for e in events)
        assert any(e.get("ph") == "X" for e in obs.get_trace_collector().events())

    def test_batch_results_identical_and_metrics_attached(self):
        rng = random.Random(8)
        nets = [random_net(5, rng=rng, name=f"n{i}") for i in range(6)]
        plain = route_batch(nets, EngineSpec(cache="translation"))
        assert plain.metrics is None
        obs.enable()
        profiled = route_batch(nets, EngineSpec(cache="translation"))
        obs.disable()
        assert profiled.metrics is not None
        assert profiled.metrics["nets"] == len(nets)
        for name in plain.fronts:
            assert [(w, d) for w, d, _ in plain.fronts[name]] == [
                (w, d) for w, d, _ in profiled.fronts[name]
            ]


class TestNoOpOverhead:
    def test_disabled_overhead_under_5_percent_degree15(self):
        """Bound the no-op path's cost on a degree-15 route.

        Control flow is identical enabled vs disabled (asserted above), so
        the number of primitive calls recorded by an enabled run equals
        the number of no-op calls a disabled run makes. Multiplying that
        count by a measured per-call no-op cost bounds the disabled-path
        overhead without flaky wall-clock A/B timing.
        """
        net = random_net(15, rng=random.Random(9), name="deg15")

        # Count instrumentation call sites executed per route.
        obs.enable()
        PatLabor(config=PatLaborConfig(seed=0)).route(net)
        events = obs.get_registry().events
        spans = sum(s["count"] for s in obs.snapshot()["spans"].values())
        obs.disable()
        obs.reset()
        assert events > 0

        # Per-call cost of the disabled primitives (span is the priciest:
        # a call plus a with-block on the shared no-op).
        reps = 20_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with obs.span("x"):
                pass
            obs.counter_add("c")
        per_call = (time.perf_counter() - t0) / (2 * reps)

        # Disabled route time (best of 3 to shed scheduler noise).
        best = min(
            _timed_route(net) for _ in range(3)
        )
        overhead = events * per_call
        assert spans <= events
        assert overhead < 0.05 * best, (
            f"no-op overhead {overhead:.6f}s vs route {best:.3f}s "
            f"({events} instrumentation calls)"
        )


def _timed_route(net):
    router = PatLabor(config=PatLaborConfig(seed=0))
    t0 = time.perf_counter()
    router.route(net)
    return time.perf_counter() - t0
