"""Tests for the structured event log and the Chrome-trace exporter.

Covers event emission from every instrumented pipeline stage
(``net_routed`` with its dispatch tier, ``dw_solve``, ``ks_solve``,
``eval_net``, ``batch_done``), JSONL flush/read round-trips, and the
structural validity of the exported Chrome trace — including the
cross-process merge from ``route_batch`` workers (distinct pid lanes).
"""

import json
import os
import random

import pytest

from repro import obs
from repro.core.batch import route_batch
from repro.core.pareto_ks import pareto_ks
from repro.core.patlabor import PatLabor
from repro.engine import EngineSpec
from repro.geometry.net import random_net


@pytest.fixture(autouse=True)
def clean_registry():
    obs.disable()
    obs.trace_disable()
    obs.events_disable()
    obs.reset()
    yield
    obs.disable()
    obs.trace_disable()
    obs.events_disable()
    obs.reset()


class TestEventLog:
    def test_disabled_log_records_nothing(self):
        obs.emit_event("net_routed", net="n0")
        assert obs.get_event_log().events() == []

    def test_emit_stamps_ts_and_pid(self):
        obs.events_enable()
        obs.emit_event("net_routed", net="n0", degree=5)
        (event,) = obs.get_event_log().events()
        assert event["kind"] == "net_routed"
        assert event["net"] == "n0" and event["degree"] == 5
        assert event["pid"] == os.getpid()
        assert event["ts"] > 0

    def test_events_sorted_by_timestamp(self):
        obs.events_enable()
        log = obs.get_event_log()
        # Extend with deliberately out-of-order timestamps (as arrives
        # from workers finishing at different times).
        log.extend([{"kind": "a", "ts": 2.0}, {"kind": "b", "ts": 1.0}])
        assert [e["ts"] for e in log.events()] == [1.0, 2.0]

    def test_flush_and_read_roundtrip(self, tmp_path):
        obs.events_enable()
        obs.emit_event("net_routed", net="n0")
        obs.emit_event("batch_done", nets=1)
        path = tmp_path / "events.jsonl"
        obs.flush_events(path)
        records = obs.read_events(path)
        assert [r["kind"] for r in records] == ["net_routed", "batch_done"]
        # Flush drains: a second flush appends nothing new.
        obs.flush_events(path)
        assert len(obs.read_events(path)) == 2

    def test_drain_clears_buffer(self):
        obs.events_enable()
        obs.emit_event("x")
        assert len(obs.drain_events()) == 1
        assert obs.get_event_log().events() == []


class TestPipelineEvents:
    def test_net_routed_carries_dispatch_tier(self):
        # net_routed is emitted by the engine's observability middleware,
        # which reads the tier off the wrapped router's dispatch_tier().
        from repro.engine import build_engine

        obs.events_enable()
        router = build_engine("patlabor")
        rng = random.Random(3)
        by_degree = {
            3: "closed_form",  # closed-form tier
            6: "dw",           # exact DP (no LUT in this router)
            12: "local_search",  # above lambda = 9
        }
        for degree in by_degree:
            router.route(random_net(degree, rng=rng, name=f"d{degree}"))
        routed = {
            e["net"]: e
            for e in obs.get_event_log().events()
            if e["kind"] == "net_routed"
        }
        assert set(routed) == {"d3", "d6", "d12"}
        for degree, tier in by_degree.items():
            event = routed[f"d{degree}"]
            assert event["tier"] == tier
            assert event["degree"] == degree
            assert event["front_size"] >= 1
            assert event["wall_s"] >= 0
            assert event["peak_rss_kb"] >= 0

    def test_dw_solve_events(self):
        obs.events_enable()
        PatLabor().route(random_net(6, rng=random.Random(4), name="n6"))
        solves = [
            e for e in obs.get_event_log().events() if e["kind"] == "dw_solve"
        ]
        assert len(solves) == 1
        assert solves[0]["degree"] == 6 and solves[0]["front_size"] >= 1

    def test_ks_solve_events(self):
        obs.events_enable()
        pareto_ks(random_net(11, rng=random.Random(5), name="n11"))
        solves = [
            e for e in obs.get_event_log().events() if e["kind"] == "ks_solve"
        ]
        assert len(solves) == 1
        assert solves[0]["net"] == "n11" and solves[0]["degree"] == 11

    def test_eval_net_events(self):
        from repro.eval.runner import compare_on_net

        obs.events_enable()
        net = random_net(5, rng=random.Random(6), name="e5")
        compare_on_net(
            net,
            {"patlabor": lambda n: PatLabor().route(n)},
            compute_exact=False,
        )
        (event,) = [
            e for e in obs.get_event_log().events() if e["kind"] == "eval_net"
        ]
        assert event["net"] == "e5"
        assert "patlabor" in event["runtimes"]

    def test_batch_done_event(self):
        obs.events_enable()
        nets = [random_net(5, rng=random.Random(7), name=f"b{i}") for i in range(3)]
        result = route_batch(nets, EngineSpec(cache="translation"))
        (event,) = [
            e for e in obs.get_event_log().events() if e["kind"] == "batch_done"
        ]
        assert event["nets"] == len(nets)
        assert event["cache_hits"] == result.cache_hits
        assert event["cache_misses"] == result.cache_misses


class TestChromeTrace:
    def test_trace_records_spans_as_complete_events(self):
        obs.trace_enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        payload = obs.chrome_trace()
        assert obs.validate_chrome_trace(payload) == []
        xs = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert {e["args"]["path"] for e in xs} == {"outer", "outer/inner"}
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["pid"] == os.getpid()

    def test_write_chrome_trace_file(self, tmp_path):
        obs.trace_enable()
        with obs.span("s"):
            pass
        path = obs.write_chrome_trace(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert obs.validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"

    def test_batch_trace_merges_worker_processes(self):
        """A parallel route_batch must produce a single structurally valid
        trace whose span events span distinct pid lanes (parent + workers)."""
        obs.trace_enable()
        rng = random.Random(11)
        nets = [random_net(6, rng=rng, name=f"p{i}") for i in range(8)]
        route_batch(nets, EngineSpec(cache=None), jobs=2)
        payload = obs.chrome_trace()
        assert obs.validate_chrome_trace(payload) == []
        xs = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert xs, "parallel batch produced no span events"
        pids = {e["pid"] for e in xs}
        assert len(pids) >= 2, f"expected parent+worker pids, got {pids}"
        assert os.getpid() in pids
        # Timestamps are sorted onto one axis despite multiple processes.
        ts = [e["ts"] for e in xs]
        assert ts == sorted(ts)
        # Worker lanes carry the per-net routing spans.
        worker_paths = {
            e["args"]["path"] for e in xs if e["pid"] != os.getpid()
        }
        assert any("patlabor.route" in p for p in worker_paths)

    def test_batch_events_merge_worker_processes(self):
        obs.events_enable()
        rng = random.Random(12)
        nets = [random_net(5, rng=rng, name=f"w{i}") for i in range(6)]
        route_batch(nets, EngineSpec(cache=None), jobs=2)
        events = obs.get_event_log().events()
        routed = [e for e in events if e["kind"] == "net_routed"]
        assert {e["net"] for e in routed} == {f"w{i}" for i in range(6)}
        assert any(e["pid"] != os.getpid() for e in routed)
        assert [e for e in events if e["kind"] == "batch_done"]

    def test_validator_flags_malformed_payloads(self):
        assert obs.validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        assert obs.validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "ts": 1.0, "dur": -2.0,
                              "pid": 1, "tid": 1, "name": "x"}]}
        )
        assert obs.validate_chrome_trace(  # unbalanced B without E
            {"traceEvents": [{"ph": "B", "ts": 0.0, "pid": 1, "tid": 1,
                              "name": "x"}]}
        )
        assert obs.validate_chrome_trace(  # decreasing timestamps
            {"traceEvents": [
                {"ph": "X", "ts": 5.0, "dur": 1.0, "pid": 1, "tid": 1,
                 "name": "a"},
                {"ph": "X", "ts": 1.0, "dur": 1.0, "pid": 1, "tid": 1,
                 "name": "b"},
            ]}
        )
        assert obs.validate_chrome_trace({}) != []
