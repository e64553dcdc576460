"""The benchmark's own self-test: ``python3 perfbench/run.py --self-test``.

Runs a tiny pass of every workload, untraced and traced, and checks that
each reports exactly the metrics ``BENCHMARK.json`` declares, with their
units, and no failures. Then corrupts one front by one unit in the last
place and checks that the correctness gate counts exactly one failure,
and feeds the traced run's reconciliation span sets that must fail it.
"""

from __future__ import annotations

import json
import math
from typing import Dict

import batch
import serve
from common import ROOT, Result
from layers import PER_LAYER, layer_metrics


def _declared() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    layers = {name: unit for name, unit, _ in PER_LAYER}
    if declared["per_layer"] != layers:
        raise AssertionError("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    return declared


def _expect(label: str, result: Result, metrics: Dict[str, str], positive: bool) -> None:
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    problems = []
    if got != metrics:
        problems.append(f"metrics {sorted(got)} != declared {sorted(metrics)}")
    if not result.correct or result.failed or result.attempted < 1:
        problems.append(
            f"correct={result.correct} failed={result.failed} "
            f"attempted={result.attempted}: {result.lines}"
        )
    for name, (value, _) in result.metrics.items():
        if not math.isfinite(value) or (positive and value <= 0):
            problems.append(f"{name} = {value}")
    if problems:
        raise AssertionError(f"{label}: " + "; ".join(problems))
    print(f"ok  {label}: {result.attempted} operations")


def _corrupted_front_is_counted() -> None:
    spec = batch.SPECS["batch_exact"]
    nets = spec.make_nets(3, 8)
    result = Result()
    _, fronts = batch._route_all(batch.build_engine(batch.ENGINE_SPEC), nets, result)
    w, d, tree = fronts[nets[0].name][0]
    fronts[nets[0].name][0] = (math.nextafter(w, math.inf), d, tree)
    batch.check_fronts(spec, nets, fronts, result)
    if result.failed != 1:
        raise AssertionError(f"corrupted front counted {result.failed} times, not once")
    print("ok  one corrupted front counted as one failure")


def _reconciliation_can_fail() -> None:
    spans = {"engine.route": {"total_s": 0.995, "count": 1}}
    cases = {
        "whole pass": (spans, 1.0, 1.0, 0),
        "spans short of the benchmark's timers": (spans, 1.0, 1.2, 1),
        "time outside every span": (spans, 1.2, 1.0, 1),
        "spans of no layer": ({**spans, "mystery": {"total_s": 0.5, "count": 1}}, 1.5, 1.5, 1),
    }
    for label, (case, wall, ops, want) in cases.items():
        roots = sum(s["total_s"] for s in case.values())
        _, problems = layer_metrics(case, {}, wall, roots, ops_s=ops)
        if len(problems) != want:
            raise AssertionError(f"reconciliation, {label}: {problems}")
    print("ok  reconciliation fails on uncovered, unattributed or unclaimed time")


def main() -> int:
    declared = _declared()
    e2e, layer = declared["end_to_end"], declared["per_layer"]
    for name in ("batch_exact", "batch_large"):
        spec = batch.SPECS[name]
        _expect(f"{name} untraced", batch.run_measured(spec, 5, 0.5), e2e, True)
        _expect(f"{name} traced", batch.run_traced(spec, 5, 20 if name == "batch_exact" else 2), layer, False)
    _expect("serve_stream untraced", serve.run_measured(5, 0.5), e2e, True)
    _expect("serve_stream traced", serve.run_traced(5, 40), layer, False)
    _corrupted_front_is_counted()
    _reconciliation_can_fail()
    print("self-test passed")
    return 0
