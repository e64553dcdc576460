"""``batch_exact`` and ``batch_large``: nets through the batch engine.

The engine is the stack ``route_batch`` builds with default arguments
(``jobs=1``: PatLabor behind the translation cache, assembled by the
public :func:`repro.engine.build_engine`), built once per pass, outside
the timing, as set-up. Each net is then one ``engine.route(net)`` call:
the per-net outer loop of a global router, which calls the Steiner
oracle once per net, timed from outside the program. The nets are
unique, so the cache only misses and inserts (its write side), into one
cache that grows over the run.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.engine import EngineSpec, build_engine
from repro.geometry.net import Net

import inputs
from checks import check_trees, norm_delay_mean, objectives, reference, same_front
from common import (
    ROOT,
    Result,
    SpeedProbe,
    hygiene_line,
    lane_line,
    median,
    peak_rss_mb,
    self_cpu_s,
)
from layers import (
    PER_LAYER,
    benchmark_spans,
    layer_metrics,
    reconciliation_line,
    root_total,
)

#: Set-up samples per run (the reported ``setup_s`` is their median).
SETUP_SAMPLES = 5

#: The engine stack ``route_batch(nets)`` builds with default arguments.
ENGINE_SPEC = EngineSpec(router="patlabor", cache="translation")

#: The reference costs about 1.3x the router, so checking every net
#: would more than double a run; the oracle sees a sample of the
#: costliest degrees instead: every ``ORACLE_EVERY[d]``-th net of degree
#: ``d`` (every net of the other degrees). Every net gets the tree checks.
ORACLE_EVERY = {8: 2, 9: 6}

Front = List[Tuple[float, float, object]]


@dataclass(frozen=True)
class BatchSpec:
    """One batch workload: its nets and how many of them a run routes."""

    make_nets: Callable[[int, int], List[Net]]
    per_second: float  # nets routed per requested second of --seconds
    traced: int  # nets in the fixed-size traced pass
    warmup: int  # nets of the untimed warm-up (drawn with another seed)
    oracle: bool  # compare with the DW reference (exact tiers only)


SPECS: Dict[str, BatchSpec] = {
    "batch_exact": BatchSpec(inputs.exact_nets, 35.0, 200, 6, True),
    "batch_large": BatchSpec(inputs.large_nets, 2.0, 10, 1, False),
}


def _setup_sample() -> Tuple[float, float]:
    """Seconds for a fresh interpreter to import the program and build
    the batch engine and the shipped LUT (``setup_probe.py``), raw and
    in reference seconds."""
    script = ROOT / "perfbench" / "setup_probe.py"
    speed = SpeedProbe()
    speed.tick(4)
    out = subprocess.run(
        [sys.executable, str(script)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    speed.tick(4)
    raw = float(out.stdout.strip().splitlines()[-1])
    return raw, raw * speed.factor


def _route_all(
    engine, nets: List[Net], result: Result, speed: Optional[SpeedProbe] = None
) -> Tuple[List[float], Dict[str, Optional[Front]]]:
    """Route ``nets`` on ``engine``, one call each; ``speed`` ticks
    between calls. Returns the per-call seconds and the fronts."""
    seconds: List[float] = []
    fronts: Dict[str, Optional[Front]] = {}
    for net in nets:
        t0 = time.perf_counter()
        try:
            front: Optional[Front] = engine.route(net)
        except Exception as exc:  # a failed net is counted, not fatal
            front = None
            result.fail(f"{net.name}: {type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - t0)
        fronts[net.name] = front
        if speed is not None:
            speed.maybe_tick()
    return seconds, fronts


def check_fronts(
    spec: BatchSpec, nets: List[Net], fronts: Dict[str, Optional[Front]], result: Result
) -> Dict[str, List[Tuple[float, float]]]:
    """The correctness gate; returns the objectives of the good fronts."""
    good: Dict[str, List[Tuple[float, float]]] = {}
    seen: Dict[int, int] = {}
    for net in nets:
        front = fronts[net.name]
        if front is None:
            continue  # already counted when the call raised
        if not check_trees(front):
            result.fail(f"{net.name}: invalid tree, objective or front")
            continue
        got = objectives(front)
        if spec.oracle:
            index = seen[net.degree] = seen.get(net.degree, -1) + 1
            sampled = index % ORACLE_EVERY.get(net.degree, 1) == 0
            if sampled and not same_front(got, reference(net), exact=True):
                result.fail(f"{net.name}: front differs from pareto_dw(kernels=False)")
                continue
        good[net.name] = got
    return good


def _quality(nets: List[Net], good: Dict[str, List[Tuple[float, float]]], result: Result) -> None:
    kept = [net for net in nets if net.name in good]
    result.metric("norm_delay_mean", norm_delay_mean(kept, good), "ratio", len(kept))
    result.metric(
        "solutions_per_net", sum(len(good[n.name]) for n in kept) / len(kept), "count",
        len(kept),
    )


def run_measured(spec: BatchSpec, seed: int, seconds: float) -> Result:
    """The untraced run: every end-to-end metric.

    Times are reported in reference seconds (:class:`SpeedProbe`);
    the raw figures are printed alongside.
    """
    result = Result()
    setup = [_setup_sample() for _ in range(SETUP_SAMPLES)]
    result.phase("setup")
    done = spec.make_nets(seed, max(1, round(seconds * spec.per_second)))
    engine = build_engine(ENGINE_SPEC)
    _route_all(engine, spec.make_nets(seed + 7919, spec.warmup), result)
    result.phase("inputs")

    speed = SpeedProbe()
    cpu0 = self_cpu_s()
    t0 = time.perf_counter()
    per_net, fronts = _route_all(engine, done, result, speed)
    wall = time.perf_counter() - t0
    cpu = self_cpu_s() - cpu0
    rss = peak_rss_mb()

    result.phase("run")
    result.attempted = len(done)
    good = check_fronts(spec, done, fronts, result)
    result.phase("checks")
    busy = sum(per_net)
    result.metric("setup_s", median([ref for _, ref in setup]), "s", len(setup))
    result.metric("nets_per_s", len(done) / (busy * speed.factor), "1/s", len(done))
    result.metric("route_ms_p50", median(per_net) * speed.factor * 1e3, "ms", len(per_net))
    _quality(done, good, result)
    result.metric("peak_rss_mb", rss, "MB", 1)
    result.phase("quality")
    result.lines += [
        "setup samples (raw s): " + ", ".join(f"{raw:.3f}" for raw, _ in setup),
        lane_line("per-net route lane (raw)", per_net, (0.5, 0.9, 0.99)),
        f"nets routed: {len(done)} in {wall:.3f}s wall, {busy:.3f}s in engine.route "
        f"(raw {len(done) / busy:.3f} nets/s)",
        hygiene_line(cpu, wall, speed.factor),
    ]
    return result


def _traced_pass(nets: List[Net], warmup: List[Net], result: Result):
    """One fixed pass with repro.obs and the benchmark's spans on, on a
    fresh engine warmed up outside it; returns its fronts, wall, CPU,
    the per-net seconds and the registry snapshot."""
    engine = build_engine(ENGINE_SPEC)
    _route_all(engine, warmup, result)
    obs.reset()
    obs.enable()
    try:
        with benchmark_spans():
            cpu0 = self_cpu_s()
            t0 = time.perf_counter()
            per_net, fronts = _route_all(engine, nets, result)
            wall = time.perf_counter() - t0
            cpu = self_cpu_s() - cpu0
        snap = obs.get_registry().snapshot()
    finally:
        obs.disable()
        obs.reset()
    return fronts, wall, cpu, per_net, snap


def _work_signature(snap) -> Dict[str, object]:
    """What must repeat exactly between traced passes of one seed."""
    return {
        "counters": snap["counters"],
        "span_counts": {p: s["count"] for p, s in snap["spans"].items()},
    }


def run_traced(spec: BatchSpec, seed: int, nets_count: Optional[int] = None) -> Result:
    """The traced run: one fixed pass traced, untraced, traced again."""
    result = Result()
    nets = spec.make_nets(seed, nets_count or spec.traced)
    warmup = spec.make_nets(seed + 7919, spec.warmup)

    speed = SpeedProbe()
    speed.tick(10)
    first = _traced_pass(nets, warmup, result)
    engine = build_engine(ENGINE_SPEC)
    _route_all(engine, warmup, result)
    t0 = time.perf_counter()
    _, plain = _route_all(engine, nets, result)
    plain_wall = time.perf_counter() - t0
    passes = [first, _traced_pass(nets, warmup, result)]
    result.attempted = 3 * len(nets)
    check_fronts(spec, nets, plain, result)
    for fronts, _, _, _, _ in passes:
        for net in nets:
            got, want = fronts[net.name], plain[net.name]
            if got is None or want is None or objectives(got) != objectives(want):
                result.fail(f"{net.name}: traced front differs from untraced")
    speed.tick(10)
    signatures = [_work_signature(snap) for _, _, _, _, snap in passes]
    if signatures[0] != signatures[1]:
        result.correct = False
        result.lines.append("FAILED: counters differ between two traced passes")

    _, wall, cpu, per_net, snap = passes[0]
    spans = snap["spans"]
    roots, ops = root_total(spans), sum(per_net)
    layer, problems = layer_metrics(spans, snap["counters"], wall, roots, ops_s=ops)
    result.lines.append(reconciliation_line(layer, roots, ops))
    for problem in problems:
        result.correct = False
        result.lines.append(f"FAILED reconciliation: {problem}")
    values: Dict[str, float] = dict(layer)
    values.update({
        "serve.worker_ms_p50": 0.0,
        "serve.overhead_ms_p50": 0.0,
        "serve.served_memory": 0.0,
        "serve.served_store": 0.0,
        "serve.served_routed": 0.0,
        "eco.tier_cache": 0.0,
        "eco.tier_dw": 0.0,
        "cpu_per_wall": cpu / wall,
        "trace.overhead": (wall + passes[1][1]) / 2 / plain_wall,
        "trace.wall_s": wall,
        "host_speed": speed.factor,
    })
    result.lines += [
        f"fixed pass: {len(nets)} nets, traced {wall:.3f}s and {passes[1][1]:.3f}s, "
        f"untraced {plain_wall:.3f}s",
        hygiene_line(cpu, wall, speed.factor),
    ]
    for name, unit, _ in PER_LAYER:
        result.metric(name, values[name], unit)
    return result
