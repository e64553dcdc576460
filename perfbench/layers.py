"""Per-layer metrics from a traced run, and how they should move.

A traced pass enables :mod:`repro.obs` (in every process that runs the
program) and collects its span tree. A span's *self time* is its
duration minus the durations of its child spans; each span name belongs
to one layer (a module of the repository, :data:`SPAN_LAYER`), and a
span this table does not know inherits the layer of its nearest known
ancestor. The self times of all spans sum to the duration of the root
spans, so

    sum(layer self times) + unattributed == wall time of the pass,

where *unattributed* is the part of the wall time outside every root
span (the benchmark's own loop). That identity holds by construction, so
:func:`layer_metrics` checks what can fail instead: the root spans must
cover the benchmark's own per-operation timers (an independent total)
to within :data:`MAX_TIMER_GAP`, and neither the unattributed time nor
the spans no layer claims may exceed :data:`MAX_UNATTRIBUTED` and
:data:`MAX_OTHER` of the wall time.

On the daemon workload the root spans are the client's
``serve.round_trip`` spans; the daemon's and its worker's root spans run
inside them and are adopted as their children, so the round trip's self
time is the ``serve`` layer: queueing, pickling, transport, encoding.
That traced window starts at the client's first request, so it also
covers the ECO session's seeding and the warm-up requests.

Three spans are recorded by the benchmark itself, around calls where
:mod:`repro.obs` has none: ``serve.round_trip`` (the client call),
``routing.refine`` (``repro.routing.refine.wirelength_refine`` as local
search calls it) and ``lut.closed_form`` (the degree-2 and degree-3
closed forms of ``repro.lut.table``, which PatLabor serves without a
span of its own). :func:`benchmark_spans` installs the last two.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from repro import obs
from repro.core import patlabor as patlabor_module
from repro.lut import table as table_module

#: Span name -> layer (repository module).
SPAN_LAYER: Dict[str, str] = {
    "engine.route": "engine",
    "patlabor.route": "patlabor",
    "cache.key": "cache",
    "cache.translate": "cache",
    "cache.transform": "cache",
    "cache.store_get": "cache_store",
    "cache.store_put": "cache_store",
    "lut.lookup": "lut",
    "lut.closed_form": "lut",
    "dw.solve": "pareto_dw",
    "dw.merge": "pareto_dw",
    "dw.closure": "pareto_dw",
    "dw.reconstruct": "pareto_dw",
    "patlabor.local_search": "patlabor",
    "patlabor.rsmt_seed": "patlabor",
    "patlabor.policy_select": "patlabor",
    "patlabor.expand": "patlabor",
    "patlabor.reassemble": "patlabor",
    "routing.refine": "patlabor",
    "eco.apply": "incremental",
    "serve.round_trip": "serve",
}

#: Layers in report order: ``engine`` = the repro.engine middleware
#: (validation and observation wrappers); ``cache`` = repro.core.cache;
#: ``cache_store`` = repro.core.cache_store; ``lut`` = repro.lut, its
#: lookups and the degree-2/3 closed forms; ``pareto_dw`` =
#: repro.core.pareto_dw with repro.core.frontier; ``patlabor`` =
#: repro.core.patlabor, its dispatch and local search, with
#: repro.routing.refine; ``incremental`` = repro.incremental; ``serve``
#: = repro.serve plus transport; ``other`` = spans no layer claims.
LAYERS = (
    "engine", "cache", "cache_store", "lut", "pareto_dw", "patlabor",
    "incremental", "serve", "other",
)

ROUND_TRIP = "serve.round_trip"
REFINE = "routing.refine"
CLOSED_FORM = "lut.closed_form"

#: Reconciliation bounds: unattributed and other time as shares of a
#: traced pass's wall time, the timer gap as a share of the seconds the
#: benchmark timed. The measured values were below 0.3% (unattributed),
#: 0.3% (timer gap) and exactly 0 (other) on every workload.
MAX_UNATTRIBUTED = 0.01
MAX_TIMER_GAP = 0.01
MAX_OTHER = 0.001

#: Every per-layer metric: (name, unit, better). BENCHMARK.json's
#: ``per_layer`` lists exactly these.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("dw.merge_ms", "ms", "lower"),
    ("dw.closure_ms", "ms", "lower"),
    ("dw.subsets", "count", "lower"),
    ("dw.merge_candidates", "count", "lower"),
    ("dw.closure_allocations", "count", "lower"),
    ("ls.seed_ms", "ms", "lower"),
    ("ls.select_ms", "ms", "lower"),
    ("ls.expand_ms", "ms", "lower"),
    ("ls.reassemble_ms", "ms", "lower"),
    ("ls.refine_ms", "ms", "lower"),
    ("ls.iterations", "count", "lower"),
    ("lut.lookups", "count", "higher"),
    ("lut.lookup_ms", "ms", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.key_ms", "ms", "lower"),
    ("store.hits", "count", "higher"),
    ("store.get_ms", "ms", "lower"),
    ("store.put_ms", "ms", "lower"),
    ("serve.worker_ms_p50", "ms", "lower"),
    ("serve.overhead_ms_p50", "ms", "lower"),
    ("serve.served_memory", "count", "higher"),
    ("serve.served_store", "count", "higher"),
    ("serve.served_routed", "count", "lower"),
    ("eco.reuse_ratio", "ratio", "higher"),
    ("eco.tier_cache", "count", "higher"),
    ("eco.tier_dw", "count", "lower"),
    ("eco.apply_ms", "ms", "lower"),
    ("engine.wrap_ms", "ms", "lower"),
] + [(f"layer.{layer}_share", "ratio", "lower") for layer in LAYERS] + [
    ("unattributed_share", "ratio", "lower"),
    ("cpu_per_wall", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("host_speed", "ratio", "higher"),
]

#: Which end-to-end metric each per-layer metric should move, and on
#: which workload. A perf change names its rows here before it is
#: written; every workload it does not list should stay flat.
PREDICTIONS: Dict[str, str] = {
    "dw.*": "nets_per_s on batch_exact (most), batch_large (sub-nets); "
    "serve_stream ECO lane; ~0 on the serve route lane",
    "ls.*": "nets_per_s and norm_delay_mean on batch_large; 0 elsewhere",
    "lut.*": "route_ms_p50 on serve_stream; 0 on batch (route_batch "
    "loads no LUT)",
    "cache.*, store.*": "route_ms_p50 on serve_stream (reads); pure "
    "write overhead on nets_per_s of batch_exact",
    "serve.*": "route_ms_p50 and nets_per_s on serve_stream",
    "eco.*": "nets_per_s on serve_stream (ECO lane)",
    "engine.wrap_ms": "route_ms_p50 on serve_stream; per-net overhead "
    "on nets_per_s of batch_exact",
    "layer.*_share, unattributed_share": "where the wall time went; "
    "a gain claimed for a layer must show as a smaller share there",
    "cpu_per_wall": "below ~1 means the run was starved of CPU",
    "host_speed": "below 1 means the host ran Python slower than nominal; "
    "end-to-end times are already scaled by it",
}


def _in_span(name: str, fn: Callable) -> Callable:
    def wrapped(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapped


@contextmanager
def benchmark_spans() -> Iterator[None]:
    """Record the benchmark's own spans while the block runs.

    PatLabor calls ``wirelength_refine`` through its module's name and
    imports the closed forms from ``repro.lut.table`` at each call, so
    pointing those names at copies that record a span is enough. (If a
    later version stops calling them by these names, the span is simply
    absent and the time stays with the enclosing span's layer.) Forked
    processes started inside the block inherit the copies.
    """
    patches = [
        (patlabor_module, "wirelength_refine", REFINE),
        (table_module, "_degree2_frontier", CLOSED_FORM),
        (table_module, "_degree3_frontier", CLOSED_FORM),
    ]
    saved = []
    for module, attr, name in patches:
        original = getattr(module, attr, None)
        if original is not None:
            saved.append((module, attr, original))
            setattr(module, attr, _in_span(name, original))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(
    spans: Mapping[str, Mapping[str, float]],
    adopted: Mapping[str, float] = {},
) -> Dict[str, float]:
    """Self seconds per span path: total minus the children's totals.

    ``adopted`` adds seconds to subtract from a path as if they were
    its children (remote spans nested in a client round trip).
    """
    totals = {path: float(stat["total_s"]) for path, stat in spans.items()}
    own = dict(totals)
    for path, total in totals.items():
        parent, _, _ = path.rpartition("/")
        if parent in own:
            own[parent] -= total
    for path, seconds in adopted.items():
        if path in own:
            own[path] -= seconds
    return own


def path_layer(path: str) -> str:
    """The layer of a span path: its own name's, else its nearest
    known ancestor's, else ``other``."""
    for name in reversed(path.split("/")):
        if name in SPAN_LAYER:
            return SPAN_LAYER[name]
    return "other"


def root_total(spans: Mapping[str, Mapping[str, float]]) -> float:
    """Seconds covered by the root spans of one process."""
    return sum(float(s["total_s"]) for p, s in spans.items() if "/" not in p)


def _by_name(values: Mapping[str, float], name: str) -> float:
    return sum(v for p, v in values.items() if p.rpartition("/")[2] == name)


def reconciliation_line(values: Mapping[str, float], roots_s: float, ops_s: float) -> str:
    """One report line: how closely the spans account for the pass."""
    return (
        f"reconciliation: timer gap {(ops_s - roots_s) / ops_s:.3%} "
        f"(bound {MAX_TIMER_GAP:.1%}), unattributed "
        f"{values['unattributed_share']:.3%} (bound {MAX_UNATTRIBUTED:.1%}), other "
        f"{values['layer.other_share']:.3%} (bound {MAX_OTHER:.1%})"
    )


def layer_metrics(
    spans: Mapping[str, Mapping[str, float]],
    counters: Mapping[str, float],
    wall_s: float,
    roots_s: float,
    ops_s: float,
    adopted: Mapping[str, float] = {},
) -> Tuple[Dict[str, float], List[str]]:
    """Span- and counter-derived per-layer metrics, plus reconciliation
    problems (an empty list when the layers account for the wall time).

    ``spans`` holds the span paths of every process of the pass;
    ``roots_s`` is the time covered by the root spans of the process
    that owns the wall clock, and ``adopted`` nests the other processes'
    root spans under its paths. ``ops_s`` is the benchmark's own timing
    of the same operations, each timer around one root span.
    """
    own = self_times(spans, adopted)
    totals = {p: float(s["total_s"]) for p, s in spans.items()}
    counts = {p: float(s["count"]) for p, s in spans.items()}
    ms = lambda name: 1e3 * _by_name(own, name)  # noqa: E731
    shares = {layer: 0.0 for layer in LAYERS}
    for path, seconds in own.items():
        shares[path_layer(path)] += seconds
    c = lambda name: float(counters.get(name, 0.0))  # noqa: E731
    looked_up = c("cache.hits") + c("cache.store_hits") + c("cache.misses")
    masks = c("eco.masks_total")
    out: Dict[str, float] = {
        "dw.merge_ms": ms("dw.merge"),
        "dw.closure_ms": ms("dw.closure"),
        "dw.subsets": c("dw.subsets"),
        "dw.merge_candidates": c("dw.merge_candidates"),
        "dw.closure_allocations": c("dw.closure_allocations"),
        "ls.seed_ms": ms("patlabor.rsmt_seed"),
        "ls.select_ms": ms("patlabor.policy_select"),
        "ls.expand_ms": ms("patlabor.expand"),
        "ls.reassemble_ms": ms("patlabor.reassemble"),
        "ls.refine_ms": ms(REFINE),
        "ls.iterations": c("patlabor.local_search.iterations"),
        "lut.lookups": _by_name(counts, "lut.lookup"),
        "lut.lookup_ms": ms("lut.lookup"),
        "cache.hit_rate": (
            (c("cache.hits") + c("cache.store_hits")) / looked_up
            if looked_up else 0.0
        ),
        "cache.key_ms": ms("cache.key"),
        "store.hits": c("cache.store_hits"),
        "store.get_ms": ms("cache.store_get"),
        "store.put_ms": ms("cache.store_put"),
        "eco.reuse_ratio": c("eco.masks_reused") / masks if masks else 0.0,
        "eco.apply_ms": 1e3 * _by_name(totals, "eco.apply"),
        "engine.wrap_ms": ms("engine.route"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}_share"] = shares[layer] / wall_s
    unattributed = wall_s - roots_s
    out["unattributed_share"] = unattributed / wall_s
    problems = []
    gap = ops_s - roots_s
    if gap < -1e-6 * wall_s or gap > MAX_TIMER_GAP * ops_s:
        problems.append(
            f"root spans cover {roots_s:.6f}s of {ops_s:.6f}s timed by the "
            f"benchmark (gap above {MAX_TIMER_GAP:.1%} or negative)"
        )
    if out["unattributed_share"] > MAX_UNATTRIBUTED:
        problems.append(
            f"unattributed {out['unattributed_share']:.2%} of wall time "
            f"(bound {MAX_UNATTRIBUTED:.1%})"
        )
    if out["layer.other_share"] > MAX_OTHER:
        problems.append(
            f"spans of no layer take {out['layer.other_share']:.2%} of wall "
            f"time (bound {MAX_OTHER:.1%})"
        )
    worst = min(own.values(), default=0.0)
    if worst < -1e-6 * wall_s or unattributed < -1e-6 * wall_s:
        problems.append(f"negative self time ({worst:.6f}s): spans overlap")
    return out, problems
