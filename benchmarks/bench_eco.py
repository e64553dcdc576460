"""Incremental ECO re-routing vs cold full re-routes.

Not a paper artefact: this benchmark quantifies what the PR-10
incremental engine (:mod:`repro.incremental`) buys on delta traffic —
the placer-iteration pattern where a design of N nets absorbs a stream
of one-pin edits and each edit invalidates exactly one net.

The same 200-edit stream is costed two ways:

* **warm** — one :class:`~repro.incremental.engine.IncrementalRouter`
  holds per-net sessions (cache short-circuits, warm local-search seeds)
  and re-routes only the edited net per delta; a DW-tier edit is one
  cold, bounded ``pareto_dw`` of the edited net.
* **cold** — the full re-route model: a fresh engine (empty caches)
  routes the *entire* design again, which is what a non-incremental
  flow pays per edit. Cold runs are timed on a sample of the stream
  (:data:`COLD_SAMPLES` of :data:`DELTAS`) and extrapolated; on every
  sampled edit the warm front is asserted **bit-identical** (trees
  included) to the cold front whenever the edit landed on an exact tier
  — equal quality is checked, not assumed.

Emits

* ``results/eco.txt`` — the warm/cold table, tiers and speedup,
* ``results/BENCH_eco.json`` — obs counters plus the workload config,
* ``results/ledger.jsonl`` — one appended ``eco`` run record carrying
  ``eco.speedup_rate`` / ``eco.warm_mean_ms`` for
  ``repro obs check`` against the committed baseline.

Asserted shape: warm-path speedup **>= 10x** over the full re-route
model and bit-identical sampled fronts.
"""

import json
import random
import time

from repro import obs
from repro.engine import EngineSpec, build_engine
from repro.geometry.net import Net
from repro.incremental import EXACT_TIERS, apply_delta, perturb_nets

from conftest import RESULTS_DIR, write_artifact

NETS = 30           # design size (the cold model re-routes all of them)
DELTAS = 200        # one-pin edits in the stream
COLD_SAMPLES = 10   # edits whose cold re-route is actually timed
MIN_SPEEDUP = 10.0  # gate: warm path must beat full re-routes by this
SPAN = 1000.0

#: Shared coordinate lattice the design's pins are drawn from. Pins that
#: share grid lines make signature-preserving moves common (random
#: off-grid pins almost always drop a Hanan line); the stream is pinned
#: by ``tests/test_incremental.py``.
LATTICE = [SPAN * i / 7.0 for i in range(8)]


def _design():
    """30 uniquely-named degree-7..9 nets on the shared lattice (DW tier)."""
    rng = random.Random(2028)
    nets = []
    for i in range(NETS):
        degree = 7 + i % 3
        pts = set()
        while len(pts) < degree:
            pts.add((rng.choice(LATTICE), rng.choice(LATTICE)))
        ordered = sorted(pts)
        rng.shuffle(ordered)
        nets.append(Net.from_points(ordered[0], ordered[1:], name=f"d{i:03d}"))
    return nets


def _cold_engine():
    """A fresh engine with empty caches (the full re-route model)."""
    return build_engine(EngineSpec(router="patlabor", cache="symmetry"))


def test_eco_speedup_vs_full_reroute():
    obs.reset()
    obs.enable()
    try:
        nets = _design()
        deltas = perturb_nets(nets, seed=2029, kind="move", count=DELTAS)
        sampled = set(random.Random(2030).sample(range(DELTAS), COLD_SAMPLES))

        engine = build_engine(
            EngineSpec(router="patlabor", cache="symmetry", incremental=True)
        )
        for net in nets:
            engine.route(net)

        current = {net.name: net for net in nets}
        warm_seconds = 0.0
        tiers = {}
        cold_samples = []
        exact_checked = 0
        for index, delta in enumerate(deltas):
            result = engine.apply_delta(delta)
            warm_seconds += result.wall_s
            tiers[result.tier] = tiers.get(result.tier, 0) + 1
            current[delta.net] = apply_delta(current[delta.net], delta)
            if index not in sampled:
                continue
            # Cold model: route the whole edited design from scratch.
            cold = _cold_engine()
            t0 = time.perf_counter()
            cold_fronts = {
                name: cold.route(net) for name, net in current.items()
            }
            cold_samples.append(time.perf_counter() - t0)
            if result.tier in EXACT_TIERS:
                exact_checked += 1
                assert result.front == cold_fronts[delta.net], (
                    f"edit #{index} ({delta!r}) via tier {result.tier} "
                    f"diverged from the cold re-route"
                )

        cold_mean = sum(cold_samples) / len(cold_samples)
        cold_seconds = cold_mean * DELTAS  # extrapolated full-stream cost
        speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
        warm_mean_ms = warm_seconds / DELTAS * 1e3

        assert exact_checked > 0, "no sampled edit landed on an exact tier"
        assert speedup >= MIN_SPEEDUP, (
            f"eco speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x gate "
            f"(cold {cold_seconds:.2f}s vs warm {warm_seconds:.2f}s)"
        )

        rows = [
            f"{'model':<26}{'seconds':>10}{'per edit':>12}",
            "-" * 48,
            f"{'full re-route (est.)':<26}{cold_seconds:>10.2f}"
            f"{cold_mean * 1e3:>10.1f}ms",
            f"{'incremental (warm)':<26}{warm_seconds:>10.2f}"
            f"{warm_mean_ms:>10.2f}ms",
            f"\nspeedup: {speedup:.1f}x over {DELTAS} one-pin edits on "
            f"{NETS} nets ({COLD_SAMPLES} cold runs sampled)",
            f"tiers: {dict(sorted(tiers.items()))}",
            f"bit-identical sampled fronts: {exact_checked}/{exact_checked}",
        ]
        write_artifact("eco.txt", "\n".join(rows))

        path = obs.write_bench_json(
            "eco",
            directory=RESULTS_DIR,
            extra={
                "workload": {
                    "nets": NETS,
                    "deltas": DELTAS,
                    "cold_samples": COLD_SAMPLES,
                },
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "speedup": speedup,
                "tiers": tiers,
            },
        )
        payload = json.loads(path.read_text())
        assert payload["speedup"] >= MIN_SPEEDUP
        print(f"\n[metrics written to {path}]")

        record = obs.make_record(
            {
                "eco.speedup_rate": speedup,
                "eco.warm_mean_ms": warm_mean_ms,
                "eco.deltas": float(DELTAS),
            },
            name="eco",
            config={
                "nets": NETS,
                "deltas": DELTAS,
                "cold_samples": COLD_SAMPLES,
            },
        )
        ledger_path = obs.append_record(record, RESULTS_DIR / "ledger.jsonl")
        print(f"[run {record['run_id']} appended to {ledger_path}]")
    finally:
        obs.disable()
        obs.reset()
