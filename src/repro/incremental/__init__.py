"""Incremental / ECO rerouting: re-route only the nets an edit touches.

Production routing traffic is a stream of small edits — a pin moves, a
blockage appears, a net gains a sink — not batches of fresh nets. This
package makes those edits cheap without giving up exactness:

* :class:`~repro.incremental.delta.NetDelta` — one typed edit, with a
  diff-friendly ``.deltas`` replay format and deterministic
  perturbation generators.
* :class:`~repro.incremental.engine.IncrementalRouter` — engine
  middleware holding per-net sessions: cache short-circuits, a cold
  exact re-solve of the edited net (:func:`~repro.core.pareto_dw.pareto_dw`),
  and warm-started local search. Exact tiers stay bit-identical to cold
  re-routes.
* :func:`~repro.congestion.negotiate.NegotiatedRouter.run_incremental`
  (in :mod:`repro.congestion`) — connection-based rip-up: only nets
  overlapping dirty cells renegotiate, history prices preserved.

The daemon speaks this as the ``eco`` request type (protocol v2), the
CLI as ``repro eco``; ``benchmarks/bench_eco.py`` gates the ≥10x
warm-path speedup.
"""

from __future__ import annotations

from .delta import (
    DELTA_KINDS,
    NetDelta,
    apply_delta,
    delta_from_payload,
    delta_to_payload,
    dump_deltas,
    format_delta,
    grid_preserving_move,
    load_deltas,
    parse_deltas,
    perturb_nets,
    save_deltas,
)
from .engine import EXACT_TIERS, EcoResult, IncrementalRouter, adapt_tree

__all__ = [
    "DELTA_KINDS",
    "EXACT_TIERS",
    "NetDelta",
    "EcoResult",
    "IncrementalRouter",
    "adapt_tree",
    "apply_delta",
    "delta_from_payload",
    "delta_to_payload",
    "dump_deltas",
    "format_delta",
    "grid_preserving_move",
    "load_deltas",
    "parse_deltas",
    "perturb_nets",
    "save_deltas",
]
