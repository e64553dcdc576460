"""Congestion extension: the paper's future-work metric, implemented.

Tri-objective (wirelength, delay, congestion) Pareto optimisation —
exact for small nets, embedding-optimised annotation for any net — plus
the chip-scale PathFinder negotiation subsystem
(:mod:`repro.congestion.negotiate`): thousands of nets on one
:class:`CapacityGrid`, each swapping between its precomputed frontier
points as congestion prices move.
"""

from .model import CapacityGrid, scan_cells
from .negotiate import (
    IterationStats,
    NegotiatedRouter,
    NegotiationResult,
    NegotiatorConfig,
    Scenario,
)
from .pareto3 import (
    Solution3,
    dominates3,
    is_pareto_front3,
    pareto_filter3,
    project_wd,
    weakly_dominates3,
)
from .router import (
    congestion_annotated_front,
    embed_min_congestion,
    pareto_dw3,
)

__all__ = [
    "CapacityGrid",
    "IterationStats",
    "NegotiatedRouter",
    "NegotiationResult",
    "NegotiatorConfig",
    "Scenario",
    "Solution3",
    "congestion_annotated_front",
    "dominates3",
    "embed_min_congestion",
    "is_pareto_front3",
    "pareto_dw3",
    "pareto_filter3",
    "project_wd",
    "scan_cells",
    "weakly_dominates3",
]
