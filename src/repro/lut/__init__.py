"""Lookup tables for small-degree nets: symbolic generation, storage, lookup.

Loading and querying a table needs only :mod:`.table`, :mod:`.cluster`
and :mod:`.default`, which are imported here. The generation names
(:mod:`.generator`, :mod:`.symbolic`) resolve on first use (PEP 562):
only building a table runs them.
"""

from __future__ import annotations

from typing import Any

from .._lazy import resolve_lazy
from .cluster import TopologyPool
from .default import default_router, default_table
from .table import DegreeStats, LookupTable, net_pattern

#: Each lazily re-exported name and the submodule that defines it.
_LAZY = {
    "PatternSolutions": "generator",
    "count_canonical_patterns": "generator",
    "enumerate_canonical_patterns": "generator",
    "generate_degree": "generator",
    "generate_degree_parallel": "generator",
    "solve_pattern": "generator",
    "SymbolicSolution": "symbolic",
    "merge_solutions": "symbolic",
    "prune_front": "symbolic",
    "shift_solution": "symbolic",
    "symbolic_dominates": "symbolic",
}

__all__ = [
    "DegreeStats",
    "LookupTable",
    "PatternSolutions",
    "SymbolicSolution",
    "TopologyPool",
    "count_canonical_patterns",
    "default_router",
    "default_table",
    "enumerate_canonical_patterns",
    "generate_degree",
    "generate_degree_parallel",
    "merge_solutions",
    "net_pattern",
    "prune_front",
    "shift_solution",
    "solve_pattern",
    "symbolic_dominates",
]


def __getattr__(name: str) -> Any:
    """Bind a lazily re-exported name on first use (PEP 562)."""
    return resolve_lazy(globals(), _LAZY, name)
