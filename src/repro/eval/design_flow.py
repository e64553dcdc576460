"""Design-level sequential routing flow with congestion feedback.

The paper motivates Pareto sets with DGR-style global routing: per-net
*candidate sets* let the router negotiate congestion. This module plays
that flow on a whole synthetic design:

1. nets are routed in decreasing-size order onto a shared demand grid,
2. each net picks, from its candidate set, the tree minimising a
   negotiation cost (congestion under current demand) subject to a
   per-net delay budget,
3. the chosen tree's segments are committed as demand; cell weights grow
   superlinearly with utilisation, steering later nets away,
4. the flow reports total wirelength, delay-budget misses, and overflow.

Three strategies make the comparison of the paper's intro concrete:

* ``"pareto"``   — choose among PatLabor's full Pareto set,
* ``"rsmt"``     — always the minimum-wirelength tree (timing-blind),
* ``"shortest"`` — always the RSMA tree (wire-blind).

:func:`route_design` is the *one-pass* flow (each net commits once, in
order, and never reconsiders). :func:`route_design_negotiated` maps the
same :class:`DesignFlowConfig` onto the iterative PathFinder negotiator
(:mod:`repro.congestion.negotiate`), which rips up and re-chooses
frontier points across iterations until no cell is over capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..congestion.model import CapacityGrid
from ..core.pareto import Solution
from ..core.patlabor import PatLabor
from ..geometry.net import Net
from ..routing.embedding import embed_edge
from ..routing.tree import RoutingTree


@dataclass
class DesignFlowConfig:
    """Tunables of the sequential flow."""

    span: float = 1000.0        # routing region [0, span]^2
    cells: int = 16             # demand grid resolution
    capacity: float = 250.0     # wire length a cell absorbs at weight 1
    delay_slack: float = 0.25   # per-net budget: (1 + slack) * lower bound
    congestion_exponent: float = 2.0


@dataclass
class NetOutcome:
    """One net's committed choice."""

    net_name: str
    wirelength: float
    delay: float
    delay_budget: float
    met_budget: bool
    congestion_cost: float


@dataclass
class DesignFlowResult:
    """Whole-flow summary.

    ``demand`` is the flow's grid: committed wirelength per cell in its
    ``demand`` array, ``capacity`` in every cell.
    """

    outcomes: List[NetOutcome]
    demand: CapacityGrid
    capacity: float

    @property
    def total_wirelength(self) -> float:
        return sum(o.wirelength for o in self.outcomes)

    @property
    def budget_misses(self) -> int:
        return sum(0 if o.met_budget else 1 for o in self.outcomes)

    @property
    def overflow(self) -> float:
        """Total demand beyond capacity, summed over cells in scan order."""
        return sum(self.demand.overuse().ravel().tolist())

    @property
    def max_utilization(self) -> float:
        return self.demand.max_utilization()


def _negotiation_cost_grid(
    demand: CapacityGrid, capacity: float, exponent: float
) -> CapacityGrid:
    """Cell weights 1 + (utilisation)^exponent — the negotiation pricing.

    Evaluated in Python floats: NumPy's vectorised ``power`` need not
    round like ``float.__pow__``.
    """
    weights = [
        [1.0 + (d / capacity) ** exponent for d in col]
        for col in demand.demand.tolist()
    ]
    return CapacityGrid(demand.xlo, demand.ylo, demand.cell, weights)


def _commit(tree: RoutingTree, demand: CapacityGrid) -> None:
    """Commit a tree's lower-L demand one segment at a time, in scan order."""
    for child, parent in tree.edges():
        for seg in embed_edge(tree.points[parent], tree.points[child]):
            demand.commit(*demand.rasterize_segment(seg)[:2])


def route_design(
    nets: Sequence[Net],
    strategy: str = "pareto",
    config: Optional[DesignFlowConfig] = None,
    router: Optional[PatLabor] = None,
) -> DesignFlowResult:
    """Run the sequential congestion-negotiated flow over a net list."""
    config = config or DesignFlowConfig()
    router = router or PatLabor()
    demand = CapacityGrid.uniform(
        0, 0, config.span, config.span, config.cells, config.cells,
        capacity=config.capacity,
    )
    ordered = sorted(nets, key=lambda n: -n.degree)
    outcomes: List[NetOutcome] = []
    for net in ordered:
        budget = (1.0 + config.delay_slack) * net.delay_lower_bound()
        candidates = _candidates(net, strategy, router)
        cost_grid = _negotiation_cost_grid(
            demand, config.capacity, config.congestion_exponent
        )
        best: Optional[Tuple[float, Solution]] = None
        for sol in candidates:
            w, d, tree = sol
            cost = cost_grid.tree_cost(tree)
            feasible = d <= budget + 1e-9
            # Feasible candidates compete on congestion; infeasible ones
            # only matter when nothing is feasible (then min delay wins).
            key = (0 if feasible else 1, cost if feasible else d)
            if best is None or key < best[0]:
                best = (key, sol)
        _, (w, d, tree) = best
        _commit(tree, demand)
        outcomes.append(
            NetOutcome(
                net_name=net.name or "net",
                wirelength=w,
                delay=d,
                delay_budget=budget,
                met_budget=d <= budget + 1e-9,
                congestion_cost=cost_grid.tree_cost(tree),
            )
        )
    return DesignFlowResult(
        outcomes=outcomes, demand=demand, capacity=config.capacity
    )


def route_design_negotiated(
    nets: Sequence[Net],
    config: Optional[DesignFlowConfig] = None,
    *,
    max_iterations: int = 40,
    point_policy: Optional[str] = None,
):
    """Run the iterative PathFinder negotiation over a net list.

    The :class:`DesignFlowConfig` frame carries over directly: the region
    is ``[0, span]^2`` cut into ``cells × cells`` capacity cells of
    ``config.capacity`` routable wirelength each, and every net's delay
    budget is ``(1 + delay_slack) × delay_lower_bound``. Unlike
    :func:`route_design`, nets negotiate across iterations — see
    :class:`repro.congestion.negotiate.NegotiatedRouter`. Requires NumPy.

    Returns the :class:`repro.congestion.negotiate.NegotiationResult`.
    """
    from ..congestion.negotiate import (
        NegotiatedRouter,
        NegotiatorConfig,
        Scenario,
    )

    config = config or DesignFlowConfig()
    grid = CapacityGrid.uniform(
        0,
        0,
        config.span,
        config.span,
        config.cells,
        config.cells,
        capacity=config.capacity,
    )
    scenario = Scenario(nets=list(nets), grid=grid)
    negotiator = NegotiatedRouter(
        scenario,
        NegotiatorConfig(
            delay_slack=config.delay_slack,
            max_iterations=max_iterations,
            point_policy=point_policy,
        ),
    )
    return negotiator.run()


#: Candidate-set strategies, mapped to :mod:`repro.engine` registry names
#: ("pareto" uses the caller's PatLabor instance instead).
_STRATEGY_ROUTERS = {"rsmt": "rsmt", "shortest": "rsma"}


def _candidates(
    net: Net, strategy: str, router: PatLabor
) -> List[Solution]:
    if strategy == "pareto":
        return router.route(net)
    try:
        name = _STRATEGY_ROUTERS[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    from ..engine import create_router

    return create_router(name).route(net)
