"""PatLabor: the paper's practical Pareto router (Section V).

Dispatch by net degree:

* ``n <= 3`` — closed form (direct edge / median star; trivially a
  singleton frontier, which is why the paper omits these),
* ``4 <= n <= lambda`` — exact frontier from the lookup table (or directly
  from Pareto-DW when no table covers the degree),
* ``n > lambda`` — the local-search loop: seed with the RSMT, repeatedly
  pick the worst-delay tree in the Pareto set, choose ``lambda - 1`` pins
  with policy π, rebuild their topology exactly together with the source,
  reassemble full trees, post-process SALT-style, and keep the Pareto set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry.net import Net
from ..geometry.point import Point, l1
from ..obs import counter_add, gauge_max, span
from ..routing.arraytree import ArrayTree
from ..routing.attach import attach_cheapest_first
from ..routing.refine import wirelength_refine
from ..routing.tree import RoutingTree
from .frontier import merge_sorted_fronts, pareto_filter_sorted
from .pareto import Solution, clean_front
from .pareto_dw import pareto_dw
from .policy import SelectionPolicy

#: The paper's λ: nets with at most this many pins are solved exactly.
DEFAULT_LAMBDA = 9


@dataclass
class PatLaborConfig:
    """Tunables of the practical method (paper defaults where known)."""

    lam: int = DEFAULT_LAMBDA           # paper's λ = 9
    iterations: Optional[int] = None    # default: floor(n / λ) as in the paper
    post_refine: bool = True            # SALT-style post-processing
    max_front: int = 64                 # safety cap on |𝒯|
    seed: int = 0


class PatLabor:
    """The practical Pareto optimizer for timing-driven routing trees.

    Parameters
    ----------
    lut:
        Optional :class:`~repro.lut.table.LookupTable`. When provided and
        covering a net's degree, small nets are served from the table
        (missing patterns are solved and cached on demand); otherwise
        Pareto-DW computes the frontier directly — both are exact.
    config:
        :class:`PatLaborConfig`; ``lam`` is clamped to the table's covered
        degrees when a table is supplied.
    policy:
        Pin-selection policy π; defaults to the shipped trained weights.
    """

    #: Registry name under which :mod:`repro.engine` exposes this class.
    name = "patlabor"

    def __init__(
        self,
        lut=None,
        config: Optional[PatLaborConfig] = None,
        policy: Optional[SelectionPolicy] = None,
    ) -> None:
        self.lut = lut
        self.config = config or PatLaborConfig()
        self.rng = random.Random(self.config.seed)
        self.policy = policy or SelectionPolicy()
        self._capabilities = None

    @property
    def capabilities(self):
        """:class:`~repro.engine.protocol.RouterCapabilities` of this router.

        The frontier is exact up to the configured lambda; larger nets
        get the local-search approximation (no hard degree limit). Built
        once and rebuilt only when ``config.lam`` changes (the config is
        mutable), since validation reads it on every routed net.
        """
        caps = self._capabilities
        if caps is None or caps.exact_up_to != self.config.lam:
            from ..engine.protocol import RouterCapabilities

            caps = self._capabilities = RouterCapabilities(
                exact_up_to=self.config.lam
            )
        return caps

    # ------------------------------------------------------------ dispatch

    def route(self, net: Net) -> List[Solution]:
        """The Pareto set of ``net``: solutions ``(w, d, tree)``.

        Exact (the full Pareto frontier) for ``net.degree <= lam``; a
        tight approximation above.

        Per-net ``net_routed`` events are emitted by the engine's
        observability middleware (:class:`repro.engine.ObservedRouter`),
        not here — route through :func:`repro.engine.build_engine` to get
        them. Instrumentation never influences results (bit-identical
        either way; see ``tests/test_obs.py``).
        """
        with span("patlabor.route"):
            return self._route_dispatch(net)

    def _route_dispatch(self, net: Net) -> List[Solution]:
        """Degree-based dispatch body of :meth:`route`."""
        if net.degree <= self.config.lam:
            return self.small_frontier(net)
        counter_add("patlabor.dispatch.local_search")
        return self.local_search(net)

    def dispatch_tier(self, net: Net) -> str:
        """Which tier :meth:`route` serves ``net`` from.

        Mirrors the dispatch logic without routing anything:
        ``closed_form`` (degree <= 3), ``lut`` (covered by the table),
        ``dw`` (exact DP), or ``local_search`` (degree > lambda).
        """
        n = net.degree
        if n > self.config.lam:
            return "local_search"
        if n <= 3:
            return "closed_form"
        if self.lut is not None and self.lut.covers(n):
            return "lut"
        return "dw"

    def small_frontier(self, net: Net) -> List[Solution]:
        """Exact frontier for a small net (LUT first, Pareto-DW fallback).

        Dispatch-tier counters (``patlabor.dispatch.*``) include the
        sub-nets local search solves through the same tiers.
        """
        if net.degree <= 3:
            from ..lut.table import _degree2_frontier, _degree3_frontier

            counter_add("patlabor.dispatch.closed_form")
            if net.degree == 2:
                return _degree2_frontier(net)
            return _degree3_frontier(net)
        if self.lut is not None and self.lut.covers(net.degree):
            counter_add("patlabor.dispatch.lut")
            with span("lut.lookup"):
                return self.lut.lookup(net)
        counter_add("patlabor.dispatch.dw")
        return pareto_dw(net)

    # -------------------------------------------------------- local search

    def local_search(
        self, net: Net, seed_tree: Optional[RoutingTree] = None
    ) -> List[Solution]:
        """The paper's local-search loop for ``n > lambda`` nets.

        ``seed_tree`` warm-starts the loop from an existing tree of
        ``net`` (the ECO path adapts the pre-edit tree); by default the
        search seeds from a fresh RSMT, the paper's configuration.
        """
        from ..baselines.rsmt import rsmt

        with span("patlabor.local_search"):
            if seed_tree is None:
                with span("patlabor.rsmt_seed"):
                    seed_tree = rsmt(net)
            w, d = seed_tree.objective()
            front: List[Solution] = [(w, d, seed_tree)]
            n = net.degree
            iters = self.config.iterations
            if iters is None:
                iters = max(1, n // self.config.lam)

            attempted: Set[AttemptKey] = set()
            # A step's additions depend only on its selection, and a
            # selection recurs whenever the worst tree changes but the
            # policy picks the same pins. Keyed in selection order: the
            # order is the sub-net's sink order, which decides the exact
            # solve's tie choices, so only an equal sequence is the same
            # step.
            expansions: Dict[Tuple[int, ...], List[Solution]] = {}
            for _ in range(iters):
                counter_add("patlabor.local_search.iterations")
                worst = max(front, key=lambda s: s[1])
                tree: RoutingTree = worst[2]
                with span("patlabor.policy_select"):
                    selection = self.policy.select(net, tree, self.config.lam - 1)
                counter_add("patlabor.local_search.policy_picks", len(selection))
                key = _attempt_key(worst, selection)
                if key in attempted:
                    # Same move would repeat: explore a random selection instead.
                    counter_add("patlabor.local_search.random_fallbacks")
                    selection = _shuffled_selection(net, self.config.lam - 1, self.rng)
                    key = _attempt_key(worst, selection)
                attempted.add(key)
                with span("patlabor.expand"):
                    # The maintained front is always sorted; only the new
                    # candidates need filtering before the linear union.
                    step = tuple(selection)
                    additions = expansions.get(step)
                    if additions is None:
                        additions = pareto_filter_sorted(
                            self._expand(net, selection)
                        )
                        expansions[step] = additions
                    else:
                        counter_add("patlabor.local_search.reused_expansions")
                    front = merge_sorted_fronts(front, additions)
                if len(front) > self.config.max_front:
                    # Truncate by wirelength but always keep the min-delay
                    # endpoint — dropping it would unanchor the fast end.
                    front = front[: self.config.max_front - 1] + [front[-1]]
            gauge_max("patlabor.front_size", len(front))
            return clean_front(front)

    def _expand(
        self, net: Net, selection: Sequence[int]
    ) -> List[Solution]:
        """One local-search step: rebuild the selected pins exactly and
        reassemble full trees around each sub-frontier topology.

        Returns only the *new* candidate solutions; callers union them
        into their maintained front (sorted fronts merge linearly via
        :func:`~repro.core.frontier.merge_sorted_fronts`)."""
        sub = Net.from_points(
            net.source,
            [net.sinks[i] for i in selection],
            name=f"{net.name}/ls",
        )
        sub_front = self.small_frontier(sub)
        out: List[Solution] = []
        chosen = set(selection)
        rest = [s for i, s in enumerate(net.sinks) if i not in chosen]
        with span("patlabor.reassemble"):
            for idx, (_, _, sub_tree) in enumerate(sub_front):
                full = reassemble(net, sub_tree, rest)
                if self.config.post_refine:
                    full = wirelength_refine(full, delay_cap=full.delay(), max_passes=2)
                w, d = full.objective()
                out.append((w, d, full))
                if idx == len(sub_front) - 1:
                    # The min-delay sub-topology also gets an arrival-aware
                    # reassembly, anchoring the shallow end of the front (the
                    # remaining pins attach on shortest paths, SALT-style).
                    shallow = reassemble(net, sub_tree, rest, mode="arrival")
                    if self.config.post_refine:
                        shallow = wirelength_refine(
                            shallow, delay_cap=shallow.delay(), max_passes=2
                        )
                    w, d = shallow.objective()
                    out.append((w, d, shallow))
        return out


def reassemble(
    net: Net, sub_tree: RoutingTree, rest: List[Point], mode: str = "wire"
) -> RoutingTree:
    """Grow a full-net tree around an exactly-solved sub-topology.

    Seeds a tree with the sub-tree's edges (rooted at the source) and
    Steiner-attaches the remaining pins:

    * ``mode="wire"`` — cheapest connection first (light trees),
    * ``mode="arrival"`` — smallest source→pin arrival first (shallow
      trees; each pin lands on a near-shortest path over the skeleton).
    """
    tree = ArrayTree([net.source], [-1])
    index_map = {0: 0}
    for u in sub_tree.topological_order():
        p = sub_tree.parent[u]
        if p < 0:
            continue
        pt = sub_tree.points[u]
        index_map[u] = tree.attach(pt, index_map[p], None, pt)
    if mode == "wire":
        attach_cheapest_first(tree, rest)
    elif mode == "arrival":
        # SALT-style shallow attachment: process pins farthest-first, and
        # give each the cheapest connection whose arrival stays within a
        # tight budget of its L1 bound (the source always qualifies, so
        # the result's delay matches the sub-tree's optimum / the bound).
        for p in sorted(rest, key=lambda p: -l1(net.source, p)):
            pt = Point(float(p[0]), float(p[1]))
            budget = (1.0 + ARRIVAL_SLACK) * l1(net.source, p)
            tree.attach(pt, *tree.cheapest_within(pt, budget))
    else:
        raise ValueError(f"unknown reassembly mode {mode!r}")
    return tree.finish(net)


#: Per-sink arrival slack of the shallow reassembly variant: 2% over the
#: L1 bound buys substantial wire sharing at negligible delay cost.
ARRIVAL_SLACK = 0.02


#: Dedup key of one local-search move: the expanded tree's objective pair
#: plus the (sorted) pin selection.
AttemptKey = Tuple[Tuple[float, float], Tuple[int, ...]]


def _attempt_key(solution: Solution, selection: Sequence[int]) -> AttemptKey:
    """Stable identity of a local-search move.

    Keyed on the tree's *objective pair*, not ``id(tree)``: CPython
    reuses object ids after garbage collection, so an id-based key could
    silently equate a fresh tree with a dead one and suppress a legal
    move (or, conversely, retry a move already taken). Two trees with
    equal objectives are interchangeable for the search, so the objective
    pair is exactly the right granularity.
    """
    w, d, _tree = solution
    return ((w, d), tuple(sorted(selection)))


def _shuffled_selection(net: Net, k: int, rng: random.Random) -> List[int]:
    idx = list(range(len(net.sinks)))
    rng.shuffle(idx)
    return sorted(idx[:k])


def rollout_improvement(
    net: Net, selection: Sequence[int], lam: int
) -> Tuple[float, List[Tuple[float, float, float, float]]]:
    """Hypervolume gain of one local-search step with a fixed selection.

    Used by the policy trainer: runs a single :meth:`PatLabor._expand`
    against the RSMT seed and reports the hypervolume improvement plus the
    selected pins' features (in selection order, matching how the greedy
    policy would have scored them).
    """
    from ..baselines.rsmt import rsmt
    from .pareto import hypervolume
    from .policy import pin_features

    router = PatLabor(config=PatLaborConfig(lam=lam, post_refine=False))
    seed_tree = rsmt(net)
    w0, d0 = seed_tree.objective()
    base: List[Solution] = [(w0, d0, seed_tree)]
    reference = (2.0 * w0, 2.0 * d0)
    before = hypervolume(base, reference)
    after_front = merge_sorted_fronts(
        base, pareto_filter_sorted(router._expand(net, selection))
    )
    after = hypervolume(after_front, reference)
    delays = seed_tree.sink_delays()
    feats = []
    chosen: List[int] = []
    for i in selection:
        feats.append(pin_features(net, seed_tree, i, chosen, delays))
        chosen.append(i)
    return after - before, feats
