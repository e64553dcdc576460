"""Chip-scale negotiated-congestion routing over Pareto frontiers.

The classic PathFinder negotiation loop — iterative rip-up-and-reroute
with present + history congestion pricing — with PatLabor's twist: each
net's (wirelength, delay) Pareto frontier is computed **once** (through
the standard :func:`repro.engine.build.build_engine` stack, so the cache
tiers apply), and per iteration the negotiator re-*prices* every frontier
point's min-congestion embedding under the current cell prices and swaps
the net to the cheapest delay-feasible point, instead of rerouting a
single tree from scratch.

The loop (see ``docs/architecture.md`` for the diagram)::

    prepare:   frontier per net (build_engine) -> rasterize every
               (point, edge, L-orientation) onto the CapacityGrid once
    iterate:   for each net, by criticality:
                   rip up its previous demand
                   price all frontier points (vectorized bincount over
                       the precomputed rasterization)
                   pick the cheapest feasible point, commit its demand
               overuse == 0 ? converged : history += overuse,
                                          pres_fac *= mult, repeat

Convergence is tracked per iteration (total overuse, overused cells,
WNS-style worst delay-budget violation, total wirelength, swaps) and
emitted as ``negotiate_iter`` events plus ``negotiate.*`` counters and
gauges; :meth:`NegotiationResult.metrics` returns the flat dict the run
ledger ingests (``negotiate.iterations`` / ``negotiate.final_overuse`` /
``negotiate.worst_delay`` — all lower-is-better in the diff engine).

The single-tree rip-up baseline is the same loop with every net pinned to
one frontier point (``NegotiatorConfig.point_policy``, resolved through
:func:`repro.engine.resolve_point_policy` — the hook the serve daemon
shares), so frontier swapping and the baseline differ in exactly one
degree of freedom.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core.pareto import Solution
from ..engine.build import SERVING_ENGINE, EngineSpec, build_engine
from ..geometry.net import Net, random_net
from ..routing.embedding import embed_edge
from .model import Array, CapacityGrid, np

if TYPE_CHECKING:  # runtime import is lazy (repro.incremental is optional here)
    from ..incremental.delta import NetDelta

#: Delay-budget comparison slack (mirrors ``eval.design_flow``).
_FEAS_EPS = 1e-9


@dataclass
class NegotiatorConfig:
    """Tunables of one negotiation run.

    Attributes
    ----------
    pres_fac_first, pres_fac_mult:
        The PathFinder present-cost schedule: iteration 1 prices overuse
        at ``pres_fac_first``; every later iteration multiplies by
        ``pres_fac_mult``.
    hist_fac, hist_gain:
        History pricing: after each congested iteration every cell's
        history grows by ``hist_gain * overuse`` and is priced into the
        base weight at ``hist_fac``.
    max_iterations:
        Rip-up/re-commit passes before giving up (the iteration cap).
    delay_slack:
        Per-net delay budget ``(1 + slack) * delay_lower_bound`` — only
        frontier points meeting their budget are eligible (Held–Perner
        style guardrail). The min-delay point is always eligible.
    point_policy:
        ``None`` negotiates over the whole frontier (the PatLabor mode).
        A policy spec (e.g. ``"min_delay"``) pins every net to that one
        frontier point, turning the loop into the classic single-tree
        rip-up baseline.
    engine:
        :class:`~repro.engine.build.EngineSpec` used to compute each
        net's frontier once (default
        :data:`~repro.engine.build.SERVING_ENGINE`: shipped LUT +
        symmetry cache).
    """

    pres_fac_first: float = 0.5
    pres_fac_mult: float = 1.6
    hist_fac: float = 0.3
    hist_gain: float = 1.0
    max_iterations: int = 40
    delay_slack: float = 0.25
    point_policy: Optional[str] = None
    engine: EngineSpec = SERVING_ENGINE


@dataclass
class IterationStats:
    """Convergence snapshot after one full rip-up/re-commit pass."""

    index: int
    total_overuse: float
    overused_cells: int
    worst_delay: float
    total_wirelength: float
    swaps: int
    pres_fac: float
    seconds: float


@dataclass
class _CompiledNet:
    """One net's frontier, rasterized once onto the scenario grid.

    Every (frontier point, tree edge, L-orientation) triple is a *group*:
    ``cat_idx`` / ``cat_len`` / ``cat_gid`` concatenate all groups' flat
    cell indices, in-cell lengths, and group ids, so one ``bincount``
    prices the whole frontier; ``group_cells`` keeps each group's own
    arrays for committing the chosen point's demand. ``point_slices[k]``
    is ``(g0, E)``: point ``k`` owns groups ``g0 .. g0 + 2E - 1``,
    ordered edge-major with the lower-L orientation first.
    """

    net: Net
    front: List[Solution]
    budget: float
    criticality: float
    allowed: List[int]
    point_w: Array
    point_d: Array
    point_slices: List[Tuple[int, int]]
    group_cells: List[Tuple[Array, Array]]
    outside_cost: Array
    cat_idx: Array
    cat_len: Array
    cat_gid: Array
    n_groups: int

    def point_costs(self, flat_prices: Array) -> Tuple[Array, Array]:
        """Congestion cost of every frontier point under current prices.

        Returns ``(costs, group_costs)``: per-point totals (each edge
        taking its cheaper orientation, ties to the lower L — the same
        rule as ``CapacityGrid.best_edge_cost``) and the per-group costs
        needed to recover the chosen orientations.
        """
        if self.cat_idx.size:
            gcost = np.bincount(
                self.cat_gid,
                weights=self.cat_len * flat_prices[self.cat_idx],
                minlength=self.n_groups,
            )
        else:
            gcost = np.zeros(self.n_groups)
        gcost = gcost + self.outside_cost
        costs = np.empty(len(self.point_slices))
        for k, (g0, edges) in enumerate(self.point_slices):
            pair = gcost[g0:g0 + 2 * edges].reshape(edges, 2)
            lower = pair[:, 0] <= pair[:, 1]
            costs[k] = np.where(lower, pair[:, 0], pair[:, 1]).sum()
        return costs, gcost

    def commit_arrays(self, k: int, gcost: Array) -> Tuple[Array, Array]:
        """The chosen point's demand, with per-edge orientations resolved."""
        g0, edges = self.point_slices[k]
        idx_parts: List[Array] = []
        len_parts: List[Array] = []
        for e in range(edges):
            g = g0 + 2 * e
            if gcost[g] > gcost[g + 1]:
                g += 1
            idx, lengths = self.group_cells[g]
            if idx.size:
                idx_parts.append(idx)
                len_parts.append(lengths)
        if not idx_parts:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        return np.concatenate(idx_parts), np.concatenate(len_parts)


@dataclass
class Scenario:
    """A whole-chip routing problem: many nets competing on one grid.

    ``grid`` is the capacity template — every negotiation run starts from
    :meth:`CapacityGrid.fresh` of it, so one scenario can be replayed
    under different configs (frontier vs pinned-point baseline) without
    cross-talk. Compiled per-net state (frontiers + rasterizations) is
    cached on the scenario and shared by those runs.
    """

    nets: Sequence[Net]
    grid: CapacityGrid
    _compiled: Optional[List[_CompiledNet]] = field(
        default=None, repr=False, compare=False
    )
    _compiled_slack: Optional[float] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def random(
        cls,
        nets: int = 500,
        *,
        cells: int = 16,
        span: float = 1000.0,
        degrees: Tuple[int, int] = (4, 6),
        capacity: Optional[float] = None,
        utilization: float = 0.45,
        seed: int = 2029,
    ) -> "Scenario":
        """A reproducible synthetic scenario with real contention.

        ``capacity`` defaults so that the nets' total half-perimeter
        wirelength, spread perfectly evenly, would fill each cell to
        ``utilization`` — random clustering then pushes hot cells over
        capacity, which is the contention negotiation exists to resolve.
        """
        rng = random.Random(seed)
        lo, hi = degrees
        net_list = [
            random_net(rng.randint(lo, hi), rng=rng, span=span, name=f"n{i:04d}")
            for i in range(nets)
        ]
        if capacity is None:
            hpwl = 0.0
            for net in net_list:
                xs = [p.x for p in net.pins]
                ys = [p.y for p in net.pins]
                hpwl += (max(xs) - min(xs)) + (max(ys) - min(ys))
            capacity = hpwl / float(cells * cells) / utilization
        grid = CapacityGrid.uniform(
            0.0, 0.0, span, span, cells, cells, capacity=capacity
        )
        return cls(nets=net_list, grid=grid)

    def perturb(
        self,
        seed: int,
        kind: str = "move",
        count: int = 1,
        blockage_scale: float = 0.5,
    ) -> List["NetDelta"]:
        """A deterministic ECO stream against this scenario's nets.

        Delegates to :func:`repro.incremental.delta.perturb_nets` with
        the grid frame as the coordinate span; ``kind`` is one of
        ``"move"`` / ``"add"`` / ``"remove"`` / ``"blockage"``
        (``blockage_scale`` sets how hard blockages bite). The stream is
        valid replayed in order (each delta is generated against the
        design as edited by the previous ones) and the same ``(seed,
        kind, count)`` always yields the same deltas.
        """
        from ..incremental.delta import perturb_nets

        span = self.grid.nx * self.grid.cell
        return perturb_nets(
            list(self.nets),
            seed,
            kind=kind,
            count=count,
            span=span,
            blockage_scale=blockage_scale,
        )


class NegotiatedRouter:
    """The PathFinder negotiator: frontiers once, price-and-swap per pass.

    Usage::

        scenario = Scenario.random(nets=500)
        result = NegotiatedRouter(scenario).run()
        assert result.converged and result.final_overuse == 0.0

    Frontier computation goes through :func:`repro.engine.build_engine`
    (pass ``config.engine`` to change the stack, e.g. to attach the
    persistent cache tier); an already-built engine can be injected via
    ``engine=`` (how the serve daemon would share its resident engine).
    """

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[NegotiatorConfig] = None,
        *,
        engine: Optional[Any] = None,
    ) -> None:
        """Bind a scenario and config; the engine is resolved lazily."""
        self.scenario = scenario
        self.config = config or NegotiatorConfig()
        self._engine = engine
        self._compiled: Optional[List[_CompiledNet]] = None

    # ------------------------------------------------------------ prepare

    def _resolve_engine(self) -> Any:
        """The frontier source: injected engine or the configured stack."""
        if self._engine is None:
            self._engine = build_engine(self.config.engine)
        return self._engine

    def prepare(self) -> List[_CompiledNet]:
        """Compute + rasterize every net's frontier (idempotent, cached).

        The compiled state is cached on the *scenario* keyed by the delay
        slack, so a frontier run and a pinned-point baseline over the
        same scenario route each net exactly once.
        """
        if self._compiled is not None:
            return self._compiled
        scenario = self.scenario
        if (
            scenario._compiled is not None
            and scenario._compiled_slack == self.config.delay_slack
        ):
            self._compiled = scenario._compiled
            return self._compiled
        engine = self._resolve_engine()
        grid = scenario.grid
        compiled: List[_CompiledNet] = []
        with obs.span("negotiate.prepare"):
            for net in scenario.nets:
                front = list(engine.route(net))
                compiled.append(self._compile_net(net, front, grid))
                obs.counter_add("negotiate.points", len(front))
        obs.counter_add("negotiate.nets", len(compiled))
        scenario._compiled = compiled
        scenario._compiled_slack = self.config.delay_slack
        self._compiled = compiled
        return compiled

    def _compile_net(
        self, net: Net, front: List[Solution], grid: CapacityGrid
    ) -> _CompiledNet:
        """Rasterize one net's frontier onto the grid frame."""
        budget = (1.0 + self.config.delay_slack) * net.delay_lower_bound()
        point_w = np.array([w for w, _d, _t in front])
        point_d = np.array([d for _w, d, _t in front])
        allowed = [
            k for k, d in enumerate(point_d) if d <= budget + _FEAS_EPS
        ]
        if not allowed:
            allowed = [int(np.argmin(point_d))]
        point_slices: List[Tuple[int, int]] = []
        group_cells: List[Tuple[Array, Array]] = []
        outside_cost: List[float] = []
        idx_parts: List[Array] = []
        len_parts: List[Array] = []
        gid_parts: List[Array] = []
        for _w, _d, tree in front:
            # Edges in geometric order, (parent point, child point): the
            # per-point cost sums and commit_arrays' np.add.at then follow
            # the tree's shape, not how its nodes happen to be numbered.
            edges = sorted(
                (tree.points[parent], tree.points[child])
                for child, parent in tree.edges()
            )
            point_slices.append((len(group_cells), len(edges)))
            for a, b in edges:
                for lower_l in (True, False):
                    seg_idx: List[Array] = []
                    seg_len: List[Array] = []
                    outside = 0.0
                    for seg in embed_edge(a, b, lower_l=lower_l):
                        idx, lengths, out = grid.rasterize_segment(seg)
                        seg_idx.append(idx)
                        seg_len.append(lengths)
                        outside += out
                    gidx = (
                        np.concatenate(seg_idx)
                        if seg_idx
                        else np.empty(0, dtype=np.int64)
                    )
                    glen = (
                        np.concatenate(seg_len)
                        if seg_len
                        else np.empty(0, dtype=np.float64)
                    )
                    gid = len(group_cells)
                    group_cells.append((gidx, glen))
                    outside_cost.append(outside * grid.outside_weight)
                    if gidx.size:
                        idx_parts.append(gidx)
                        len_parts.append(glen)
                        gid_parts.append(
                            np.full(gidx.size, gid, dtype=np.int64)
                        )
        n_groups = len(group_cells)
        return _CompiledNet(
            net=net,
            front=front,
            budget=budget,
            criticality=net.delay_lower_bound(),
            allowed=allowed,
            point_w=point_w,
            point_d=point_d,
            point_slices=point_slices,
            group_cells=group_cells,
            outside_cost=np.asarray(outside_cost, dtype=np.float64),
            cat_idx=(
                np.concatenate(idx_parts)
                if idx_parts
                else np.empty(0, dtype=np.int64)
            ),
            cat_len=(
                np.concatenate(len_parts)
                if len_parts
                else np.empty(0, dtype=np.float64)
            ),
            cat_gid=(
                np.concatenate(gid_parts)
                if gid_parts
                else np.empty(0, dtype=np.int64)
            ),
            n_groups=n_groups,
        )

    def _candidate_points(self, compiled: _CompiledNet) -> List[int]:
        """Frontier indices a net may occupy under the configured mode."""
        if self.config.point_policy is None:
            return compiled.allowed
        from ..engine.protocol import resolve_point_policy

        policy = resolve_point_policy(self.config.point_policy)
        return [policy.select(compiled.net, compiled.front)]

    # ---------------------------------------------------------------- run

    def run(self) -> "NegotiationResult":
        """Negotiate until overuse hits zero or the iteration cap."""
        compiled = self.prepare()
        grid = self.scenario.grid.fresh()
        n = len(compiled)
        chosen: List[Optional[int]] = [None] * n
        committed: List[Optional[Tuple[Array, Array]]] = [None] * n
        converged, iterations = self._negotiate(
            compiled, grid, list(range(n)), chosen, committed
        )
        return self._result(
            compiled, grid, converged, iterations, chosen, committed
        )

    def _negotiate(
        self,
        compiled: List[_CompiledNet],
        grid: CapacityGrid,
        dirty: List[int],
        chosen: List[Optional[int]],
        committed: List[Optional[Tuple[Array, Array]]],
    ) -> Tuple[bool, List[IterationStats]]:
        """The PathFinder loop over the ``dirty`` nets.

        Every other net keeps the demand already committed on ``grid``.
        ``chosen`` / ``committed`` are updated in place; returns whether
        overuse reached zero and the per-pass statistics.
        """
        grid.pres_fac = self.config.pres_fac_first
        grid.hist_fac = self.config.hist_fac
        candidates = {i: self._candidate_points(compiled[i]) for i in dirty}
        order = sorted(dirty, key=lambda i: (-compiled[i].criticality, i))
        iterations: List[IterationStats] = []
        for iteration in range(1, self.config.max_iterations + 1):
            t0 = time.perf_counter()
            swaps = 0
            with obs.span("negotiate.iteration"):
                for i in order:
                    c = compiled[i]
                    prev = committed[i]
                    if prev is not None:
                        grid.ripup(*prev)
                    costs, gcost = c.point_costs(grid.flat_prices())
                    best: Optional[Tuple[float, float, float, int]] = None
                    for k in candidates[i]:
                        key = (
                            float(costs[k]),
                            float(c.point_w[k]),
                            float(c.point_d[k]),
                            k,
                        )
                        if best is None or key < best:
                            best = key
                    assert best is not None
                    k = best[3]
                    arrays = c.commit_arrays(k, gcost)
                    grid.commit(*arrays)
                    if chosen[i] is not None and chosen[i] != k:
                        swaps += 1
                    chosen[i] = k
                    committed[i] = arrays
            seconds = time.perf_counter() - t0
            stats = self._iteration_stats(
                iteration, grid, compiled, chosen, swaps, seconds
            )
            iterations.append(stats)
            self._publish_iteration(stats)
            if stats.total_overuse == 0.0:
                return True, iterations
            grid.update_history(self.config.hist_gain)
            grid.escalate(self.config.pres_fac_mult)
        return False, iterations

    def _result(
        self,
        compiled: List[_CompiledNet],
        grid: CapacityGrid,
        converged: bool,
        iterations: List[IterationStats],
        chosen: List[Optional[int]],
        committed: List[Optional[Tuple[Array, Array]]],
    ) -> "NegotiationResult":
        """Key the per-net choices by name and publish the final gauges."""
        chosen_map: Dict[str, int] = {}
        committed_map: Dict[str, Tuple[Array, Array]] = {}
        for i, c in enumerate(compiled):
            final_k = chosen[i]
            name = c.net.name or f"net{i}"
            chosen_map[name] = int(final_k) if final_k is not None else 0
            arrays = committed[i]
            if arrays is not None:
                committed_map[name] = arrays
        result = NegotiationResult(
            converged=converged,
            iterations=iterations,
            chosen=chosen_map,
            grid=grid,
            committed=committed_map,
        )
        obs.gauge_set("negotiate.final_overuse", result.final_overuse)
        obs.gauge_set("negotiate.worst_delay", result.worst_delay)
        return result

    # ------------------------------------------------------ incremental run

    @staticmethod
    def _region_cells(
        grid: CapacityGrid, region: Tuple[float, float, float, float]
    ) -> Array:
        """Flat indices of every cell intersecting ``region`` (clamped)."""
        x0, y0, x1, y1 = region
        ix0 = max(0, int(math.floor((min(x0, x1) - grid.xlo) / grid.cell)))
        ix1 = min(
            grid.nx - 1, int(math.floor((max(x0, x1) - grid.xlo) / grid.cell))
        )
        iy0 = max(0, int(math.floor((min(y0, y1) - grid.ylo) / grid.cell)))
        iy1 = min(
            grid.ny - 1, int(math.floor((max(y0, y1) - grid.ylo) / grid.cell))
        )
        if ix1 < ix0 or iy1 < iy0:
            return np.empty(0, dtype=np.int64)
        ix = np.arange(ix0, ix1 + 1, dtype=np.int64)
        iy = np.arange(iy0, iy1 + 1, dtype=np.int64)
        return (ix[:, None] * grid.ny + iy[None, :]).reshape(-1)

    def run_incremental(
        self, previous: "NegotiationResult", delta: "NetDelta"
    ) -> "NegotiationResult":
        """Connection-based rip-up: renegotiate only what ``delta`` dirties.

        Applies ``delta`` to the scenario in place (a net delta replaces
        the named net and recompiles only its rasterization; a blockage
        delta scales the capacity template over its region), then
        partitions the design: **dirty** nets — the edited net plus
        every net whose previously committed demand touches a dirty cell
        (the edited net's old and new cells, or the blockage region) —
        renegotiate from the PathFinder schedule's start, while every
        other net has its previous committed demand replayed verbatim
        and never moves. History prices carry over from ``previous``
        (the VTR ``was_rerouted`` shape: invalidation is per connection,
        accumulated congestion knowledge is not thrown away).

        Falls back to a full :meth:`run` over the updated scenario —
        compiled state is already cached, so frontier work is not
        repeated — when the frozen-background negotiation cannot reach
        zero overuse within the iteration cap. Raises ``ValueError``
        when ``previous`` lacks committed state or names an unknown net.
        """
        if previous.committed is None:
            raise ValueError(
                "previous result lacks committed state; produce it with "
                "run() on this NegotiatedRouter version"
            )
        from ..incremental.delta import apply_delta as apply_net_delta

        compiled = self.prepare()
        scenario = self.scenario
        n_cells = scenario.grid.nx * scenario.grid.ny
        dirty_mask = np.zeros(n_cells, dtype=bool)
        edited_idx: Optional[int] = None
        with obs.span("negotiate.eco_prepare"):
            if delta.kind == "blockage":
                assert delta.region is not None
                cells = self._region_cells(scenario.grid, delta.region)
                scenario.grid.capacity.reshape(-1)[cells] *= delta.scale
                dirty_mask[cells] = True
            else:
                names = [c.net.name for c in compiled]
                try:
                    edited_idx = names.index(delta.net)
                except ValueError:
                    raise ValueError(
                        f"delta names unknown net {delta.net!r}"
                    ) from None
                prev_commit = previous.committed.get(delta.net)
                if prev_commit is not None and prev_commit[0].size:
                    dirty_mask[prev_commit[0]] = True
                new_net = apply_net_delta(compiled[edited_idx].net, delta)
                engine = self._resolve_engine()
                front = list(engine.route(new_net))
                compiled[edited_idx] = self._compile_net(
                    new_net, front, scenario.grid
                )
                nets = list(scenario.nets)
                nets[edited_idx] = new_net
                scenario.nets = nets
                if compiled[edited_idx].cat_idx.size:
                    dirty_mask[compiled[edited_idx].cat_idx] = True
        dirty: List[int] = []
        chosen: List[Optional[int]] = [None] * len(compiled)
        committed: List[Optional[Tuple[Array, Array]]] = [None] * len(compiled)
        grid = scenario.grid.fresh()
        grid.history = previous.grid.history.copy()
        for i, c in enumerate(compiled):
            name = c.net.name or f"net{i}"
            prev_arrays = previous.committed.get(name)
            if (
                i == edited_idx
                or prev_arrays is None
                or (prev_arrays[0].size and bool(dirty_mask[prev_arrays[0]].any()))
            ):
                dirty.append(i)
                chosen[i] = previous.chosen.get(name)
            else:
                grid.commit(*prev_arrays)
                committed[i] = prev_arrays
                chosen[i] = previous.chosen.get(name, 0)
        obs.counter_add("negotiate.eco_rerouted", len(dirty))
        obs.counter_add("negotiate.eco_replayed", len(compiled) - len(dirty))
        converged, iterations = self._negotiate(
            compiled, grid, dirty, chosen, committed
        )
        if not converged:
            # The frozen background can wedge negotiation (a clean net may
            # need to move to free a cell) — widen to a full re-run; the
            # cached compiled state makes this pure negotiation work.
            obs.counter_add("negotiate.eco_fallbacks")
            return self.run()
        return self._result(
            compiled, grid, converged, iterations, chosen, committed
        )

    def _iteration_stats(
        self,
        iteration: int,
        grid: CapacityGrid,
        compiled: List[_CompiledNet],
        chosen: List[Optional[int]],
        swaps: int,
        seconds: float,
    ) -> IterationStats:
        """Aggregate one pass's convergence numbers."""
        worst = 0.0
        wirelength = 0.0
        for c, k in zip(compiled, chosen):
            if k is None:  # pragma: no cover - every net is committed
                continue
            worst = max(worst, float(c.point_d[k]) - c.budget)
            wirelength += float(c.point_w[k])
        return IterationStats(
            index=iteration,
            total_overuse=grid.total_overuse(),
            overused_cells=grid.overused_cells(),
            worst_delay=max(0.0, worst),
            total_wirelength=wirelength,
            swaps=swaps,
            pres_fac=grid.pres_fac,
            seconds=seconds,
        )

    def _publish_iteration(self, stats: IterationStats) -> None:
        """One iteration's observability: event, counters, timer."""
        obs.emit_event(
            "negotiate_iter",
            iteration=stats.index,
            overuse=stats.total_overuse,
            overused_cells=stats.overused_cells,
            worst_delay=stats.worst_delay,
            wirelength=stats.total_wirelength,
            swaps=stats.swaps,
            pres_fac=stats.pres_fac,
            wall_s=stats.seconds,
        )
        obs.counter_add("negotiate.iterations")
        obs.counter_add("negotiate.swaps", stats.swaps)
        obs.timer_observe("negotiate.iteration_seconds", stats.seconds)


@dataclass
class NegotiationResult:
    """Outcome of one negotiation run.

    ``chosen`` maps net name to the frontier index the net ended on;
    ``grid`` is the run's own grid (demand as committed — hand it to
    :func:`repro.viz.overuse_heatmap_svg` for the congestion picture).
    ``committed`` retains every net's final rasterized demand arrays —
    the state :meth:`NegotiatedRouter.run_incremental` replays for nets
    an ECO delta does not touch.
    """

    converged: bool
    iterations: List[IterationStats]
    chosen: Dict[str, int]
    grid: CapacityGrid
    committed: Optional[Dict[str, Tuple[Array, Array]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def iteration_count(self) -> int:
        """How many rip-up/re-commit passes ran."""
        return len(self.iterations)

    @property
    def final_overuse(self) -> float:
        """Total overuse after the last pass (0.0 iff converged)."""
        return self.iterations[-1].total_overuse if self.iterations else 0.0

    @property
    def worst_delay(self) -> float:
        """WNS-style worst delay-budget violation of the final choice."""
        return self.iterations[-1].worst_delay if self.iterations else 0.0

    @property
    def total_wirelength(self) -> float:
        """Total wirelength of the final per-net choices."""
        return (
            self.iterations[-1].total_wirelength if self.iterations else 0.0
        )

    @property
    def total_swaps(self) -> int:
        """Frontier-point swaps summed over every pass."""
        return sum(s.swaps for s in self.iterations)

    def metrics(self, prefix: str = "negotiate") -> Dict[str, float]:
        """The flat metric dict ledger records carry (see ``obs.ledger``)."""
        return {
            f"{prefix}.iterations": float(self.iteration_count),
            f"{prefix}.converged": 1.0 if self.converged else 0.0,
            f"{prefix}.final_overuse": self.final_overuse,
            f"{prefix}.overused_cells": float(
                self.iterations[-1].overused_cells if self.iterations else 0
            ),
            f"{prefix}.worst_delay": self.worst_delay,
            f"{prefix}.total_wirelength": self.total_wirelength,
            f"{prefix}.swaps": float(self.total_swaps),
        }
