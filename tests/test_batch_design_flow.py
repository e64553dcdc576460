"""Tests for batch routing and the design-level congestion flow."""

import random

import pytest

from repro.core.batch import BatchResult, route_batch
from repro.core.patlabor import PatLaborConfig
from repro.engine import EngineSpec
from repro.eval.design_flow import (
    DesignFlowConfig,
    route_design,
)
from repro.geometry.net import Net, random_net


def workload(count=6, seed=1, degrees=(4, 5, 6)):
    rng = random.Random(seed)
    return [
        random_net(rng.choice(degrees), rng=rng, name=f"n{i}")
        for i in range(count)
    ]


class TestRouteBatch:
    def test_serial_routes_everything(self):
        nets = workload()
        result = route_batch(nets, jobs=1)
        assert set(result.fronts) == {n.name for n in nets}
        assert result.total_solutions >= len(nets)
        assert result.seconds > 0

    def test_cache_pays_on_duplicates(self):
        nets = workload(count=3)
        tripled = nets + [n.translated(10, 10) for n in nets] + nets
        # Names collide after translation; rename for unique keys.
        renamed = []
        for i, n in enumerate(tripled):
            renamed.append(Net(pins=n.pins, name=f"m{i}"))
        result = route_batch(renamed, EngineSpec(cache="translation"), jobs=1)
        assert result.cache_hits >= len(nets)

    def test_no_cache_mode(self):
        nets = workload(count=2)
        result = route_batch(nets, EngineSpec(cache=None), jobs=1)
        assert result.cache_hits == 0 and result.cache_misses == 0

    def test_parallel_matches_serial_objectives(self):
        nets = workload(count=6, seed=3)
        serial = route_batch(nets, jobs=1)
        parallel = route_batch(nets, jobs=2)
        assert set(serial.fronts) == set(parallel.fronts)
        for name in serial.fronts:
            a = [(round(w, 6), round(d, 6)) for w, d, _ in serial.fronts[name]]
            b = [(round(w, 6), round(d, 6)) for w, d, _ in parallel.fronts[name]]
            assert a == b

    def test_parallel_drops_payloads(self):
        nets = workload(count=3, seed=4)
        result = route_batch(nets, jobs=2)
        for front in result.fronts.values():
            assert all(p is None for _w, _d, p in front)

    def test_custom_config_propagates(self):
        nets = [random_net(12, rng=random.Random(5), name="big")]
        result = route_batch(
            nets,
            EngineSpec(
                router_options={"config": PatLaborConfig(iterations=1)},
                cache="translation",
            ),
            jobs=1,
        )
        assert result.fronts["big"]


class TestDesignFlow:
    def _nets(self, count=8, seed=7):
        rng = random.Random(seed)
        return [
            random_net(rng.choice((4, 5, 6)), rng=rng, span=1000.0, name=f"d{i}")
            for i in range(count)
        ]

    def test_flow_commits_every_net(self):
        nets = self._nets()
        result = route_design(nets, strategy="pareto")
        assert len(result.outcomes) == len(nets)
        assert result.total_wirelength > 0

    def test_pareto_meets_budgets(self):
        """With the Pareto set available, every feasible budget is met
        (the delay endpoint always satisfies a (1+slack) budget)."""
        nets = self._nets(seed=8)
        result = route_design(nets, strategy="pareto")
        assert result.budget_misses == 0

    def test_shortest_strategy_meets_budgets_with_more_wire(self):
        nets = self._nets(seed=9)
        pareto = route_design(nets, strategy="pareto")
        fast = route_design(nets, strategy="shortest")
        assert fast.budget_misses == 0
        assert pareto.total_wirelength <= fast.total_wirelength + 1e-6

    def test_rsmt_strategy_misses_budgets(self):
        """Timing-blind min-wire trees must blow some delay budgets on a
        tight slack."""
        nets = self._nets(count=12, seed=10)
        config = DesignFlowConfig(delay_slack=0.02)
        rsmt_flow = route_design(nets, strategy="rsmt", config=config)
        pareto_flow = route_design(nets, strategy="pareto", config=config)
        assert pareto_flow.budget_misses <= rsmt_flow.budget_misses
        assert rsmt_flow.budget_misses > 0

    def test_demand_accumulates(self):
        nets = self._nets(seed=11)
        result = route_design(nets, strategy="pareto")
        total_demand = float(result.demand.demand.sum())
        # Every committed wirelength lands somewhere on the grid.
        assert total_demand > 0
        assert total_demand <= result.total_wirelength + 1e-6

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            route_design(self._nets(count=1), strategy="magic")

    def test_overflow_and_utilization_reported(self):
        nets = self._nets(count=10, seed=12)
        config = DesignFlowConfig(capacity=10.0)  # tiny capacity: overflow
        result = route_design(nets, strategy="pareto", config=config)
        assert result.overflow > 0
        assert result.max_utilization > 1.0
