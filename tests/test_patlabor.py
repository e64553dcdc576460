"""Tests for the PatLabor driver: dispatch, optimality, local search."""

import random

import pytest

from repro.core.pareto import dominates, is_pareto_front, weakly_dominates
from repro.core.pareto_dw import pareto_dw, pareto_frontier
from repro.core.patlabor import PatLabor, PatLaborConfig, reassemble
from repro.core.policy import SelectionPolicy
from repro.geometry.net import Net, random_net
from repro.routing.validate import check_tree


class TestSmallDegreeDispatch:
    def test_degree2_single_solution(self):
        net = Net.from_points((0, 0), [(3, 4)])
        front = PatLabor().route(net)
        assert len(front) == 1
        assert front[0][:2] == (7.0, 7.0)

    def test_degree3_median_star(self):
        net = Net.from_points((0, 0), [(10, 2), (4, 8)])
        front = PatLabor().route(net)
        assert len(front) == 1
        w, d, tree = front[0]
        # The median star is simultaneously optimal in both objectives:
        # median point (4, 2), three spokes of length 6 = HPWL = 18.
        assert w == 18
        assert d == 12
        check_tree(tree, hanan=True)

    @pytest.mark.parametrize("degree", [4, 5, 6, 7])
    def test_exact_for_small_degrees(self, degree, assert_fronts_equal):
        rng = random.Random(degree)
        for _ in range(3):
            net = random_net(degree, rng=rng)
            assert_fronts_equal(
                PatLabor().route(net), pareto_dw(net, with_trees=False)
            )

    def test_uses_lut_when_supplied(self, lut45, assert_fronts_equal):
        rng = random.Random(77)
        router = PatLabor(lut=lut45)
        for _ in range(5):
            net = random_net(5, rng=rng)
            assert_fronts_equal(router.route(net), pareto_dw(net, with_trees=False))


class TestLocalSearch:
    def test_front_contains_rsmt_wirelength(self):
        from repro.baselines.rsmt import rsmt

        net = random_net(20, rng=random.Random(1))
        front = PatLabor().route(net)
        w_rsmt = rsmt(net).wirelength()
        assert front[0][0] <= w_rsmt + 1e-9

    def test_front_is_antichain_of_valid_trees(self):
        net = random_net(25, rng=random.Random(2))
        front = PatLabor().route(net)
        assert is_pareto_front(front)
        for w, d, tree in front:
            check_tree(tree)
            assert abs(tree.wirelength() - w) < 1e-6
            assert abs(tree.delay() - d) < 1e-6

    def test_iterations_improve_delay(self):
        """The local search must push delay meaningfully below the RSMT's."""
        from repro.baselines.rsmt import rsmt

        net = random_net(30, rng=random.Random(3))
        seed_delay = rsmt(net).delay()
        front = PatLabor().route(net)
        assert min(d for _w, d, _t in front) < seed_delay

    def test_iterations_config_respected(self):
        net = random_net(24, rng=random.Random(4))
        quick = PatLabor(config=PatLaborConfig(iterations=1))
        deep = PatLabor(config=PatLaborConfig(iterations=6))
        f_quick = quick.route(net)
        f_deep = deep.route(net)
        # More iterations never hurt the best achieved delay.
        assert min(d for _w, d, _t in f_deep) <= min(
            d for _w, d, _t in f_quick
        ) + 1e-9

    def test_deterministic_given_seed(self):
        net = random_net(18, rng=random.Random(6))
        a = [(w, d) for w, d, _ in PatLabor(config=PatLaborConfig(seed=5)).route(net)]
        b = [(w, d) for w, d, _ in PatLabor(config=PatLaborConfig(seed=5)).route(net)]
        assert a == b

    def test_dominates_or_ties_salt_everywhere(self):
        """Paper claim: PatLabor's curve is at least as tight as SALT's.

        Checked as: no SALT solution strictly dominates every PatLabor
        solution (SALT never strictly improves on the whole front)."""
        from repro.baselines.salt import salt_sweep

        rng = random.Random(8)
        for _ in range(2):
            net = random_net(15, rng=rng)
            ours = PatLabor().route(net)
            theirs = salt_sweep(net)
            for w, d, _t in theirs:
                assert not all(
                    dominates((w, d), (ow, od)) for ow, od, _ in ours
                )


class TestReassemble:
    def test_spans_and_preserves_subtree_root(self):
        net = random_net(12, rng=random.Random(10))
        sub = Net.from_points(net.source, list(net.sinks[:5]))
        sub_front = pareto_dw(sub)
        rest = list(net.sinks[5:])
        for _w, _d, sub_tree in sub_front:
            full = reassemble(net, sub_tree, rest)
            check_tree(full)

    def test_no_rest_pins(self):
        net = random_net(6, rng=random.Random(11))
        sub_front = pareto_dw(net)
        for _w, _d, sub_tree in sub_front:
            full = reassemble(net, sub_tree, [])
            assert abs(full.wirelength() - sub_tree.wirelength()) < 1e-9


class TestPolicyIntegration:
    def test_custom_policy_is_used(self):
        calls = []

        class Probe(SelectionPolicy):
            def select(self, net, tree, k):
                calls.append(k)
                return super().select(net, tree, k)

        router = PatLabor(policy=Probe(), config=PatLaborConfig(lam=6))
        router.route(random_net(14, rng=random.Random(12)))
        assert calls and all(k == 5 for k in calls)


class TestArrivalReassembly:
    def test_arrival_mode_invariants(self):
        """mode="arrival" trees validate and keep every sink within the
        documented per-sink arrival slack over its L1 bound."""
        from repro.core.patlabor import ARRIVAL_SLACK
        from repro.geometry.point import l1

        rng = random.Random(21)
        for _ in range(5):
            net = random_net(10, rng=rng)
            # A degree-2 skeleton: the direct edge is per-sink shortest,
            # so the arrival invariant must hold for *every* sink.
            sub = Net.from_points(net.source, [net.sinks[0]])
            _w, _d, sub_tree = pareto_dw(sub)[-1]
            rest = list(net.sinks[1:])
            full = reassemble(net, sub_tree, rest, mode="arrival")
            check_tree(full)
            delays = full.sink_delays()
            for sink, arrival in zip(full.net.sinks, delays):
                bound = (1.0 + ARRIVAL_SLACK) * l1(full.net.source, sink)
                assert arrival <= bound + 1e-9, (
                    f"sink {sink} arrives at {arrival}, budget {bound}"
                )

    def test_unknown_mode_raises_value_error(self):
        net = random_net(6, rng=random.Random(22))
        sub = Net.from_points(net.source, [net.sinks[0]])
        _w, _d, sub_tree = pareto_dw(sub)[-1]
        with pytest.raises(ValueError, match="unknown reassembly mode"):
            reassemble(net, sub_tree, list(net.sinks[1:]), mode="bogus")


class TestAttemptKeyDedup:
    def test_key_is_identity_free(self):
        """Regression: the local-search dedup key must not depend on
        ``id(tree)`` — CPython reuses ids after GC, which silently
        suppressed legal moves. Equal-objective trees now share a key."""
        from repro.core.patlabor import _attempt_key

        net = random_net(6, rng=random.Random(23))
        front = pareto_dw(net)
        w, d, tree = front[0]
        clone = tree.copy()
        assert clone is not tree
        sel = (3, 1, 2)
        assert _attempt_key((w, d, tree), sel) == _attempt_key((w, d, clone), sel)
        # Sorted-selection normalisation is preserved...
        assert _attempt_key((w, d, tree), (1, 2, 3)) == _attempt_key((w, d, tree), sel)
        # ...and distinct objectives / selections still get distinct keys.
        assert _attempt_key((w + 1.0, d, tree), sel) != _attempt_key((w, d, tree), sel)
        assert _attempt_key((w, d, tree), (1, 2)) != _attempt_key((w, d, tree), sel)

    def test_local_search_deterministic_across_gc_pressure(self):
        """Same net, same seed => same front, regardless of allocator
        reuse between runs (the failure mode of the id-based key)."""
        import gc

        net = random_net(16, rng=random.Random(24))
        a = PatLabor(config=PatLaborConfig(seed=0)).route(net)
        gc.collect()
        junk = [object() for _ in range(10000)]  # churn the allocator
        del junk
        b = PatLabor(config=PatLaborConfig(seed=0)).route(net)
        assert [(w, d) for w, d, _ in a] == [(w, d) for w, d, _ in b]


class TestExpansionReuse:
    """A local-search step whose selection recurs reuses its additions."""

    @staticmethod
    def unmemoized(router, net, selections):
        """The search loop re-expanding every step: the memo's oracle."""
        from repro.baselines.rsmt import rsmt
        from repro.core.frontier import merge_sorted_fronts, pareto_filter_sorted
        from repro.core.pareto import clean_front

        seed_tree = rsmt(net)
        w, d = seed_tree.objective()
        front = [(w, d, seed_tree)]
        for selection in selections:
            additions = pareto_filter_sorted(router._expand(net, selection))
            front = merge_sorted_fronts(front, additions)
            if len(front) > router.config.max_front:
                front = front[: router.config.max_front - 1] + [front[-1]]
        return clean_front(front)

    def test_one_solve_per_distinct_selection(self, monkeypatch):
        from repro import obs
        from repro.core import patlabor as patlabor_module
        from repro.eval.benchmarks import synth_net

        # Found by search: this net's local search repeats a selection.
        net = synth_net(27, random.Random(9))
        solves = []
        selections = []
        real_dw = patlabor_module.pareto_dw
        real_select = SelectionPolicy.select

        def dw_spy(sub, **kw):
            solves.append(tuple(sub.sinks))
            return real_dw(sub, **kw)

        real_shuffled = patlabor_module._shuffled_selection

        def select_spy(self, net_, tree, k):
            picked = real_select(self, net_, tree, k)
            selections.append(list(picked))
            return picked

        def shuffled_spy(net_, k, rng):
            # A repeated move is replaced by a random selection.
            picked = real_shuffled(net_, k, rng)
            selections[-1] = list(picked)
            return picked

        monkeypatch.setattr(patlabor_module, "pareto_dw", dw_spy)
        monkeypatch.setattr(SelectionPolicy, "select", select_spy)
        monkeypatch.setattr(patlabor_module, "_shuffled_selection", shuffled_spy)
        router = PatLabor()
        obs.reset()
        obs.enable()
        try:
            front = router.route(net)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        distinct = {tuple(s) for s in selections}
        assert len(solves) == len(set(solves)) == len(distinct)
        reused = len(selections) - len(distinct)
        assert reused >= 1
        assert counters["patlabor.local_search.reused_expansions"] == reused

        monkeypatch.undo()
        want = self.unmemoized(PatLabor(), net, selections)
        assert [(w, d) for w, d, _ in front] == [(w, d) for w, d, _ in want]
        assert [(t.points, t.edges()) for _, _, t in front] == [
            (t.points, t.edges()) for _, _, t in want
        ]
