"""Negotiation does not depend on how frontier trees are numbered.

A routing tree's Steiner nodes may be numbered in any order without
changing the tree. :class:`repro.congestion.negotiate.NegotiatedRouter`
compiles each tree's edges in geometric order, so the committed demand —
whose last bits the exact ``total_overuse == 0.0`` convergence test
reads — must come out bitwise equal when every frontier tree is
renumbered.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro import obs
from repro.congestion.negotiate import NegotiatedRouter, NegotiatorConfig, Scenario
from repro.engine.build import build_engine
from repro.routing.tree import RoutingTree


@pytest.fixture(autouse=True)
def _quiet_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def segments(tree):
    """The tree's edges as sorted ``(parent point, child point)`` pairs."""
    return sorted((tree.points[p], tree.points[c]) for c, p in tree.edges())


def renumbered(tree, rng):
    """``tree`` with its Steiner nodes in a random order."""
    pins = tree.net.degree
    n = len(tree.points)
    order = list(range(pins, n))
    rng.shuffle(order)
    # new_of[old] is the new index of node old; pins keep theirs.
    new_of = list(range(pins)) + [0] * (n - pins)
    for new, old in enumerate(order, pins):
        new_of[old] = new
    old_of = list(range(pins)) + order
    points = [tree.points[old] for old in old_of]
    parent = [
        new_of[tree.parent[old]] if tree.parent[old] >= 0 else -1
        for old in old_of
    ]
    return RoutingTree.from_parent(tree.net, points, parent)


class RenumberingEngine:
    """An engine whose frontier trees come back renumbered."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.rng = random.Random(seed)
        self.moved = 0

    def route(self, net):
        front = []
        for w, d, tree in self.inner.route(net):
            other = renumbered(tree, self.rng)
            self.moved += other.parent != tree.parent
            assert segments(other) == segments(tree)
            front.append((w, d, other))
        return front


def run(engine=None):
    scenario = Scenario.random(nets=60, cells=8, seed=7)
    return NegotiatedRouter(scenario, NegotiatorConfig(), engine=engine).run()


@pytest.mark.parametrize("seed", range(3))
def test_demand_is_independent_of_tree_numbering(seed):
    plain = run()
    engine = RenumberingEngine(build_engine(NegotiatorConfig().engine), seed)
    shuffled = run(engine)
    assert engine.moved > 0
    assert shuffled.chosen == plain.chosen
    assert shuffled.grid.demand.tobytes() == plain.grid.demand.tobytes()
    assert shuffled.grid.history.tobytes() == plain.grid.history.tobytes()
