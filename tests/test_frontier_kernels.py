"""Sorted-front operators and Pareto metrics agree with naive references.

* property tests (hypothesis) that :func:`merge_sorted_fronts` and
  :func:`pareto_filter_sorted` return exactly what the enumerate-and-sort
  :func:`~repro.core.pareto.pareto_filter` returns — objectives *and*
  surviving payloads — on random inputs, including duplicate
  objectives, singletons and empty fronts;
* the front metrics of :mod:`repro.core.pareto` against full scans;
* a regression matrix that ``pareto_dw`` returns the same ``(w, d)``
  frontier as its ``kernels=False`` oracle (the tuple DP at every
  degree) on degree 2–9 nets across every Lemma flag combination.

Objective values are drawn from a small pool of integers and non-dyadic
floats so exact ties and rounding collisions occur often instead of
almost never.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import merge_sorted_fronts, pareto_filter_sorted
from repro.core.pareto import (
    count_on_frontier,
    epsilon_indicator,
    is_pareto_front,
    objectives,
    pareto_filter,
    weakly_dominates,
)
from repro.core.pareto_dw import pareto_dw
from repro.geometry.net import random_net

# Small value pool => frequent exact ties; 0.1/0.3 are non-dyadic, so
# sums exercise rounding.
coord = st.one_of(
    st.integers(0, 8).map(float),
    st.sampled_from([0.1, 0.3, 1.7, 2.5, 3.3, 10.1]),
)

few = settings(max_examples=200, deadline=None)


@st.composite
def solution_lists(draw, max_size=12):
    """Arbitrary (unsorted, duplicate-laden) solution lists.

    Payloads are distinct indices so tie-breaking rules are observable.
    """
    n = draw(st.integers(0, max_size))
    return [
        (draw(coord), draw(coord), idx) for idx in range(n)
    ]


@st.composite
def fronts(draw, max_size=12):
    """Sorted fronts, as produced by ``pareto_filter``."""
    return pareto_filter(draw(solution_lists(max_size=max_size)))


# -------------------------------------------------------------- filtering


class TestParetoFilterSorted:
    @few
    @given(solution_lists())
    def test_matches_pareto_filter_exactly(self, sols):
        # Tuple-exact: same objectives *and* same surviving payloads.
        assert pareto_filter_sorted(sols) == pareto_filter(sols)

    @few
    @given(fronts())
    def test_sorted_input_is_a_fixpoint(self, front):
        assert pareto_filter_sorted(front) == front

    @few
    @given(fronts())
    def test_subsequence_fast_path(self, front):
        # Subsequences of a sorted front stay sorted — the linear fast
        # path of the KS truncation — and filtering them is a no-op.
        sub = front[::2]
        assert pareto_filter_sorted(sub) == sub


# ------------------------------------------------------------------ union


class TestMergeSortedFronts:
    @few
    @given(st.lists(fronts(max_size=8), max_size=4))
    def test_matches_filter_of_concatenation(self, front_list):
        combined = [s for f in front_list for s in f]
        # Tuple-exact: ties resolve to the earlier front, matching the
        # first-encountered rule of pareto_filter.
        assert merge_sorted_fronts(*front_list) == pareto_filter(combined)

    @few
    @given(fronts())
    def test_identity_and_empty(self, front):
        assert merge_sorted_fronts(front) == front
        assert merge_sorted_fronts() == []
        assert merge_sorted_fronts([], front, []) == front


# --------------------------------------------------- metric satellites


class TestIsParetoFront:
    @staticmethod
    def _naive(solutions):
        objs = objectives(solutions)
        return not any(
            weakly_dominates(objs[i], objs[j])
            for i in range(len(objs))
            for j in range(len(objs))
            if i != j
        )

    @few
    @given(solution_lists())
    def test_matches_pairwise_reference(self, sols):
        assert is_pareto_front(sols) == self._naive(sols)

    def test_duplicates_are_not_a_front(self):
        assert not is_pareto_front([(1.0, 1.0, "a"), (1.0, 1.0, "b")])

    @few
    @given(solution_lists())
    def test_filter_output_is_a_front(self, sols):
        front = pareto_filter(sols)
        assert is_pareto_front(front)


class TestEpsilonIndicator:
    @staticmethod
    def _naive(candidate, reference):
        if not reference:
            return 1.0
        if not candidate:
            return float("inf")
        worst = 1.0
        for rw, rd in objectives(reference):
            best = float("inf")
            for cw, cd in objectives(candidate):
                fw = (
                    1.0
                    if cw <= rw == 0
                    else (cw / rw if rw > 0 else float("inf"))
                )
                fd = (
                    1.0
                    if cd <= rd == 0
                    else (cd / rd if rd > 0 else float("inf"))
                )
                best = min(best, max(fw, fd, 1.0))
            worst = max(worst, best)
        return worst

    @few
    @given(solution_lists(max_size=10), solution_lists(max_size=10))
    def test_matches_full_scan(self, candidate, reference):
        # Exact equality: the binary search evaluates the same divisions
        # at the same points; zero coordinates take the fallback path.
        assert epsilon_indicator(candidate, reference) == self._naive(
            candidate, reference
        )

    def test_empty_cases(self):
        assert epsilon_indicator([], []) == 1.0
        assert epsilon_indicator([(1.0, 1.0, None)], []) == 1.0
        assert epsilon_indicator([], [(1.0, 1.0, None)]) == float("inf")


class TestCountOnFrontier:
    @staticmethod
    def _naive(candidate, frontier, tol):
        found = 0
        for fw, fd in objectives(frontier):
            for cw, cd in objectives(candidate):
                if abs(cw - fw) <= tol and abs(cd - fd) <= tol:
                    found += 1
                    break
        return found

    @few
    @given(
        solution_lists(max_size=10),
        solution_lists(max_size=10),
        st.sampled_from([0.0, 1e-9, 0.05, 0.5]),
    )
    def test_matches_nested_scan(self, candidate, frontier, tol):
        assert count_on_frontier(candidate, frontier, tol=tol) == self._naive(
            candidate, frontier, tol
        )


# ---------------------------------------------- pareto_dw regression


LEMMA_COMBOS = list(product([False, True], repeat=3))


class TestParetoDWKernelEquivalence:
    """kernels=True and kernels=False return identical (w, d) frontiers."""

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_identical_frontier_across_lemma_flags(self, degree):
        # Small spans keep exact integer arithmetic out of play: real
        # float coordinates exercise the rounding-collision handling.
        net = random_net(
            degree, rng=random.Random(1000 + degree), grid=9, span=90.0
        )
        for lemma2, lemma3, lemma4 in LEMMA_COMBOS:
            kw = dict(
                lemma2=lemma2, lemma3=lemma3, lemma4=lemma4, with_trees=False
            )
            fast = pareto_dw(net, kernels=True, **kw)
            ref = pareto_dw(net, kernels=False, **kw)
            assert objectives(fast) == objectives(ref), (
                f"degree={degree} lemmas={(lemma2, lemma3, lemma4)}"
            )

    @pytest.mark.parametrize("degree", [4, 6, 8])
    def test_identical_frontier_with_trees(self, degree):
        net = random_net(
            degree, rng=random.Random(2000 + degree), grid=9, span=90.0
        )
        fast = pareto_dw(net, kernels=True, with_trees=True)
        ref = pareto_dw(net, kernels=False, with_trees=True)
        assert objectives(fast) == objectives(ref)
        # Payload trees must attain (or weakly dominate) the objectives.
        for w, d, tree in fast:
            tw, td = tree.objective()
            assert tw <= w + 1e-9 and td <= d + 1e-9

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_multiple_seeds_degree_7(self, seed):
        net = random_net(7, rng=random.Random(seed), grid=9, span=90.0)
        fast = pareto_dw(net, kernels=True, with_trees=False)
        ref = pareto_dw(net, kernels=False, with_trees=False)
        assert objectives(fast) == objectives(ref)
