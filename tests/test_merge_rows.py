"""The array Pareto-DW engine's live merge rows against the row-grid oracle.

Per subset cardinality the array engine merges only the rows ``(mask,
node, split)`` whose two factor fronts are non-empty:
:func:`repro.core.pareto_dw._live_merge_rows` reads them off one boolean
cube per chunk of masks. The oracle is the dense row grid the engine
built before: every ``(mask, bbox node, split)`` row, mask-major,
node-major, split-minor, with each mask's bounding box and split list
computed in Python, kept where both factor counts are positive. The two
must agree row for row and in order — ``(mask, node, q1, p1, p2)`` —
on every call of a solve, for every lemma flag, candidate budget,
bounded or not, and on the solves ECO pin moves on a lattice run.
"""

import importlib
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pareto_dw import (
    _boundary_order,
    _pareto_dw_on,
    _splits_for_mask,
    pareto_dw,
)
from repro.geometry.hanan import HananGrid
from repro.geometry.net import Net
from repro.incremental.delta import apply_delta, grid_preserving_move

pareto_dw_module = importlib.import_module("repro.core.pareto_dw")

BUDGETS = (1, 64, 8192)

#: Largest degree each budget is exercised at: a budget of one product
#: makes every (mask, node) its own batch, which is slow at degree 9+.
MAX_DEGREE_AT = {1: 7, 64: 8, 8192: 10}


def oracle_rows(net, masks, CNT, PTR, lemma2, lemma3, lemma4):
    """The dense row grid of ``masks`` filtered to live rows.

    Columns ``(mask, node, q1, p1, p2)``; this is the array engine's
    former per-group row construction, with per-mask Python bounding
    boxes and :func:`_splits_for_mask` split lists.
    """
    grid = HananGrid.of_net(net)
    sink_nodes = grid.pin_nodes()[1:]
    corner = set(grid.corner_nodes()) if lemma2 else set()
    nodes = [v for v in grid.nodes() if v not in corner]
    boundary_rank = _boundary_order(grid, sink_nodes) if lemma4 else None
    group = []
    for mask in masks:
        bits = [i for i in range(len(sink_nodes)) if mask >> i & 1]
        if lemma3:
            ixs = [sink_nodes[i][0] for i in bits]
            iys = [sink_nodes[i][1] for i in bits]
            bb = np.array(
                [
                    vi
                    for vi, (ix, iy) in enumerate(nodes)
                    if min(ixs) <= ix <= max(ixs) and min(iys) <= iy <= max(iys)
                ],
                dtype=np.int64,
            )
        else:
            bb = np.arange(len(nodes), dtype=np.int64)
        submasks = _splits_for_mask(mask, bits, len(bits), boundary_rank, None)
        group.append((mask, submasks, bb))
    ns_arr = np.array([len(sm) for _, sm, _ in group], dtype=np.int64)
    nb_arr = np.array([bb.shape[0] for _, _, bb in group], dtype=np.int64)
    rows_per_mask = ns_arr * nb_arr
    total_rows = int(rows_per_mask.sum())
    sub_all = np.array([q for _, sm, _ in group for q in sm], dtype=np.int64)
    bb_all = np.concatenate([bb for _, _, bb in group])
    sub_starts = np.concatenate(([0], np.cumsum(ns_arr)[:-1]))
    row_starts = np.concatenate(([0], np.cumsum(rows_per_mask)[:-1]))
    bb_starts = np.concatenate(([0], np.cumsum(nb_arr)[:-1]))
    mask_of_row = np.repeat(np.arange(len(group), dtype=np.int64), rows_per_mask)
    pos = np.arange(total_rows, dtype=np.int64) - row_starts[mask_of_row]
    ns_rep = ns_arr[mask_of_row]
    q1_all = sub_all[sub_starts[mask_of_row] + pos % ns_rep]
    mask_vals = np.array([mask for mask, _, _ in group], dtype=np.int64)
    q2_all = mask_vals[mask_of_row] ^ q1_all
    v_all = bb_all[bb_starts[mask_of_row] + pos // ns_rep]
    cnts = CNT[q1_all, v_all] * CNT[q2_all, v_all]
    live = np.flatnonzero(cnts)
    return np.stack(
        [
            mask_vals[mask_of_row].take(live),
            v_all.take(live),
            q1_all.take(live),
            PTR[q1_all, v_all].take(live),
            PTR[q2_all, v_all].take(live),
        ]
    )


@pytest.fixture
def row_calls(monkeypatch):
    """Every ``_live_merge_rows`` call of a solve: its tables and chunks."""
    calls = []
    real = pareto_dw_module._live_merge_rows

    def spy(CNT, PTR, masks, sub, box, budget):
        chunks = list(real(CNT, PTR, masks, sub, box, budget))
        calls.append((CNT.copy(), PTR.copy(), masks.copy(), chunks))
        yield from chunks

    monkeypatch.setattr(pareto_dw_module, "_live_merge_rows", spy)
    return calls


def check_rows(calls, net, expected_masks, lemma2=True, lemma3=True, lemma4=True):
    """Every call's live rows equal the oracle's; masks cover ``expected_masks``."""
    seen = []
    for CNT, PTR, masks, chunks in calls:
        masks = masks.tolist()
        assert masks == sorted(masks)
        assert len({bin(m).count("1") for m in masks}) == 1
        seen += masks
        got = np.concatenate(
            [
                np.stack([np.array(masks)[m], v, q1, p1, p2]).reshape(5, -1)
                for m, v, q1, c1, c2, p1, p2 in chunks
            ],
            axis=1,
        )
        for m, v, q1, c1, c2, p1, p2 in chunks:
            assert (c1 > 0).all() and (c2 > 0).all()
            assert (c1 == CNT[q1, v]).all()
            assert (c2 == CNT[np.array(masks)[m] ^ q1, v]).all()
        want = oracle_rows(net, masks, CNT, PTR, lemma2, lemma3, lemma4)
        assert got.tolist() == want.tolist()
    assert sorted(seen) == sorted(expected_masks)


def all_masks(net):
    """Every mask of two or more sinks: what a cold solve merges."""
    k = net.degree - 1
    return [m for m in range(1 << k) if bin(m).count("1") >= 2]


#: Coordinates that collide and repeat (pins stay distinct).
COORDS = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 2.5, 4.0, 7.0, 7.25, 10.0])


@st.composite
def lattice_nets(draw, budget):
    degree = draw(st.integers(6, MAX_DEGREE_AT[budget]))
    pins = draw(
        st.lists(
            st.tuples(COORDS, COORDS), min_size=degree, max_size=degree, unique=True
        )
    )
    return Net.from_points(pins[0], pins[1:])


@st.composite
def ring_nets(draw, budget):
    """Every sink on the bounding box edge, so Lemma 4 splits apply."""
    degree = draw(st.integers(6, MAX_DEGREE_AT[budget]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    pts = set()
    while len(pts) < degree:
        t = float(rng.randint(1, 19)) * 5.0
        pts.add(rng.choice([(t, 0.0), (t, 100.0), (0.0, t), (100.0, t)]))
    pts = sorted(pts)
    return Net.from_points(pts[0], pts[1:])


@st.composite
def cases(draw):
    budget = draw(st.sampled_from(BUDGETS))
    net = draw(st.one_of(lattice_nets(budget), ring_nets(budget)))
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    return budget, net, flags, draw(st.booleans())


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestLiveRowsEqualTheOracle:
    @SETTINGS
    @given(case=cases())
    def test_cold_solves(self, case, row_calls, monkeypatch):
        budget, net, (lemma2, lemma3, lemma4), bound = case
        monkeypatch.setattr(pareto_dw_module, "_CANDIDATE_BUDGET", budget)
        row_calls.clear()
        _pareto_dw_on(
            net, "array", lemma2=lemma2, lemma3=lemma3, lemma4=lemma4,
            with_trees=False, bound=bound,
        )
        check_rows(row_calls, net, all_masks(net), lemma2, lemma3, lemma4)

    @pytest.mark.parametrize(
        "lemma2, lemma3, lemma4", list(product([False, True], repeat=3))
    )
    def test_ring_net_every_flag(self, lemma2, lemma3, lemma4, row_calls):
        pts = [(20.0, 0.0), (60.0, 0.0), (100.0, 30.0), (100.0, 80.0),
               (50.0, 100.0), (0.0, 70.0), (0.0, 20.0)]
        net = Net.from_points(pts[0], pts[1:])
        assert _boundary_order(
            HananGrid.of_net(net), HananGrid.of_net(net).pin_nodes()[1:]
        ) is not None
        _pareto_dw_on(
            net, "array", lemma2=lemma2, lemma3=lemma3, lemma4=lemma4,
            with_trees=False,
        )
        check_rows(row_calls, net, all_masks(net), lemma2, lemma3, lemma4)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("ring", [False, True])
    def test_warm_eco_solves(self, budget, ring, row_calls, monkeypatch):
        # Lattice nets and their grid-preserving pin moves, as the ECO
        # lane replays them; each edited net is solved as pareto_dw runs
        # it (bounded from degree 7) and merges every mask.
        monkeypatch.setattr(pareto_dw_module, "_CANDIDATE_BUDGET", budget)
        lines = (0.0, 250.0, 500.0, 750.0, 1000.0)
        points = [
            (x, y) for x in lines for y in lines
            if not ring or x in (0.0, 1000.0) or y in (0.0, 1000.0)
        ]
        degree = min(MAX_DEGREE_AT[budget], 8)
        rng = random.Random(budget + ring)
        net = None
        while net is None or grid_preserving_move(net, random.Random(0)) is None:
            pins = rng.sample(points, degree)
            net = Net.from_points(pins[0], pins[1:], name="eco")
        warm_checked = 0
        for _ in range(2):
            delta = grid_preserving_move(net, rng)
            if delta is None:
                break
            edited = apply_delta(net, delta)
            row_calls.clear()
            pareto_dw(edited, with_trees=False)
            check_rows(row_calls, edited, all_masks(edited))
            warm_checked += 1
            net = edited
        assert warm_checked >= 1
