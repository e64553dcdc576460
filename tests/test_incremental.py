"""Incremental / ECO engine: deltas, edit streams, exactness, rip-up.

The load-bearing property here is the exactness contract: an incremental
solve through :class:`~repro.incremental.engine.IncrementalRouter` must
be **bit-identical** to a cold full re-route of the edited net whenever
the edit lands on an exact tier (``closed_form`` / ``lut`` / ``dw`` /
``cache``) — warm starts may only change *how fast* the answer arrives,
never the answer. ``local_search`` is heuristic, so only solution
quality is asserted there.
"""

import dataclasses
import hashlib
import importlib
import io
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.frontier_array import front_to_arrays
from repro.core.pareto_dw import pareto_dw
from repro.engine import EngineSpec, build_engine
from repro.exceptions import (
    InvalidNetError,
    ProtocolVersionError,
    SerializationError,
)
from repro.geometry.hanan import HananGrid
from repro.geometry.net import Net, random_net
from repro.incremental import (
    EXACT_TIERS,
    IncrementalRouter,
    NetDelta,
    adapt_tree,
    apply_delta,
    delta_from_payload,
    delta_to_payload,
    dump_deltas,
    format_delta,
    grid_preserving_move,
    load_deltas,
    parse_deltas,
    perturb_nets,
    save_deltas,
)
from repro.incremental.delta import _dw_signature
from repro.routing.tree import RoutingTree
from repro.serve.protocol import PROTOCOL_VERSION, check_version


pareto_dw_module = importlib.import_module("repro.core.pareto_dw")
engine_module = importlib.import_module("repro.incremental.engine")


def _objectives(front):
    return [(w, d) for w, d, _t in front]


def _fresh_engine(**kwargs):
    """A cold engine (no shared caches with any other instance)."""
    return build_engine(EngineSpec(router="patlabor", **kwargs))


def _lattice_net(name="lattice"):
    """A boundary-lattice net with one vacancy.

    Every pin sits on the 4x3 Hanan lattice's boundary, so moving a sink
    onto the vacancy keeps the coordinate lines, the Lemma-2 survivors,
    and the Lemma-4 boundary flag — i.e. the DW signature — unchanged.
    """
    xs, ys = (0.0, 333.0, 666.0, 1000.0), (0.0, 500.0, 1000.0)
    boundary = [
        (x, y)
        for x in xs
        for y in ys
        if x in (xs[0], xs[-1]) or y in (ys[0], ys[-1])
    ]
    source, vacancy = (0.0, 0.0), (666.0, 0.0)
    sinks = [p for p in boundary if p not in (source, vacancy)][:7]
    return Net.from_points(source, sinks, name=name)


def _eco_design():
    """``benchmarks/bench_eco.py``'s design: 30 degree 7..9 nets on an
    8x8 coordinate lattice (seed 2028)."""
    lattice = [1000.0 * i / 7.0 for i in range(8)]
    rng = random.Random(2028)
    nets = []
    for i in range(30):
        pts = set()
        while len(pts) < 7 + i % 3:
            pts.add((rng.choice(lattice), rng.choice(lattice)))
        ordered = sorted(pts)
        rng.shuffle(ordered)
        nets.append(Net.from_points(ordered[0], ordered[1:], name=f"d{i:03d}"))
    return nets


# ------------------------------------------------------------- deltas


class TestNetDelta:
    def test_replay_format_round_trip(self):
        deltas = [
            NetDelta("move", net="a", sink_index=2, point=(1.5, 2.25)),
            NetDelta("add", net="b", point=(0.1, 9.0)),
            NetDelta("remove", net="c", sink_index=0),
            NetDelta("source", net="d", point=(3.0, 4.0)),
            NetDelta(
                "blockage", region=(0.0, 0.0, 10.0, 10.0), scale=0.25
            ),
        ]
        text = "".join(format_delta(d) + "\n" for d in deltas)
        import io

        assert list(parse_deltas(io.StringIO(text))) == deltas

    def test_file_round_trip(self, tmp_path):
        deltas = perturb_nets(
            [random_net(6, rng=random.Random(1), name="n")],
            seed=2,
            kind="move",
            count=4,
        )
        path = tmp_path / "stream.deltas"
        assert save_deltas(deltas, path) == 4
        assert load_deltas(path) == deltas

    def test_comments_and_blanks_ignored(self):
        import io

        text = "# header\n\nremove n 1\n  # indented comment\n"
        assert list(parse_deltas(io.StringIO(text))) == [
            NetDelta("remove", net="n", sink_index=1)
        ]

    def test_wire_codec_round_trip(self):
        for delta in (
            NetDelta("move", net="a", sink_index=1, point=(7.0, 8.0)),
            NetDelta("blockage", region=(1.0, 2.0, 3.0, 4.0), scale=0.0),
        ):
            assert delta_from_payload(delta_to_payload(delta)) == delta

    def test_malformed_payload_raises(self):
        with pytest.raises(SerializationError):
            delta_from_payload({"no": "kind"})
        with pytest.raises(SerializationError):
            delta_from_payload({"kind": "move", "net": "a", "point": [1]})
        with pytest.raises(SerializationError):
            delta_from_payload({"kind": "teleport", "net": "a"})

    def test_validation(self):
        with pytest.raises(SerializationError):
            NetDelta("move", net="a", sink_index=0)  # no point
        with pytest.raises(SerializationError):
            NetDelta("move", net="a", point=(0.0, 0.0))  # no index
        with pytest.raises(SerializationError):
            NetDelta("add", point=(0.0, 0.0))  # no net
        with pytest.raises(SerializationError):
            NetDelta("blockage", scale=0.5)  # no region

    def test_immutable_and_hashable(self):
        delta = NetDelta("remove", net="a", sink_index=1)
        with pytest.raises(AttributeError):
            delta.net = "b"
        assert delta in {NetDelta("remove", net="a", sink_index=1)}

    def test_apply_delta_semantics(self):
        net = Net.from_points((0, 0), [(10, 0), (0, 10)], name="n")
        moved = apply_delta(
            net, NetDelta("move", net="n", sink_index=0, point=(5.0, 5.0))
        )
        assert (moved.sinks[0].x, moved.sinks[0].y) == (5.0, 5.0)
        grown = apply_delta(net, NetDelta("add", net="n", point=(3.0, 4.0)))
        assert grown.degree == net.degree + 1
        shrunk = apply_delta(grown, NetDelta("remove", net="n", sink_index=2))
        assert shrunk.pins == net.pins
        rerooted = apply_delta(
            net, NetDelta("source", net="n", point=(1.0, 1.0))
        )
        assert (rerooted.source.x, rerooted.source.y) == (1.0, 1.0)
        blocked = apply_delta(
            net, NetDelta("blockage", region=(0, 0, 1, 1), scale=0.0)
        )
        assert blocked is net

    def test_apply_delta_out_of_range(self):
        net = Net.from_points((0, 0), [(10, 0)], name="n")
        with pytest.raises(SerializationError):
            apply_delta(
                net, NetDelta("move", net="n", sink_index=5, point=(1.0, 1.0))
            )

    def test_perturb_deterministic_and_replayable(self):
        rng = random.Random(11)
        nets = [random_net(7, rng=rng, name=f"p{i}") for i in range(4)]
        a = perturb_nets(nets, seed=5, kind="move", count=10)
        b = perturb_nets(nets, seed=5, kind="move", count=10)
        assert a == b
        # The stream replays in order without tripping Net validation.
        current = {n.name: n for n in nets}
        for delta in a:
            current[delta.net] = apply_delta(current[delta.net], delta)

    def test_perturb_requires_unique_names(self):
        rng = random.Random(1)
        nets = [random_net(5, rng=rng, name="dup") for _ in range(2)]
        with pytest.raises(SerializationError):
            perturb_nets(nets, seed=1)

    def test_grid_preserving_move_preserves_signature(self):
        net = _lattice_net()
        delta = grid_preserving_move(net, random.Random(8))
        assert delta is not None
        assert _dw_signature(apply_delta(net, delta)) == _dw_signature(net)

    def test_eco_benchmark_stream_is_pinned(self):
        """The 200 one-pin moves ``benchmarks/bench_eco.py`` and
        ``perfbench``'s ECO lane replay, hashed as their ``.deltas``
        text: a change to the move generator must not change them."""
        deltas = perturb_nets(_eco_design(), seed=2029, kind="move", count=200)
        text = io.StringIO()
        dump_deltas(deltas, text)
        digest = hashlib.sha256(text.getvalue().encode()).hexdigest()
        assert digest == (
            "3186ed05cd82aa729c6e17c77d5792501450cf0478e84ff24f6b338540b55b6d"
        )


# ------------------------------------------------- ECO DW-tier re-solves

#: Coordinate lines of the 5x5 lattice the edit-kind cases draw pins from.
_LINES = (0.0, 250.0, 500.0, 750.0, 1000.0)


def _case_net(degree, seed, ring):
    """A degree-``degree`` net on the 5x5 lattice.

    ``ring=True`` draws every pin from the lattice boundary, so Lemma 4
    (circular splits) is active; otherwise pins may sit anywhere on it.
    """
    points = [
        (x, y)
        for x in _LINES
        for y in _LINES
        if not ring or x in (0.0, 1000.0) or y in (0.0, 1000.0)
    ]
    pins = random.Random(seed).sample(points, degree)
    return Net.from_points(pins[0], pins[1:], name=f"case{seed}")


def _grid_keeping_edit(net, kind, rng):
    """A ``kind`` edit of ``net`` that keeps its DW signature, or None."""
    grid = HananGrid.of_net(net)
    occupied = {(p.x, p.y) for p in net.pins}
    vacancies = [
        (x, y) for x in grid.xs for y in grid.ys if (x, y) not in occupied
    ]
    rng.shuffle(vacancies)
    if kind == "remove":
        candidates = [
            NetDelta("remove", net=net.name, sink_index=len(net.sinks) - 1)
        ]
    elif kind == "move":
        candidates = [
            NetDelta("move", net=net.name, sink_index=si, point=p)
            for p in vacancies
            for si in range(len(net.sinks))
        ]
    else:  # add, source
        candidates = [NetDelta(kind, net=net.name, point=p) for p in vacancies]
    signature = _dw_signature(net)
    for delta in candidates:
        if _dw_signature(apply_delta(net, delta)) == signature:
            return delta
    return None


def _grid_keeping_case(kind, degree, ring):
    """The first lattice net (by seed) with a signature-keeping ``kind`` edit."""
    for seed in range(50):
        net = _case_net(degree, seed, ring)
        delta = _grid_keeping_edit(net, kind, random.Random(seed))
        if delta is not None:
            return net, delta
    raise AssertionError(f"no signature-keeping {kind} edit at degree {degree}")


#: (kind, degree before the edit): every edited net stays at degree 6..9.
EDIT_CASES = [
    (kind, degree)
    for kind, degrees in (
        ("move", (6, 7, 8, 9)),
        ("source", (6, 7, 8, 9)),
        ("add", (6, 7, 8)),
        ("remove", (7, 8, 9)),
    )
    for degree in degrees
]


def _eco_edit(net, delta):
    """Route ``net`` on a fresh incremental engine, then apply ``delta``."""
    engine = build_engine(
        EngineSpec(router="patlabor", cache="symmetry", incremental=True)
    )
    engine.route(net)
    return engine.apply_delta(delta)


class TestDWStateReuse:
    """Edits on the DW tier keep no solver state between solves: each is
    one cold :func:`~repro.core.pareto_dw.pareto_dw` of the edited net,
    bit-identical to a fresh route (the class name predates that)."""

    def test_warm_solve_bit_identical_with_reuse(self):
        net = _lattice_net()
        delta = grid_preserving_move(net, random.Random(8))
        assert delta is not None
        edited = apply_delta(net, delta)
        result = _eco_edit(net, delta)
        assert result.tier == "dw"
        assert result.front == pareto_dw(edited)  # trees included

    def test_warm_solve_array_parity(self):
        """The ECO front's objective arrays equal the tuple DP's."""
        net = _lattice_net("parity")
        delta = grid_preserving_move(net, random.Random(3))
        assert delta is not None
        edited = apply_delta(net, delta)
        result = _eco_edit(net, delta)
        assert result.tier == "dw"
        eco_w, eco_d = front_to_arrays(result.front)[:2]
        ref_w, ref_d = front_to_arrays(pareto_dw(edited, kernels=False))[:2]
        assert np.array_equal(eco_w, ref_w)
        assert np.array_equal(eco_d, ref_d)

    def test_signature_mismatch_means_no_reuse(self):
        """A move off the lattice adds a coordinate line; it is served
        like every other edit, by a cold solve of the edited net."""
        net = _lattice_net("off-grid")
        delta = NetDelta(
            "move", net=net.name, sink_index=0, point=(123.0, 77.0)
        )
        edited = apply_delta(net, delta)
        assert _dw_signature(edited) != _dw_signature(net)
        result = _eco_edit(net, delta)
        assert result.tier == "dw"
        assert result.front == pareto_dw(edited)

    @pytest.mark.parametrize("ring", [False, True], ids=["lattice", "ring"])
    @pytest.mark.parametrize("kind,degree", EDIT_CASES)
    def test_warm_solve_equals_cold_per_edit_kind(
        self, kind, degree, ring, monkeypatch
    ):
        net, delta = _grid_keeping_case(kind, degree, ring)
        edited = apply_delta(net, delta)
        solved = []
        real = engine_module.pareto_dw

        def spy(n, **kw):
            solved.append((n, kw))
            return real(n, **kw)

        monkeypatch.setattr(engine_module, "pareto_dw", spy)
        result = _eco_edit(net, delta)
        monkeypatch.undo()
        # One solve, of the edited net, with the defaults of every
        # other exact solve (bounded from degree 7).
        assert solved == [(edited, {})]
        assert result.tier == "dw"
        # Trees and tie choices equal the dispatched cold solve and a
        # fresh engine's route; the objectives equal the tuple DP's.
        assert result.front == pareto_dw(edited)
        assert result.front == _fresh_engine().route(edited)
        assert _objectives(result.front) == _objectives(
            pareto_dw(edited, kernels=False)
        )

    @pytest.mark.parametrize("ring", [False, True], ids=["lattice", "ring"])
    @pytest.mark.parametrize("degree", [6, 7, 8])
    def test_source_move_reads_full_set_at_new_source(self, degree, ring):
        """A source move re-solves with the full sink set closed at the
        new source: every tree is rooted there."""
        net, delta = _grid_keeping_case("source", degree, ring)
        edited = apply_delta(net, delta)
        assert edited.source != net.source
        result = _eco_edit(net, delta)
        assert result.tier == "dw"
        assert result.front == pareto_dw(edited)  # trees included
        for _w, _d, tree in result.front:
            assert tree.points[0] == edited.source
            assert tree.parent[0] == -1

    def test_small_degree_is_cold_and_retains_nothing(self):
        """An edit below the array engine's degree runs the tuple DP,
        and the session keeps only the edited net and its front."""
        big = _case_net(6, 3, ring=False)
        delta = NetDelta("remove", net=big.name, sink_index=4)
        small = apply_delta(big, delta)
        assert small.degree < pareto_dw_module._ARRAY_MIN_DEGREE
        engine = build_engine(
            EngineSpec(router="patlabor", cache="symmetry", incremental=True)
        )
        engine.route(big)
        result = engine.apply_delta(delta)
        assert result.tier == "dw"
        assert result.front == pareto_dw(small)
        session = engine._sessions[big.name]
        assert vars(session) == {"net": small, "front": result.front}


# -------------------------------------------------- incremental engine


class TestIncrementalRouter:
    def _engine(self):
        return build_engine(
            EngineSpec(router="patlabor", cache="symmetry", incremental=True)
        )

    def test_capabilities_flag(self):
        assert self._engine().capabilities.incremental is True
        assert _fresh_engine().capabilities.incremental is False

    def test_capabilities_follow_lambda_changes(self):
        inner = _fresh_engine()
        engine = IncrementalRouter(inner)
        caps = engine.capabilities
        assert caps is engine.capabilities  # built once, not per call
        inner.config.lam = 7
        assert engine.capabilities.exact_up_to == 7
        assert engine.capabilities.incremental is True

    def test_unknown_net_raises(self):
        engine = self._engine()
        with pytest.raises(InvalidNetError):
            engine.apply_delta(
                NetDelta("move", net="ghost", sink_index=0, point=(1.0, 1.0))
            )

    def test_blockage_is_noop(self):
        engine = self._engine()
        result = engine.apply_delta(
            NetDelta("blockage", region=(0, 0, 1, 1), scale=0.5)
        )
        assert result.tier == "unchanged" and result.net is None

    def test_session_tracking_and_lru(self):
        inner = _fresh_engine()
        engine = IncrementalRouter(inner, max_sessions=2)
        rng = random.Random(0)
        nets = [random_net(5, rng=rng, name=f"s{i}") for i in range(3)]
        for net in nets:
            engine.route(net)
        assert engine.num_sessions == 2
        assert engine.session_net("s0") is None  # evicted
        assert engine.session_net("s2") == nets[2]
        engine.forget("s2")
        assert engine.session_net("s2") is None

    def test_stream_bit_identical_to_cold(self):
        """20 mixed edits; every exact-tier result equals a cold re-route."""
        rng = random.Random(42)
        nets = [random_net(4 + i % 5, rng=rng, name=f"n{i}") for i in range(5)]
        engine = self._engine()
        for net in nets:
            engine.route(net)
        current = {n.name: n for n in nets}
        checked_exact = 0
        for seed, kind in ((1, "move"), (2, "add"), (3, "remove")):
            for delta in perturb_nets(
                list(current.values()), seed=seed, kind=kind, count=5
            ):
                result = engine.apply_delta(delta)
                current[delta.net] = apply_delta(current[delta.net], delta)
                cold_front = _fresh_engine().route(current[delta.net])
                if result.tier in EXACT_TIERS:
                    checked_exact += 1
                    assert _objectives(result.front) == _objectives(
                        cold_front
                    ), f"{delta!r} via {result.tier}"
                else:
                    best = min(w for w, _d, _t in result.front)
                    cold_best = min(w for w, _d, _t in cold_front)
                    assert best <= cold_best * 1.10
        assert checked_exact > 0

    def test_cache_short_circuit(self):
        """An edit that undoes the previous one is served from cache."""
        net = _lattice_net("undo")
        engine = self._engine()
        engine.route(net)
        delta = grid_preserving_move(net, random.Random(2))
        assert delta is not None
        engine.apply_delta(delta)
        old = (net.sinks[delta.sink_index].x, net.sinks[delta.sink_index].y)
        undo = NetDelta(
            "move", net=net.name, sink_index=delta.sink_index, point=old
        )
        result = engine.apply_delta(undo)
        assert result.cache_hit and result.tier == "cache"
        assert _objectives(result.front) == _objectives(
            _fresh_engine().route(net)
        )

    def test_local_search_warm_start_quality(self):
        """Above-lambda edits warm-start local search; quality must hold."""
        rng = random.Random(7)
        net = random_net(11, rng=rng, name="big")
        engine = self._engine()
        engine.route(net)
        delta = perturb_nets([net], seed=1, kind="move", count=1)[0]
        result = engine.apply_delta(delta)
        assert result.tier == "local_search"
        edited = apply_delta(net, delta)
        cold = _fresh_engine().route(edited)
        best = min(w for w, _d, _t in result.front)
        cold_best = min(w for w, _d, _t in cold)
        assert best <= cold_best * 1.10


class TestAdaptTree:
    def _tree(self, net):
        return _fresh_engine().route(net)[0][2]

    def test_each_kind_yields_valid_tree(self):
        net = random_net(7, rng=random.Random(3), name="t")
        tree = self._tree(net)
        cases = [
            NetDelta("move", net="t", sink_index=1, point=(401.0, 17.0)),
            NetDelta("add", net="t", point=(500.0, 500.0)),
            NetDelta("remove", net="t", sink_index=len(net.sinks) - 1),
            NetDelta("source", net="t", point=(900.0, 900.0)),
        ]
        for delta in cases:
            edited = apply_delta(net, delta)
            adapted = adapt_tree(tree, edited, delta)
            assert isinstance(adapted, RoutingTree)
            assert adapted.net == edited
            assert adapted.wirelength() > 0.0


# -------------------------------------------------- negotiation rip-up


class TestNegotiationIncremental:
    def _scenario(self):
        from repro.congestion.negotiate import (
            NegotiatedRouter,
            NegotiatorConfig,
            Scenario,
        )

        scenario = Scenario.random(nets=60, cells=8, span=1000.0, seed=7)
        config = NegotiatorConfig(max_iterations=40)
        return NegotiatedRouter(scenario, config), scenario

    def test_move_converges_with_frozen_background(self):
        router, scenario = self._scenario()
        previous = router.run()
        assert previous.converged and previous.committed is not None
        delta = scenario.perturb(seed=21, kind="move", count=1)[0]
        result = router.run_incremental(previous, delta)
        assert result.converged
        assert result.final_overuse == 0.0
        # The edited net's chosen tree is for the edited geometry.
        edited = apply_delta(
            next(n for n in scenario.nets if n.name == delta.net), delta
        )
        assert any(n.name == delta.net and n == edited for n in scenario.nets)

    def test_add_and_mild_blockage_converge(self):
        router, scenario = self._scenario()
        previous = router.run()
        add = scenario.perturb(seed=22, kind="add", count=1)[0]
        mid = router.run_incremental(previous, add)
        assert mid.converged
        blockage = scenario.perturb(
            seed=23, kind="blockage", count=1, blockage_scale=0.9
        )[0]
        result = router.run_incremental(mid, blockage)
        assert result.converged

    def test_requires_committed_state(self):
        router, scenario = self._scenario()
        previous = router.run()
        stripped = dataclasses.replace(previous, committed=None)
        with pytest.raises(ValueError):
            router.run_incremental(
                stripped, scenario.perturb(seed=1, kind="move", count=1)[0]
            )

    def test_unknown_net_raises(self):
        router, _scenario = self._scenario()
        previous = router.run()
        with pytest.raises(ValueError):
            router.run_incremental(
                previous,
                NetDelta("move", net="ghost", sink_index=0, point=(1.0, 1.0)),
            )


# ------------------------------------------------------ wire protocol


class TestProtocolVersion:
    def test_eco_needs_v2(self):
        check_version({"op": "eco", "v": PROTOCOL_VERSION}, "eco")
        with pytest.raises(ProtocolVersionError):
            check_version({"op": "eco"}, "eco")  # unversioned = v1
        with pytest.raises(ProtocolVersionError):
            check_version({"op": "eco", "v": 1}, "eco")

    def test_bad_version_type(self):
        with pytest.raises(ProtocolVersionError):
            check_version({"op": "eco", "v": "two"}, "eco")

    def test_ungated_ops_accept_any_version(self):
        for op in ("ping", "route", "stats", "shutdown"):
            check_version({"op": op}, op)
            check_version({"op": op, "v": 99}, op)


# ---------------------------------------------------------- cache API


class TestCacheLookupSeed:
    def test_lookup_miss_then_seed_then_hit(self):
        engine = _fresh_engine(cache="symmetry")
        net = random_net(6, rng=random.Random(5), name="c")
        assert engine.lookup(net) is None
        front = engine.route(net)
        assert engine.lookup(net) == front
        other = random_net(6, rng=random.Random(6), name="c2")
        engine.seed(other, front)
        assert engine.lookup(other) == front


# --------------------------------------------------------- properties


slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.large_base_example,
        HealthCheck.filter_too_much,
    ],
)

coords = st.integers(0, 30)


@st.composite
def small_nets(draw, min_degree=4, max_degree=8):
    n = draw(st.integers(min_degree, max_degree))
    pts = set()
    while len(pts) < n:
        pts.add((draw(coords), draw(coords)))
    ordered = sorted(pts)
    rng = random.Random(draw(st.integers(0, 10**6)))
    rng.shuffle(ordered)
    return Net.from_points(ordered[0], ordered[1:], name="hyp")


class TestIncrementalProperties:
    @slow
    @given(
        small_nets(),
        st.integers(0, 10**6),
        st.lists(
            st.sampled_from(["move", "add", "remove"]), min_size=1, max_size=3
        ),
    )
    def test_random_streams_match_cold_reroutes(self, net, seed, kinds):
        """Any delta stream: exact tiers bit-identical, heuristic close."""
        engine = build_engine(
            EngineSpec(router="patlabor", cache="symmetry", incremental=True)
        )
        engine.route(net)
        current = net
        for offset, kind in enumerate(kinds):
            if kind == "remove" and current.degree <= 2:
                continue
            delta = perturb_nets(
                [current], seed=seed + offset, kind=kind, count=1, span=30.0
            )[0]
            result = engine.apply_delta(delta)
            current = apply_delta(current, delta)
            cold = _fresh_engine().route(current)
            if result.tier in EXACT_TIERS:
                assert _objectives(result.front) == _objectives(cold)
            else:
                best = min(w for w, _d, _t in result.front)
                assert best <= min(w for w, _d, _t in cold) * 1.10
